"""Core domain types: points, mapping families, problems, and run records.

Iterates live in R^d and are represented as plain 1-D float64 numpy arrays.
A :class:`MappingFamily` bundles ``n`` component mappings ``T_1, ..., T_n``
together with their exact mean ``T(x) = (1/n) sum_i T_i(x)``, which is the
operator whose fixed points the solvers target, and answers the oracle query
for the point of that set nearest an anchor.  :func:`resolve_oracle` asks
that query once per :class:`Problem` and memoizes the answer on it.  All
types in this module are immutable after construction and safe to share
across threads; evaluation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "DivergenceError",
    "OracleError",
    "as_point",
    "f0_value",
    "MappingFamily",
    "CallableFamily",
    "OracleInfo",
    "OracleResult",
    "Problem",
    "resolve_oracle",
    "RunRecord",
    "EnsembleStats",
]


class DimensionMismatchError(ValueError):
    """Vector length does not match the expected dimension."""


class DivergenceError(RuntimeError):
    """An iterate left the finite range; carries the master seed, trial index and step."""

    def __init__(self, message: str, seed: int, trial: int, step: int):
        super().__init__(message)
        self.seed = seed
        self.trial = trial
        self.step = step


class OracleError(RuntimeError):
    """An independent oracle failed to produce a certified solution."""


@dataclass(frozen=True)
class OracleResult:
    """Certified limit point with its residual under the exact family mean."""

    x_star: np.ndarray
    residual_at_star: float
    method: str
    iterations: int | None = None
    condition: float | None = None


def as_point(x, dim: int | None = None, name: str = "x") -> np.ndarray:
    """Validate and convert ``x`` to a 1-D float64 array.

    Rejects empty vectors, NaN/Inf entries, and (when ``dim`` is given)
    length mismatches.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a 1-D vector with at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite coordinates")
    if dim is not None and arr.size != dim:
        raise DimensionMismatchError(f"{name} has length {arr.size}, expected {dim}")
    return arr


def f0_value(x, x0) -> float:
    """Half squared distance to the anchor: ``(1/2) ||x - x0||^2``.

    This is the objective the anchored iteration minimizes over the fixed
    point set; its gradient at ``x`` is ``x - x0``.
    """
    xa = as_point(x, name="x")
    x0a = as_point(x0, dim=xa.size, name="x0")
    d = xa - x0a
    return 0.5 * float(d @ d)


class MappingFamily:
    """A finite family of mappings ``T_i: R^d -> R^d`` with exact-mean access.

    Subclasses provide :meth:`eval_all`, returning the stacked component
    values at a point, and may override the two primitives the solvers call
    with stacked forms over many points: :meth:`weighted_mean`, the mean
    under one weight row over all ``n`` components per point (uniform rows
    give the exact mean, ``counts / b`` a batch of ``b >= n`` drawn as
    counts), and :meth:`sampled_mean`, which averages only the drawn
    components (batches of ``b < n`` drawn as indices).  An affine family
    also overrides the private hook :meth:`_affine`, and a family that can
    certify its limit point overrides :meth:`nearest_fixed_point`.
    Component indices are 1-based in the public API, matching the sampling
    convention; row ``i`` of :meth:`eval_all` holds ``T_{i+1}(x)``.

    Parameters
    ----------
    dim : int
        Ambient dimension ``d``.
    n : int
        Number of component mappings.

    The class attribute ``kind`` tags the construction: ``"projection-mean"``,
    ``"gradient-mean"``, or ``"custom"``.
    """

    kind = "custom"

    def __init__(self, dim: int, n: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if n < 1:
            raise ValueError("family size must be >= 1")
        self._dim = int(dim)
        self._n = int(n)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def n(self) -> int:
        return self._n

    def eval_all(self, x: np.ndarray) -> np.ndarray:
        """Evaluate every component at ``x``; returns a new ``(n, d)`` array
        that the caller owns and may overwrite."""
        raise NotImplementedError

    def component(self, i: int, x) -> np.ndarray:
        """Evaluate ``T_i(x)`` for a 1-based index ``i``."""
        if not 1 <= i <= self._n:
            raise IndexError(f"component index {i} outside [1, {self._n}]")
        xa = as_point(x, dim=self._dim)
        return self.eval_all(xa)[i - 1]

    def weighted_mean(self, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Weighted means ``out[t] = (1 - sum_i W[t, i]) * X[t] + sum_i W[t, i] * T_i(X[t])``.

        ``X`` is a ``(T, d)`` stack of points and ``W`` a ``(T, n)`` stack of
        nonnegative rows summing to at most one, the identity taking the
        rest; the result is ``(T, d)``.  Uniform rows ``1/n`` give the exact
        mean, ``counts / b`` a sampled mini-batch mean and rows scaled by
        ``1 - lam`` their blend with the identity.  Hot path: skips
        validation.  This generic version evaluates every component per
        point; the built-in families override it with stacked array forms.
        """
        return np.stack([x - w @ (x - self.eval_all(x)) for x, w in zip(X, W)])

    def _exact_mean(self, X: np.ndarray) -> np.ndarray:
        """Exact means ``T(X[p])`` of a ``(P, d)`` stack of points; ``(P, d)``.

        The one exact-mean entry point of the solvers.  This version passes
        uniform ``1/n`` rows to :meth:`weighted_mean`, so it costs ``n``
        component evaluations per point; a family whose mean map has a
        cheaper closed form, such as an affine one, may override it.
        """
        return self.weighted_mean(X, np.full((X.shape[0], self._n), 1.0 / self._n))

    def _affine(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """``(G, h)`` with ``weighted_mean(x, w) = x - G x + h`` for each row
        ``w`` of a ``(..., n)`` stack, or None when the means are not affine.
        The pair is linear in ``W``, and each ``(T, n)`` slice of a stack
        gives exactly what it gives alone."""
        return None

    def sampled_mean(self, X: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Mini-batch means ``out[t] = (1/b) sum_j T_{idx[t, j] + 1}(X[t])``.

        ``X`` is a ``(T, d)`` stack of points and ``idx`` a ``(T, b)`` stack
        of zero-based component indices; the result is ``(T, d)``.  Only the
        drawn rows enter the sum, so a component that overflows but was not
        drawn cannot poison it.  Hot path: skips validation.  This generic
        version evaluates every component per point; the built-in families
        override it with forms that touch only the drawn components.
        """
        return np.stack([self.eval_all(X[t])[idx[t]].mean(axis=0) for t in range(X.shape[0])])

    def mean(self, x) -> np.ndarray:
        """Exact mean ``T(x) = (1/n) sum_i T_i(x)``."""
        xa = as_point(x, dim=self._dim)
        return self._exact_mean(xa[None, :])[0]

    def nearest_fixed_point(self, x0) -> OracleResult:
        """The point of Fix(T) nearest ``x0``, certified without the solvers;
        :class:`OracleError` when the family cannot, as this version never can."""
        raise OracleError(f"{type(self).__name__} has no oracle")

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(n={self._n}, dim={self._dim}, kind={self.kind!r})"


class CallableFamily(MappingFamily):
    """Family built from arbitrary Python callables (one per component)."""

    def __init__(self, components: Sequence[Callable[[np.ndarray], np.ndarray]],
                 dim: int):
        super().__init__(dim=dim, n=len(components))
        self._components = list(components)

    def eval_all(self, x: np.ndarray) -> np.ndarray:
        return self._eval(x, range(self._n))

    def sampled_mean(self, X: np.ndarray, idx: np.ndarray) -> np.ndarray:
        # calls only the drawn components
        return np.stack([self._eval(x, row).mean(axis=0) for x, row in zip(X, idx)])

    def _eval(self, x: np.ndarray, rows) -> np.ndarray:
        out = np.empty((len(rows), self._dim))
        for j, i in enumerate(rows):
            out[j] = np.asarray(self._components[i](x), dtype=float)
        return out


@dataclass(frozen=True)
class OracleInfo:
    """A problem's opt-in to the oracle, which asks the family itself.

    ``data`` is a read-only sequence of the family's halfspaces or terms,
    for a reference point computed without the package.
    """

    data: Sequence


@dataclass(frozen=True)
class Problem:
    """A fixed-point problem instance: family, anchor point, optional oracle data.

    ``x0`` doubles as the initial iterate and the anchor of the anchored
    iterations; the target point is the projection of ``x0`` onto the fixed
    point set of the family mean.  ``oracle_info=None`` means no oracle and
    no distance columns, and is not derived from the family: halfspaces that
    do not meet still run, without one.  The problem is frozen and ``x0`` is
    a read-only copy, so the memoized oracle result cannot go stale.
    """

    family: MappingFamily
    x0: np.ndarray
    oracle_info: OracleInfo | None = None
    name: str = "problem"
    _oracle_cache: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        x0 = as_point(self.x0, dim=self.family.dim, name="x0").copy()
        x0.flags.writeable = False
        object.__setattr__(self, "x0", x0)


def resolve_oracle(problem: Problem) -> OracleResult:
    """Ask the family for the point of Fix(T) nearest the anchor, memoized on
    the problem.  Only a problem that opts in through ``oracle_info`` is
    asked; the others raise ``ValueError``."""
    if problem._oracle_cache is not None:
        return problem._oracle_cache
    if problem.oracle_info is None:
        raise ValueError("problem carries no oracle data")
    result = problem.family.nearest_fixed_point(problem.x0)
    object.__setattr__(problem, "_oracle_cache", result)  # Problem is frozen
    return result


@dataclass
class RunRecord:
    """Per-iteration trace of a single solver run.

    Rows are recorded at stride ``record_every`` plus the final iterate; ``ks``
    is strictly increasing from 0.  ``alphas`` and ``batch_sizes`` hold the
    schedule values at each recorded ``k`` (for the final row these are the
    values a further step would use).  ``dist_sq`` and ``batch_dist_sq`` are
    present only when the problem carries oracle data; ``step_norms`` holds
    ``||x_{k+1} - x_k||`` (NaN on the final row, where no step was taken).
    """

    ks: np.ndarray
    alphas: np.ndarray
    batch_sizes: np.ndarray
    residuals: np.ndarray
    f0_values: np.ndarray
    dist_sq: np.ndarray | None
    batch_dist_sq: np.ndarray | None
    step_norms: np.ndarray
    final_point: np.ndarray

    def __post_init__(self):
        ks = np.asarray(self.ks)
        if ks.size == 0 or ks[0] != 0 or np.any(np.diff(ks) <= 0):
            raise ValueError("recorded ks must increase strictly from 0")
        if np.any(self.residuals < 0) or np.any(self.f0_values < 0):
            raise ValueError("residuals and f0 values must be nonnegative")


@dataclass
class EnsembleStats:
    """Monte-Carlo aggregates over trials ``0..trial_count-1`` of one configuration's master seed.

    Arrays are aligned with ``ks``.  ``f0gap_*`` is the signed gap
    ``mean f0(x_k) - f0_star`` when an oracle is available (raw ``f0``
    otherwise, with ``f0_star = 0``).  Standard errors use the unbiased
    sample variance across trials.
    """

    ks: np.ndarray
    alphas: np.ndarray
    batch_sizes: np.ndarray
    residual_mean: np.ndarray
    residual_se: np.ndarray
    f0gap_mean: np.ndarray
    f0gap_se: np.ndarray
    msq_dist_mean: np.ndarray | None
    msq_dist_se: np.ndarray | None
    batch_msq_mean: np.ndarray | None
    batch_msq_se: np.ndarray | None
    step_norm_mean: np.ndarray
    trial_count: int
    f0_star: float
    x_star: np.ndarray | None

    def __post_init__(self):
        if self.trial_count < 2:
            raise ValueError("standard errors require at least two trials")
