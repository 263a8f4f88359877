"""Built-in nonexpansive mapping families.

Two constructions are provided:

* projection means — each component is the metric projection onto a
  halfspace, so the mean's fixed points are exactly the intersection of the
  halfspaces (when nonempty);
* gradient-step means — each component is ``Id - eta * grad f_i`` for a
  quadratic least-squares term ``f_i(x) = (1/2)||A_i x - b_i||^2``, so the
  mean's fixed points are the minimizers of the averaged objective.

Both are nonexpansive componentwise: halfspace projections are firmly
nonexpansive, and the gradient steps are nonexpansive whenever
``eta <= 2 / L_i`` with ``L_i`` the largest eigenvalue of ``A_i^T A_i``.
:class:`GradientFamily` computes ``L_max = max_i L_i`` exactly, by one
batched eigensolve, and rejects any ``eta`` above ``2 / L_max``.
The lambda-averaging combinator blends any family with the identity,
which preserves the fixed point set and shrinks the componentwise spread
by a factor ``(1 - lambda)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import MappingFamily, as_point

__all__ = [
    "NonexpansivityError",
    "Halfspace",
    "project_halfspace",
    "ProjectionFamily",
    "QuadraticTerm",
    "GradientFamily",
    "AveragedFamily",
]


class NonexpansivityError(ValueError):
    """Requested parameters would break componentwise nonexpansivity."""


@dataclass(frozen=True)
class Halfspace:
    """The set ``{x : <normal, x> <= offset}``."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = as_point(self.normal, name="normal")
        if float(n @ n) == 0.0:
            raise ValueError("halfspace normal must be nonzero")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dim(self) -> int:
        return self.normal.size

    def contains(self, x, tol: float = 0.0) -> bool:
        return float(self.normal @ as_point(x, dim=self.dim)) <= self.offset + tol


def project_halfspace(h: Halfspace, x) -> np.ndarray:
    """Metric projection onto a halfspace.

    Returns ``x`` unchanged when it already satisfies the constraint;
    otherwise drops it orthogonally onto the boundary hyperplane:
    ``x - max(0, <a,x> - beta) / ||a||^2 * a``.
    """
    xa = as_point(x, dim=h.dim)
    a = h.normal
    viol = float(a @ xa) - h.offset
    if viol <= 0.0:
        return xa.copy()
    return xa - (viol / float(a @ a)) * a


class ProjectionFamily(MappingFamily):
    """Family whose component ``i`` projects onto halfspace ``i``.

    The mean's fixed points are the intersection of the halfspaces whenever
    that intersection is nonempty (the caller is responsible for
    feasibility; the projection oracle detects empty intersections).
    """

    def __init__(self, halfspaces: Sequence[Halfspace]):
        if len(halfspaces) == 0:
            raise ValueError("need at least one halfspace")
        dim = halfspaces[0].dim
        for h in halfspaces:
            if h.dim != dim:
                raise ValueError("halfspaces have mixed dimensions")
        super().__init__(dim=dim, n=len(halfspaces), kind="projection-mean")
        self.halfspaces = tuple(halfspaces)
        self._A = np.stack([h.normal for h in halfspaces])
        self._beta = np.array([h.offset for h in halfspaces])
        self._inv_norm_sq = 1.0 / np.einsum("ij,ij->i", self._A, self._A)

    def eval_all(self, x: np.ndarray) -> np.ndarray:
        viol = self._A @ x - self._beta
        coef = np.maximum(viol, 0.0) * self._inv_norm_sq
        return x[None, :] - coef[:, None] * self._A

    def weighted_mean(self, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        return self._weighted_mean(X, W, W.sum(axis=-1))

    def _weighted_mean(self, X: np.ndarray, W: np.ndarray, wsum: np.ndarray) -> np.ndarray:
        # sum_i w_i (x - c_i a_i) = (sum_i w_i) x - (w * c) @ A, without
        # forming the (T, n, d) component values
        coef = np.maximum(X @ self._A.T - self._beta, 0.0) * self._inv_norm_sq
        return wsum[:, :, None] * X[:, None, :] - (W * coef[:, None, :]) @ self._A

    def sampled_mean(self, X: np.ndarray, idx: np.ndarray) -> np.ndarray:
        # the same sum over the (T, b, d) drawn normals only
        A = self._A[idx]
        coef = (np.maximum((A @ X[:, :, None])[..., 0] - self._beta[idx], 0.0)
                * self._inv_norm_sq[idx])
        return X - (coef[:, None, :] @ A)[:, 0] / idx.shape[1]


@dataclass(frozen=True)
class QuadraticTerm:
    """Least-squares term ``f(x) = (1/2)||A x - b||^2`` with gradient ``A^T(Ax - b)``.

    ``A`` must have full column rank (smallest singular value above 1e-10),
    so the averaged objective has a unique minimizer and the quadratic
    oracle's fixed point set is a singleton.
    """

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.size:
            raise ValueError("A must be (m, d) and b must be length m")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("term data must be finite")
        smin = np.linalg.svd(A, compute_uv=False).min() if A.shape[0] >= A.shape[1] else 0.0
        if smin <= 1e-10:
            raise ValueError(
                "A must have full column rank (smallest singular value > 1e-10) "
                "for the singleton-oracle problem"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.A.shape[1]


class GradientFamily(MappingFamily):
    """Family of gradient steps ``T_i = Id - eta * grad f_i`` on quadratic terms.

    ``l_max = max_i lambda_max(A_i^T A_i)`` comes from one batched symmetric
    eigensolve, exact to rounding.  ``eta="auto"`` resolves to ``1 / l_max``,
    a safety margin inside the nonexpansivity region ``eta <= 2 / l_max``;
    an explicit ``eta`` above ``2 / l_max`` raises
    :class:`NonexpansivityError`, and a negative one ``ValueError``.
    """

    def __init__(self, terms: Sequence[QuadraticTerm], eta="auto"):
        if len(terms) == 0:
            raise ValueError("need at least one term")
        dim = terms[0].dim
        for t in terms:
            if t.dim != dim:
                raise ValueError("terms have mixed dimensions")
        super().__init__(dim=dim, n=len(terms), kind="gradient-mean")
        self.terms = tuple(terms)
        grams = np.stack([t.A.T @ t.A for t in terms])
        self.l_max = float(np.linalg.eigvalsh(grams)[:, -1].max())
        if eta == "auto":
            if self.l_max <= 0.0:
                raise ValueError("auto step requires a nonzero term")
            self.eta = 1.0 / self.l_max
        else:
            self.eta = float(eta)
            if self.eta < 0.0:
                raise ValueError("eta must be nonnegative")
            if self.l_max > 0.0 and self.eta > 2.0 / self.l_max + 1e-15:
                raise NonexpansivityError(
                    f"nonexpansivity violated: eta={self.eta} exceeds "
                    f"2/L_max={2.0 / self.l_max}"
                )
        # stacked eta * A_i^T A_i and eta * A_i^T b_i, so each component is
        # T_i(x) = x - G_i x + h_i
        self._G = self.eta * grams
        self._h = self.eta * np.stack([t.A.T @ t.b for t in terms])
        self._G_rows = self._G.reshape(-1, dim)  # row i*d + r holds row r of G_i

    def eval_all(self, x: np.ndarray) -> np.ndarray:
        return x[None, :] - np.einsum("nij,j->ni", self._G, x) + self._h

    def weighted_mean(self, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        # the (T, n, d) component values X - G_i X + h_i, from one matrix
        # product and built in place (einsum and fresh temporaries cost more)
        values = (X @ self._G_rows.T).reshape(X.shape[0], self.n, self.dim)
        np.subtract(X[:, None, :], values, out=values)
        values += self._h
        return W @ values

    def sampled_mean(self, X: np.ndarray, idx: np.ndarray) -> np.ndarray:
        # the drawn counts weight the dense product: at small n and d a
        # (T, b, d, d) gather of G costs more than it
        trials, b = idx.shape
        flat = (idx + self.n * np.arange(trials)[:, None]).ravel()
        counts = np.bincount(flat, minlength=trials * self.n).reshape(trials, 1, self.n)
        return self.weighted_mean(X, counts / b)[:, 0]


class AveragedFamily(MappingFamily):
    """Blend of a base family with the identity: ``T_i^lam = lam*Id + (1-lam)*T_i``.

    Shares the base family's fixed points and scales its componentwise
    variance by ``(1 - lam)^2``.  This is the one place the identity blend is
    written: ``stoch_halpern_lambda`` runs the anchored iteration on it.
    """

    def __init__(self, base: MappingFamily, lam: float):
        if not 0.0 <= lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        super().__init__(dim=base.dim, n=base.n, kind=base.kind)
        self.base = base
        self.lam = float(lam)

    def eval_all(self, x: np.ndarray) -> np.ndarray:
        return self.lam * x[None, :] + (1.0 - self.lam) * self.base.eval_all(x)

    def weighted_mean(self, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        return self._weighted_mean(X, W, W.sum(axis=-1))

    def _weighted_mean(self, X: np.ndarray, W: np.ndarray, wsum: np.ndarray) -> np.ndarray:
        base = self.base._weighted_mean(X, W, wsum)
        return self.lam * wsum[:, :, None] * X[:, None, :] + (1.0 - self.lam) * base

    def sampled_mean(self, X: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return self.lam * X + (1.0 - self.lam) * self.base.sampled_mean(X, idx)
