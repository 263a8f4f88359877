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

Each gradient step is affine, ``T_i(x) = x - G_i x + h_i``, so the family
contracts its means instead of forming the ``(T, n, d)`` component values:
a weighted mean is ``x - (sum_i w_i G_i) x + sum_i w_i h_i``, one
``(T, n) x (n, d^2)`` matrix product and a mat-vec per point, and the exact
mean is ``x - G_bar x + h_bar`` with the averages precomputed, ``O(d^2)`` per
point whatever ``n`` is.  Its hook ``_affine`` returns the pairs
``(sum_i w_i G_i, sum_i w_i h_i)`` of a whole block's weight rows at once.
The projection family has no such form; its means cost ``O(n d)`` per point.
The lambda-averaging combinator blends any family with the identity,
which preserves the fixed point set and shrinks the componentwise spread
by a factor ``(1 - lambda)``, the factor it scales its base's weight rows by.

Each family answers ``nearest_fixed_point`` from the arrays it holds, by a
route independent of the solvers: a dual active-set projection onto the
halfspaces, the normal equations of the quadratic terms, and the base's
answer for a blend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import MappingFamily, OracleError, OracleResult, as_point

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
        offset = float(self.offset)
        if not np.isfinite(offset):
            raise ValueError(f"halfspace offset must be finite, got {offset}")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", offset)

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


def _orthogonal_part(Q: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``r`` and ``w`` with ``a = Q r + w`` and ``w`` orthogonal to ``Q``'s columns,
    projected twice: one pass leaves rounding in ``w`` that moves the tenhalf x* by 2.2e-16."""
    r = Q.T @ a
    w = a - Q @ r
    c = Q.T @ w
    return r + c, w - Q @ c


class ProjectionFamily(MappingFamily):
    """Family whose component ``i`` projects onto halfspace ``i``.

    The mean's fixed points are the intersection of the halfspaces whenever
    that intersection is nonempty (the caller is responsible for
    feasibility; the projection oracle detects empty intersections).
    """

    kind = "projection-mean"

    def __init__(self, halfspaces: Sequence[Halfspace]):
        if len(halfspaces) == 0:
            raise ValueError("need at least one halfspace")
        dim = halfspaces[0].dim
        for h in halfspaces:
            if h.dim != dim:
                raise ValueError("halfspaces have mixed dimensions")
        self._setup(np.stack([h.normal for h in halfspaces]),
                    np.array([h.offset for h in halfspaces]))

    @classmethod
    def from_arrays(cls, A, beta) -> ProjectionFamily:
        """The family of the halfspaces ``{x : A[i] @ x <= beta[i]}``, built
        without a :class:`Halfspace` per row.

        ``A`` is ``(n, d)`` with ``n, d >= 1`` and ``beta`` is ``(n,)``; every
        entry must be finite and no row of ``A`` zero.  The family keeps
        float64 copies of both, checked once as whole arrays.
        """
        family = cls.__new__(cls)
        family._setup(A, beta)
        return family

    def _setup(self, A, beta) -> None:
        """The one validation and storage path of both constructors."""
        A = np.array(A, dtype=np.float64)
        beta = np.array(beta, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
            raise ValueError(f"A must be an (n, d) array with n, d >= 1, got shape {A.shape}")
        if beta.shape != A.shape[:1]:
            raise ValueError(f"beta must have shape ({A.shape[0]},), got {beta.shape}")
        if not np.all(np.isfinite(A)):
            raise ValueError("normal contains non-finite coordinates")
        if not np.all(np.isfinite(beta)):
            raise ValueError("halfspace offset must be finite, "
                             f"got {beta[~np.isfinite(beta)][0]}")
        norm_sq = np.einsum("ij,ij->i", A, A)
        if not np.all(norm_sq > 0.0):
            raise ValueError("halfspace normal must be nonzero")
        super().__init__(dim=A.shape[1], n=A.shape[0])
        self._A = A
        self._beta = beta
        self._inv_norm_sq = 1.0 / norm_sq

    def eval_all(self, x: np.ndarray) -> np.ndarray:
        viol = self._A @ x - self._beta
        coef = np.maximum(viol, 0.0) * self._inv_norm_sq
        values = coef[:, None] * self._A
        return np.subtract(x[None, :], values, out=values)

    def weighted_mean(self, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        # (1 - sum_i w_i) x + sum_i w_i (x - c_i a_i) = x - (w * c) @ A,
        # without forming the (T, n, d) component values
        coef = np.maximum(X @ self._A.T - self._beta, 0.0) * self._inv_norm_sq
        return X - (W * coef) @ self._A

    def sampled_mean(self, X: np.ndarray, idx: np.ndarray) -> np.ndarray:
        # the same sum over the (T, b, d) drawn normals only
        A = self._A[idx]
        coef = (np.maximum((A @ X[:, :, None])[..., 0] - self._beta[idx], 0.0)
                * self._inv_norm_sq[idx])
        return X - (coef[:, None, :] @ A)[:, 0] / idx.shape[1]

    def nearest_fixed_point(self, x0) -> OracleResult:
        """Project ``x0`` onto the intersection by a dual active-set method.

        Goldfarb-Idnani with identity Hessian: from ``x = x0`` it enters the
        most violated constraint (violation scaled by ``||a_i||``) and moves
        along the part of its normal orthogonal to the active normals, until
        that constraint holds with equality (it joins the active set) or an
        active multiplier reaches zero (that constraint leaves).  The dual
        objective never decreases, so the method ends after finitely many
        steps at the exact nearest point, once no constraint is violated
        beyond a relative 1e-12; ``iterations`` counts the entries and exits.
        A step costs one ``A @ x`` plus a QR factorisation of at most ``d``
        active normals; no ``(n, n)`` matrix is formed.

        Raises :class:`OracleError` at the step that proves the intersection
        empty (the entering normal lies in the span of the active normals with
        no positive dual direction, a Farkas certificate), when the budget of
        ``10 * (n + d)`` steps runs out, or when the residual under the mean
        exceeds 1e-8.
        """
        A, beta = self._A, self._beta
        inv_norm = np.sqrt(self._inv_norm_sq)
        x = as_point(x0, dim=self.dim, name="x0").copy()
        active: list[int] = []
        u = np.zeros(0)                        # multipliers of the active constraints
        budget = 10 * (self.n + self.dim)
        p = None                               # the entering constraint
        for steps in range(budget + 1):
            if p is None:
                viol = (A @ x - beta) * inv_norm
                viol[active] = -np.inf
                p = int(np.argmax(viol))
                if viol[p] <= 1e-12 * (1.0 + np.sqrt(x @ x)):
                    break
                u_p = 0.0
            if steps == budget:
                raise OracleError(
                    f"active-set oracle did not finish within its budget of {budget} steps"
                )
            Q, R = np.linalg.qr(A[active].T)
            r, w = _orthogonal_part(Q, A[p])
            v = np.linalg.solve(R, r)          # active multipliers fall at rates v
            independent = np.sqrt(w @ w) * inv_norm[p] > 1e-12
            falling = v > 0.0
            if not (independent or np.any(falling)):
                raise OracleError(
                    f"halfspace {p} is violated on the span of the active halfspaces "
                    "with no positive dual direction: the intersection is empty"
                )
            # candidate step lengths: p holds with equality (entry 0, preferred on
            # ties), or the multiplier of active constraint j reaches 0 (entry j+1)
            t_add = max(float(A[p] @ x) - beta[p], 0.0) / (w @ w) if independent else np.inf
            lengths = np.append(t_add, np.where(falling, u, np.inf) / np.where(falling, v, 1.0))
            k = int(np.argmin(lengths))
            t = lengths[k]
            if independent:
                x -= t * w
            u = np.maximum(u - t * v, 0.0)
            u_p += t
            if k == 0:
                active.append(p)
                u = np.append(u, u_p)
                p = None
            else:
                del active[k - 1]
                u = np.delete(u, k - 1)
        residual = float(np.sqrt(np.sum((x - self.mean(x)) ** 2)))
        if residual > 1e-8:
            raise OracleError(
                f"projection oracle residual {residual:.3e} exceeds 1e-8; "
                "the intersection may be empty"
            )
        return OracleResult(x_star=x, residual_at_star=residual,
                            method="active_set", iterations=steps)


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
    :class:`NonexpansivityError`, and a negative or non-finite one
    ``ValueError``.
    """

    kind = "gradient-mean"

    def __init__(self, terms: Sequence[QuadraticTerm], eta="auto"):
        if len(terms) == 0:
            raise ValueError("need at least one term")
        dim = terms[0].dim
        for t in terms:
            if t.dim != dim:
                raise ValueError("terms have mixed dimensions")
        super().__init__(dim=dim, n=len(terms))
        grams = np.stack([t.A.T @ t.A for t in terms])
        rhs = np.stack([t.A.T @ t.b for t in terms])
        self.l_max = float(np.linalg.eigvalsh(grams)[:, -1].max())
        if eta == "auto":
            if self.l_max <= 0.0:
                raise ValueError("auto step requires a nonzero term")
            self.eta = 1.0 / self.l_max
        else:
            self.eta = float(eta)
            if not 0.0 <= self.eta < np.inf:
                raise ValueError(f"eta must be finite and nonnegative, got {eta!r}")
            if self.l_max > 0.0 and self.eta > 2.0 / self.l_max + 1e-15:
                raise NonexpansivityError(
                    f"nonexpansivity violated: eta={self.eta} exceeds "
                    f"2/L_max={2.0 / self.l_max}"
                )
        # stacked eta * A_i^T A_i and eta * A_i^T b_i, so each component is
        # T_i(x) = x - G_i x + h_i, and their means for the exact mean
        self._G = self.eta * grams
        self._h = self.eta * rhs
        self._G_flat = self._G.reshape(self.n, dim * dim)
        self._G_bar = self._G.mean(axis=0)
        self._h_bar = self._h.mean(axis=0)
        # the oracle's normal equations, unscaled: eta-scaled sums would move
        # x* in the last bits
        self._normal_equations = grams.sum(axis=0), rhs.sum(axis=0)

    def eval_all(self, x: np.ndarray) -> np.ndarray:
        return x[None, :] - np.einsum("nij,j->ni", self._G, x) + self._h

    def _affine(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # (1 - sum_i w_i) x + sum_i w_i (x - G_i x + h_i)
        # = x - (sum_i w_i G_i) x + sum_i w_i h_i: one (T, n) x (n, d^2)
        # product per (T, n) slice of a stack, never the (T, n, d) component values
        G = (W @ self._G_flat).reshape(*W.shape[:-1], self.dim, self.dim)
        return G, W @ self._h

    def weighted_mean(self, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        G, h = self._affine(W)
        return X - (G @ X[..., None])[..., 0] + h

    def _exact_mean(self, X: np.ndarray) -> np.ndarray:
        # the mean map is the affine x - G_bar x + h_bar: O(d^2) per point
        return X - X @ self._G_bar.T + self._h_bar

    def sampled_mean(self, X: np.ndarray, idx: np.ndarray) -> np.ndarray:
        # the drawn counts weight the contraction: at small n and d a
        # (T, b, d, d) gather of G costs more than the (T, n) x (n, d^2) product
        trials, b = idx.shape
        flat = (idx + self.n * np.arange(trials)[:, None]).ravel()
        counts = np.bincount(flat, minlength=trials * self.n).reshape(trials, self.n)
        return self.weighted_mean(X, counts / b)

    def nearest_fixed_point(self, x0) -> OracleResult:
        """Minimizer of the averaged objective by dense normal equations:
        with full-column-rank terms and ``eta > 0`` Fix(T) is that singleton,
        so it is the projection of any anchor.  At ``eta = 0`` every point is
        fixed and the minimizer is not the anchor's projection, so the query
        is refused."""
        as_point(x0, dim=self.dim, name="x0")
        if self.eta == 0.0:
            raise OracleError(
                "eta = 0 makes every component the identity, so every point is "
                "fixed and the normal-equation minimizer is not the nearest one")
        gram, rhs = self._normal_equations
        cond = float(np.linalg.cond(gram))
        try:
            x_star = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError as exc:
            raise OracleError(
                "normal equations are singular; the fixed point set is not a "
                "singleton - use the feasibility family instead"
            ) from exc
        rel_residual = float(np.linalg.norm(gram @ x_star - rhs)
                             / max(np.linalg.norm(rhs), 1.0))
        if rel_residual > 1e-10:
            raise OracleError(
                f"normal-equation relative residual {rel_residual:.3e} exceeds 1e-10 "
                "(badly conditioned system); use the feasibility family instead"
            )
        return OracleResult(x_star=x_star, residual_at_star=rel_residual,
                            method="normal_equations", condition=cond)


class AveragedFamily(MappingFamily):
    """Blend of a base family with the identity: ``T_i^lam = lam*Id + (1-lam)*T_i``.

    Shares the base family's fixed points, and so its oracle answer, and
    scales its componentwise variance by ``(1 - lam)^2``;
    ``stoch_halpern_lambda`` steps on it.  Its weighted means and
    ``_affine`` pairs are the base's on the rows ``(1 - lam) * W``, the
    identity taking the rest; only an index draw, which has no weight row,
    blends the base's sampled mean.
    """

    def __init__(self, base: MappingFamily, lam: float):
        if not 0.0 <= lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        super().__init__(dim=base.dim, n=base.n)
        self.base = base
        self.lam = float(lam)

    @property
    def kind(self) -> str:
        return self.base.kind

    def eval_all(self, x: np.ndarray) -> np.ndarray:
        return self.lam * x[None, :] + (1.0 - self.lam) * self.base.eval_all(x)

    def weighted_mean(self, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        return self.base.weighted_mean(X, (1.0 - self.lam) * W)

    def _affine(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        return self.base._affine((1.0 - self.lam) * W)

    def sampled_mean(self, X: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return self.lam * X + (1.0 - self.lam) * self.base.sampled_mean(X, idx)

    def nearest_fixed_point(self, x0) -> OracleResult:
        return self.base.nearest_fixed_point(x0)
