"""Benchmark problem constructors used by the shipped configs and the tests."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .core import OracleInfo, Problem
from .mappings import GradientFamily, Halfspace, ProjectionFamily, QuadraticTerm

__all__ = [
    "two_halfspace_problem",
    "random_halfspace_problem",
    "random_quadratic_problem",
]


class _HalfspaceRows(Sequence):
    """The rows of a projection family as :class:`Halfspace` values, each made
    only when it is read, over the family's own arrays.

    It is the ``OracleInfo.data`` of a halfspace problem, read only by the
    tests and by the reference point ``perfbench/workloads.py`` computes
    without the package; the run path never reads it.  It goes once
    perfbench reads the family's arrays (ROADMAP, item 6).
    """

    def __init__(self, family: ProjectionFamily):
        self._family = family

    def __len__(self) -> int:
        return self._family.n

    def __getitem__(self, i: int) -> Halfspace:
        i = range(self._family.n)[i]  # negative from the end, IndexError past it
        return Halfspace(normal=self._family._A[i].copy(), offset=self._family._beta[i])


def _halfspace_problem(family: ProjectionFamily, x0, name: str) -> Problem:
    """The projection family with its oracle opt-in."""
    return Problem(family=family, x0=x0, oracle_info=OracleInfo(_HalfspaceRows(family)),
                   name=name)


def two_halfspace_problem() -> Problem:
    """Canonical two-halfspace feasibility benchmark in the plane.

    The sets are ``{x1 <= 0}`` and ``{(x1 + x2)/sqrt(2) <= 0}`` (normals 45
    degrees apart) with anchor ``x0 = (1, 0)``; the nearest feasible point is
    the origin.  The oblique corner keeps the two projections well separated
    along the approach path, so single-sample runs exhibit a clearly visible
    noise floor.
    """
    s = np.sqrt(0.5)
    family = ProjectionFamily.from_arrays([[1.0, 0.0], [s, s]], [0.0, 0.0])
    return _halfspace_problem(family, np.array([1.0, 0.0]), "two_halfspace")


def random_halfspace_problem(n: int, dim: int, gen_seed: int,
                             anchor_scale: float = 2.0) -> Problem:
    """Random feasibility instance with a guaranteed interior point.

    Normals are unit Gaussian directions; offsets are drawn from
    ``U[0.2, 1.0]`` so the origin lies strictly inside every halfspace.  The
    anchor is ``anchor_scale * (1, ..., 1)``, generally infeasible.  Each
    row draws its normal and then its offset, the order that fixes every
    instance, and the rows are normalised in one pass: the stacked products
    ``a @ a`` equal the per-row dot products of ``np.linalg.norm`` bit for
    bit, where a row-wise ``einsum`` differs in the last bit.
    """
    rng = np.random.default_rng(gen_seed)
    A = np.empty((n, dim))
    beta = np.empty(n)
    for i in range(n):
        rng.standard_normal(out=A[i])
        beta[i] = rng.uniform(0.2, 1.0)
    A /= np.sqrt((A[:, None, :] @ A[:, :, None])[:, 0])
    return _halfspace_problem(ProjectionFamily.from_arrays(A, beta),
                              np.full(dim, float(anchor_scale)), f"halfspaces_n{n}_d{dim}")


def random_quadratic_problem(n: int, dim: int, gen_seed: int,
                             sv_range: tuple[float, float] = (0.7, 1.0),
                             eta="auto") -> Problem:
    """Random least-squares family with controlled conditioning.

    Each term matrix is built from two Haar-orthogonal factors and singular
    values drawn from ``sv_range``, keeping every ``A_i^T A_i`` well
    conditioned; targets ``b_i`` are standard Gaussian.  The anchor is the
    origin, so the anchored objective at the start is exactly zero and the
    limit point is the unique minimizer of the averaged objective.  ``eta``
    is passed to :class:`GradientFamily`; ``gen_seed`` alone fixes the
    instance.
    """
    lo, hi = sv_range
    if not 0.0 < lo <= hi:
        raise ValueError("singular value range must satisfy 0 < lo <= hi")
    rng = np.random.default_rng(gen_seed)
    terms = []
    for _ in range(n):
        q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        sv = rng.uniform(lo, hi, size=dim)
        terms.append(QuadraticTerm(A=q1 @ np.diag(sv) @ q2.T,
                                   b=rng.standard_normal(dim)))
    terms = tuple(terms)
    return Problem(
        family=GradientFamily(terms, eta=eta),
        x0=np.zeros(dim),
        oracle_info=OracleInfo(terms),
        name=f"quadratic_n{n}_d{dim}",
    )
