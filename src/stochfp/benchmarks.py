"""Benchmark problem constructors used by the shipped configs and the tests."""

from __future__ import annotations

import numpy as np

from .core import OracleInfo, Problem
from .mappings import GradientFamily, Halfspace, ProjectionFamily, QuadraticTerm

__all__ = [
    "two_halfspace_problem",
    "random_halfspace_problem",
    "random_quadratic_problem",
]


def _halfspace_problem(halfspaces, x0, name: str) -> Problem:
    """The projection family of ``halfspaces`` with its oracle opt-in."""
    halfspaces = tuple(halfspaces)
    return Problem(family=ProjectionFamily(halfspaces), x0=x0,
                   oracle_info=OracleInfo(halfspaces), name=name)


def two_halfspace_problem() -> Problem:
    """Canonical two-halfspace feasibility benchmark in the plane.

    The sets are ``{x1 <= 0}`` and ``{(x1 + x2)/sqrt(2) <= 0}`` (normals 45
    degrees apart) with anchor ``x0 = (1, 0)``; the nearest feasible point is
    the origin.  The oblique corner keeps the two projections well separated
    along the approach path, so single-sample runs exhibit a clearly visible
    noise floor.
    """
    s = np.sqrt(0.5)
    halfspaces = (
        Halfspace(normal=np.array([1.0, 0.0]), offset=0.0),
        Halfspace(normal=np.array([s, s]), offset=0.0),
    )
    return _halfspace_problem(halfspaces, np.array([1.0, 0.0]), "two_halfspace")


def random_halfspace_problem(n: int, dim: int, gen_seed: int,
                             anchor_scale: float = 2.0) -> Problem:
    """Random feasibility instance with a guaranteed interior point.

    Normals are unit Gaussian directions; offsets are drawn from
    ``U[0.2, 1.0]`` so the origin lies strictly inside every halfspace.  The
    anchor is ``anchor_scale * (1, ..., 1)``, generally infeasible.
    """
    rng = np.random.default_rng(gen_seed)
    halfspaces = []
    for _ in range(n):
        a = rng.standard_normal(dim)
        a /= np.linalg.norm(a)
        halfspaces.append(Halfspace(normal=a, offset=float(rng.uniform(0.2, 1.0))))
    return _halfspace_problem(halfspaces, np.full(dim, float(anchor_scale)),
                              f"halfspaces_n{n}_d{dim}")


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
