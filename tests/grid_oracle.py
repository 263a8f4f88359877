"""Brute-force grid projection: a test-only second opinion for the oracles.

Never used in production code; agreement with the active-set projection oracle
is what certifies both.
"""

import numpy as np


def grid_project(halfspaces, x0, half_width=2.5, points=81, stages=4,
                 feas_tol=1e-9):
    """Project ``x0`` onto a 2-D halfspace intersection by refined grid search.

    Scans a square grid around the current best point, keeps the feasible
    point nearest ``x0``, then shrinks the window around it.  Final
    resolution is ``half_width * (4 / (points - 1))^stages``-ish, well below
    1e-3 for the defaults.
    """
    x0 = np.asarray(x0, dtype=float)
    assert x0.size == 2, "grid oracle is 2-D only"
    A = np.stack([h.normal for h in halfspaces])
    beta = np.array([h.offset for h in halfspaces])
    center = x0.copy()
    half = float(half_width)
    best = None
    for _ in range(stages):
        xs = np.linspace(center[0] - half, center[0] + half, points)
        ys = np.linspace(center[1] - half, center[1] + half, points)
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        feasible = np.all(pts @ A.T <= beta + feas_tol, axis=1)
        assert feasible.any(), "grid window contains no feasible point"
        cand = pts[feasible]
        dists = np.einsum("ij,ij->i", cand - x0, cand - x0)
        best = cand[np.argmin(dists)]
        center = best
        # keep a couple of grid cells of slack around the winner
        half = 4.0 * (2.0 * half / (points - 1))
    return best
