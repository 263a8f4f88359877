"""Property tests of the halfspace projection oracle (needs ``hypothesis``)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stochfp import Halfspace, ProjectionFamily  # noqa: E402


@st.composite
def instances(draw):
    """1-8 halfspaces in d=2-5 with positive offsets, so the origin is feasible."""
    dim = draw(st.integers(2, 5))
    count = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    normals = rng.standard_normal((count, dim))
    offsets = rng.uniform(0.05, 2.0, count)
    x0 = rng.uniform(-5.0, 5.0, dim)
    return normals, offsets, x0, rng


@settings(max_examples=200, deadline=None)
@given(instances())
def test_nearest_point_is_feasible_and_satisfies_variational_inequality(inst):
    normals, offsets, x0, rng = inst
    halfspaces = [Halfspace(a, b) for a, b in zip(normals, offsets)]
    x_star = ProjectionFamily(halfspaces).nearest_fixed_point(x0).x_star
    assert np.max(normals @ x_star - offsets) <= 1e-10
    # feasible samples: shrink points of a box towards the feasible origin
    ys = rng.uniform(-5.0, 5.0, (64, x0.size))
    worst = np.max((ys @ normals.T) / offsets, axis=1)
    ys /= np.maximum(worst, 1.0)[:, None]
    ys = np.vstack([ys, np.zeros(x0.size), x_star])
    assert np.max((ys - x_star) @ (x0 - x_star)) <= 1e-9
