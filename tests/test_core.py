import numpy as np
import pytest

from stochfp import (CallableFamily, DimensionMismatchError, as_point,
                     f0_value, GradientFamily, ProjectionFamily,
                     two_halfspace_problem, random_quadratic_problem,
                     Halfspace, QuadraticTerm)


def test_as_point_rejects_bad_input():
    with pytest.raises(ValueError):
        as_point([1.0, np.nan])
    with pytest.raises(ValueError):
        as_point([])
    with pytest.raises(DimensionMismatchError):
        as_point([1.0, 2.0], dim=3)
    with pytest.raises(ValueError):
        as_point([[1.0, 2.0]])


@pytest.mark.parametrize("x0, x, expected", [
    ((0.0, 0.0), (0.0, 0.0), 0.0),
    ((0.0, 0.0), (3.0, 4.0), 12.5),
    ((1.0, 0.0), (1.0, 2.0), 2.0),
])
def test_f0_value_examples(x0, x, expected):
    assert f0_value(x, x0) == pytest.approx(expected, abs=0.0)


def test_f0_value_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        f0_value([1.0, 2.0], [1.0, 2.0, 3.0])


def test_f0_value_identity_case():
    x = np.array([0.3, -1.2, 4.0])
    assert f0_value(x, x) == 0.0


def test_f0_convex_along_segments():
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal(5)
    for _ in range(200):
        x = rng.standard_normal(5) * 3
        y = rng.standard_normal(5) * 3
        mid = f0_value((x + y) / 2, x0)
        assert mid <= (f0_value(x, x0) + f0_value(y, x0)) / 2 + 1e-12


def _interval_family():
    # d=1: projection onto (-inf, 0] and onto [1, inf)
    comps = [
        lambda x: np.minimum(x, 0.0),
        lambda x: np.maximum(x, 1.0),
    ]
    return CallableFamily(comps, dim=1)


def test_exact_mean_identical_components():
    f = CallableFamily([lambda x: 2.0 * x] * 3, dim=2)
    x = np.array([0.7, -0.3])
    np.testing.assert_allclose(f.mean(x), 2.0 * x, rtol=1e-15)


def test_exact_mean_interval_projections():
    fam = _interval_family()
    assert fam.mean([0.5])[0] == pytest.approx(0.5)  # mean of 0 and 1
    assert fam.mean([2.0])[0] == pytest.approx(1.0)  # mean of 0 and 2


def test_exact_mean_dimension_mismatch():
    fam = _interval_family()
    with pytest.raises(DimensionMismatchError):
        fam.mean([1.0, 2.0])


def test_component_is_one_based():
    fam = _interval_family()
    assert fam.component(1, [0.5])[0] == 0.0
    assert fam.component(2, [0.5])[0] == 1.0
    with pytest.raises(IndexError):
        fam.component(0, [0.5])
    with pytest.raises(IndexError):
        fam.component(3, [0.5])


def _builtin_families():
    rng = np.random.default_rng(5)
    yield "two_halfspace", two_halfspace_problem().family
    halfspaces = []
    for _ in range(6):
        a = rng.standard_normal(4)
        halfspaces.append(Halfspace(normal=a / np.linalg.norm(a),
                                    offset=float(rng.uniform(-0.5, 0.5))))
    yield "projection_6x4", ProjectionFamily(halfspaces)
    terms = [QuadraticTerm(A=rng.standard_normal((5, 3)), b=rng.standard_normal(5))
             for _ in range(4)]
    yield "gradient_4x3", GradientFamily(terms, eta="auto")
    yield "quadratic_bench", random_quadratic_problem(12, 6, gen_seed=2).family


@pytest.mark.parametrize("label, family",
                         list(_builtin_families()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_mean_nonexpansivity_random_pairs(label, family):
    rng = np.random.default_rng(17)
    d = family.dim
    for _ in range(1000):
        x = rng.standard_normal(d) * 3
        y = rng.standard_normal(d) * 3
        tx = family.mean(x)
        ty = family.mean(y)
        assert np.linalg.norm(tx - ty) <= np.linalg.norm(x - y) + 1e-12
