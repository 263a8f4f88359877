import numpy as np
import pytest

from stochfp import (AveragedFamily, GradientFamily, Halfspace,
                     NonexpansivityError, ProjectionFamily, QuadraticTerm,
                     project_halfspace, random_quadratic_problem, resolve_oracle,
                     two_halfspace_problem)


def test_halfspace_rejects_zero_normal():
    with pytest.raises(ValueError):
        Halfspace(normal=np.zeros(3), offset=1.0)


@pytest.mark.parametrize("a, beta, x, expected", [
    ((1.0, 0.0), 0.0, (2.0, 3.0), (0.0, 3.0)),
    ((1.0, 0.0), 0.0, (-1.0, 5.0), (-1.0, 5.0)),
    ((1.0, 1.0), 0.0, (1.0, 1.0), (0.0, 0.0)),
])
def test_project_halfspace_examples(a, beta, x, expected):
    h = Halfspace(normal=np.array(a), offset=beta)
    np.testing.assert_allclose(project_halfspace(h, x), expected, atol=1e-15)


def test_projection_output_feasible_and_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rng.standard_normal(4)
        h = Halfspace(normal=a, offset=float(rng.uniform(-1, 1)))
        x = rng.standard_normal(4) * 5
        p = project_halfspace(h, x)
        assert h.contains(p, tol=1e-10)
        np.testing.assert_allclose(project_halfspace(h, p), p, atol=1e-14)


def test_projection_firm_nonexpansivity():
    rng = np.random.default_rng(4)
    for _ in range(500):
        a = rng.standard_normal(3)
        h = Halfspace(normal=a, offset=float(rng.uniform(-1, 1)))
        x = rng.standard_normal(3) * 4
        y = rng.standard_normal(3) * 4
        px, py = project_halfspace(h, x), project_halfspace(h, y)
        lhs = float(np.sum((px - py) ** 2))
        assert lhs <= float((px - py) @ (x - y)) + 1e-12


def test_projection_family_single_halfspace_is_projection():
    h = Halfspace(normal=np.array([1.0, 0.0]), offset=0.0)
    fam = ProjectionFamily([h])
    x = np.array([2.0, -1.0])
    np.testing.assert_allclose(fam.mean(x), project_halfspace(h, x))


def test_projection_family_two_corner_halfspaces():
    hs = [Halfspace(normal=np.array([1.0, 0.0]), offset=0.0),
          Halfspace(normal=np.array([0.0, 1.0]), offset=0.0)]
    fam = ProjectionFamily(hs)
    np.testing.assert_allclose(fam.mean([1.0, 1.0]), [0.5, 0.5])


def test_projection_family_fixes_intersection_points():
    hs = [Halfspace(normal=np.array([1.0, 0.0]), offset=0.0),
          Halfspace(normal=np.array([0.0, 1.0]), offset=0.0)]
    fam = ProjectionFamily(hs)
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = -np.abs(rng.standard_normal(2))  # inside both sets
        np.testing.assert_allclose(fam.mean(x), x, atol=1e-15)


def test_projection_family_rejects_bad_input():
    with pytest.raises(ValueError):
        ProjectionFamily([])
    with pytest.raises(ValueError):
        ProjectionFamily([
            Halfspace(normal=np.array([1.0]), offset=0.0),
            Halfspace(normal=np.array([1.0, 0.0]), offset=0.0),
        ])


def test_gradient_family_single_term_full_step():
    term = QuadraticTerm(A=np.array([[1.0]]), b=np.array([0.0]))
    fam = GradientFamily([term], eta=1.0)
    for x in ([-3.0], [0.0], [7.5]):
        np.testing.assert_allclose(fam.mean(x), [0.0], atol=1e-15)


def test_gradient_family_zero_step_is_identity():
    term = QuadraticTerm(A=np.array([[2.0, 0.0], [0.0, 1.0]]),
                         b=np.array([1.0, 1.0]))
    fam = GradientFamily([term], eta=0.0)
    x = np.array([0.3, -2.0])
    np.testing.assert_allclose(fam.mean(x), x)


def test_gradient_family_two_identity_terms():
    # terms A_i = I with distinct targets: the one-step map is constant and
    # the unique fixed point is the averaged target, which solves the
    # normal equations (sum A_i^T A_i) x = sum A_i^T b_i
    terms = [QuadraticTerm(A=np.eye(2), b=np.array([1.0, 0.0])),
             QuadraticTerm(A=np.eye(2), b=np.array([0.0, 1.0]))]
    fam = GradientFamily(terms, eta=1.0)
    rng = np.random.default_rng(0)
    expected = np.linalg.solve(2 * np.eye(2), np.array([1.0, 1.0]))
    for _ in range(5):
        x = rng.standard_normal(2) * 3
        np.testing.assert_allclose(fam.mean(x), expected, atol=1e-15)
    np.testing.assert_allclose(fam.mean(expected), expected, atol=1e-15)


def test_gradient_family_eta_too_large_rejected():
    term = QuadraticTerm(A=np.array([[2.0]]), b=np.array([0.0]))  # L = 4
    with pytest.raises(NonexpansivityError, match="nonexpansivity violated"):
        GradientFamily([term], eta=0.6)
    GradientFamily([term], eta=0.5)  # exactly 2/L is allowed


def test_gradient_family_auto_eta_componentwise_nonexpansive():
    rng = np.random.default_rng(9)
    terms = [QuadraticTerm(A=rng.standard_normal((4, 3)), b=rng.standard_normal(4))
             for _ in range(3)]
    fam = GradientFamily(terms, eta="auto")
    for _ in range(1000):
        x = rng.standard_normal(3) * 3
        y = rng.standard_normal(3) * 3
        vx, vy = fam.eval_all(x), fam.eval_all(y)
        norms = np.linalg.norm(vx - vy, axis=1)
        assert np.all(norms <= np.linalg.norm(x - y) + 1e-12)


def test_quadratic_term_rank_check():
    with pytest.raises(ValueError, match="full column rank"):
        QuadraticTerm(A=np.array([[1.0, 1.0], [1.0, 1.0]]), b=np.array([0.0, 0.0]))


def test_gradient_family_l_max_is_exact():
    terms = random_quadratic_problem(50, 10, 3).oracle_info.data
    fam = GradientFamily(terms)
    exact = max(np.linalg.norm(t.A, 2) ** 2 for t in terms)
    assert fam.l_max == pytest.approx(exact, rel=1e-13)
    assert fam.eta == 1.0 / fam.l_max


def test_gradient_family_rejects_eta_just_above_exact_bound():
    terms = random_quadratic_problem(50, 10, 3).oracle_info.data
    exact = max(np.linalg.norm(t.A, 2) ** 2 for t in terms)
    with pytest.raises(NonexpansivityError, match="nonexpansivity violated"):
        GradientFamily(terms, eta=(2.0 / exact) * (1.0 + 1e-12))


def _family_variance(family, x):
    values = family.eval_all(np.asarray(x, dtype=float))
    centered = values - values.mean(axis=0)
    return float(np.einsum("ij,ij->", centered, centered)) / family.n


@pytest.mark.parametrize("lam", [0.0, 0.25, 0.6, 1.0])
def test_averaged_family_endpoints_and_variance(lam):
    base = two_halfspace_problem().family
    avg = AveragedFamily(base, lam)
    rng = np.random.default_rng(21)
    for _ in range(50):
        x = rng.standard_normal(2) * 3
        base_vals = base.eval_all(x)
        avg_vals = avg.eval_all(x)
        np.testing.assert_allclose(avg_vals, lam * x + (1 - lam) * base_vals,
                                   rtol=1e-15, atol=1e-15)
        # exact algebraic identity over the finite family
        v_base = _family_variance(base, x)
        v_avg = _family_variance(avg, x)
        assert v_avg == pytest.approx((1 - lam) ** 2 * v_base, rel=1e-10, abs=1e-30)


def test_averaged_family_midpoint_example():
    from stochfp import CallableFamily
    fam = CallableFamily([lambda x: np.full(1, 2.0)], dim=1)
    avg = AveragedFamily(fam, 0.5)
    assert avg.component(1, [0.0])[0] == pytest.approx(1.0)


def test_averaged_lambda_out_of_range():
    base = two_halfspace_problem().family
    with pytest.raises(ValueError):
        AveragedFamily(base, -0.1)
    with pytest.raises(ValueError):
        AveragedFamily(base, 1.5)


def test_averaged_family_shares_fixed_points():
    problem = two_halfspace_problem()
    x_star = resolve_oracle(problem).x_star
    base_res = float(np.linalg.norm(x_star - problem.family.mean(x_star)))
    for lam in (0.25, 0.5, 0.75):
        avg = AveragedFamily(problem.family, lam)
        avg_res = float(np.linalg.norm(x_star - avg.mean(x_star)))
        assert avg_res <= (1 - lam) * base_res + 1e-12


@pytest.mark.parametrize("label", ["projection", "gradient", "blend"])
def test_weighted_mean_matches_componentwise_sum(label):
    # each family's stacked form, and its exact mean, against
    # sum_i W[t, j, i] * eval_all(X[t])[i]
    from stochfp import MappingFamily, random_halfspace_problem, random_quadratic_problem
    families = {
        "projection": lambda: random_halfspace_problem(30, 5, gen_seed=4).family,
        "gradient": lambda: random_quadratic_problem(9, 5, gen_seed=1).family,
        "blend": lambda: AveragedFamily(random_halfspace_problem(30, 5, gen_seed=4).family, 0.7),
    }
    fam = families[label]()
    rng = np.random.default_rng(8)
    X = rng.standard_normal((4, fam.dim)) * 3
    W = rng.random((4, 3, fam.n))
    W[:, 0] = 1.0 / fam.n
    got = fam.weighted_mean(X, W)
    expected = MappingFamily.weighted_mean(fam, X, W)
    assert got.shape == (4, 3, fam.dim)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
    for t in range(4):
        for value in (got[t, 0], fam.mean(X[t])):
            np.testing.assert_allclose(value, fam.eval_all(X[t]).mean(axis=0),
                                       rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("label", ["projection", "gradient", "callable", "blend"])
def test_sampled_mean_matches_count_weighted_mean(label):
    # the index form, and the generic one, against weighted_mean with
    # weights bincount(idx) / b
    from stochfp import (CallableFamily, MappingFamily, random_halfspace_problem,
                         random_quadratic_problem)
    halfspaces = random_halfspace_problem(30, 5, gen_seed=4).family
    families = {
        "projection": lambda: halfspaces,
        "gradient": lambda: random_quadratic_problem(9, 5, gen_seed=1).family,
        "callable": lambda: CallableFamily(
            [lambda x, i=i: halfspaces.component(i + 1, x) for i in range(6)], dim=5),
        "blend": lambda: AveragedFamily(halfspaces, 0.7),
    }
    fam = families[label]()
    rng = np.random.default_rng(8)
    X = rng.standard_normal((4, fam.dim)) * 3
    for b in (1, 4, fam.n - 1):
        idx = rng.integers(0, fam.n, (4, b))
        W = np.stack([np.bincount(row, minlength=fam.n) / b for row in idx])[:, None, :]
        got = fam.sampled_mean(X, idx)
        expected = fam.weighted_mean(X, W)[:, 0]
        assert got.shape == (4, fam.dim)
        for value in (got, MappingFamily.sampled_mean(fam, X, idx)):
            np.testing.assert_allclose(value, expected, rtol=1e-12,
                                       atol=1e-12 * np.abs(expected).max())
