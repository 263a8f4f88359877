"""Mapping families: projections, gradient steps, and identity blending.

Builds the two built-in family kinds (``ProjectionFamily`` and
``GradientFamily``, whose ``l_max`` is exact), evaluates the exact mean with
``family.mean``, checks contraction behaviour on random pairs, and shows the
exact variance scaling of ``AveragedFamily``, the blend that
``stoch_halpern_lambda`` runs on.
"""

import numpy as np

from stochfp import (AveragedFamily, GradientFamily, Halfspace, ProjectionFamily,
                     QuadraticTerm, project_halfspace)

rng = np.random.default_rng(0)

print("== halfspace projections ==")
h = Halfspace(normal=np.array([1.0, 1.0]), offset=0.0)
for x in ([1.0, 1.0], [-2.0, 0.5], [3.0, -1.0]):
    print(f"  P({x}) = {project_halfspace(h, x)}")

print("\n== mean-of-projections family ==")
family = ProjectionFamily([
    Halfspace(normal=np.array([1.0, 0.0]), offset=0.0),
    Halfspace(normal=np.array([0.0, 1.0]), offset=0.0),
])
x = np.array([1.0, 1.0])
print(f"  T((1,1)) = {family.mean(x)}   (average of the two projections)")
print(f"  T((-1,-1)) = {family.mean([-1.0, -1.0])}   (fixed: inside both sets)")

worst = 0.0
for _ in range(2000):
    a, b = rng.standard_normal(2) * 3, rng.standard_normal(2) * 3
    lhs = np.linalg.norm(family.mean(a) - family.mean(b))
    worst = max(worst, lhs / np.linalg.norm(a - b))
print(f"  worst contraction ratio over 2000 random pairs: {worst:.6f} (<= 1)")

print("\n== gradient-step family on least-squares terms ==")
terms = [QuadraticTerm(A=rng.standard_normal((4, 3)), b=rng.standard_normal(4))
         for _ in range(5)]
grad_family = GradientFamily(terms, eta="auto")
print(f"  auto step eta = {grad_family.eta:.6f}  (1/L_max, L_max = {grad_family.l_max:.4f})")
worst = 0.0
for _ in range(2000):
    a, b = rng.standard_normal(3) * 3, rng.standard_normal(3) * 3
    va, vb = grad_family.eval_all(a), grad_family.eval_all(b)
    worst = max(worst, np.linalg.norm(va - vb, axis=1).max() / np.linalg.norm(a - b))
print(f"  worst componentwise ratio over 2000 pairs: {worst:.6f} (<= 1)")

print("\n== identity blending shrinks the spread ==")
x = np.array([0.8, 0.3])
vals = family.eval_all(x)
base_var = float(np.sum((vals - vals.mean(0)) ** 2)) / family.n
for lam in (0.0, 0.25, 0.5, 0.75):
    blended = AveragedFamily(family, lam)
    bvals = blended.eval_all(x)
    var = float(np.sum((bvals - bvals.mean(0)) ** 2)) / family.n
    print(f"  lambda={lam:4.2f}: variance {var:.6f} = (1-lambda)^2 * {base_var:.6f}"
          f" -> factor {var / base_var if base_var else 0.0:.4f}")
