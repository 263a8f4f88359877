"""Output checks applied to every benchmark run of ``stochfp run``.

Each check returns a list of problems; an empty list means the output
passed.  The references are computed here, independently of the solvers and
oracles of the package under test.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np

# The trace CSV header that the README documents as the output contract.
CSV_HEADER = ("k,alpha,batch,residual_mean,residual_se,"
              "f0gap_mean,f0gap_se,msq_dist_mean,msq_dist_se")

X_STAR_TOL = 1e-8
FEASIBILITY_TOL = 1e-8


def expected_ks(iterations: int, record_every: int) -> np.ndarray:
    """Recorded iterations: every ``record_every``-th below K, then K itself."""
    return np.append(np.arange(0, iterations, record_every), iterations)


def read_trace(path: str) -> tuple[str, np.ndarray]:
    """Header line and the float table of a trace CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    width = len(CSV_HEADER.split(","))
    if any(len(r) != width for r in rows):
        raise ValueError(f"a row does not have {width} fields")
    return header, np.array(rows, dtype=float).reshape(len(rows), width)


def check_trace(path: str, iterations: int,
                record_every: int) -> tuple[list[str], np.ndarray | None]:
    """Header, row grid and finiteness of a trace CSV; returns (problems, table)."""
    try:
        header, table = read_trace(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable trace {path}: {exc}"], None
    problems = []
    if header != CSV_HEADER:
        problems.append(f"trace header is {header!r}")
    ks = expected_ks(iterations, record_every)
    if table.shape[0] != ks.size:
        problems.append(f"trace has {table.shape[0]} rows, expected {ks.size}")
    elif not np.array_equal(table[:, 0], ks):
        problems.append("trace k column is not the recording grid")
    if not np.all(np.isfinite(table)):
        problems.append("trace holds non-finite values")
    return problems, table


def check_descent(table: np.ndarray) -> list[str]:
    """Mean squared distance to x* at K must be below its value at k=0."""
    msq = table[:, CSV_HEADER.split(",").index("msq_dist_mean")]
    if not msq[-1] < msq[0]:
        return [f"msq_dist_mean at K ({msq[-1]:.6g}) is not below k=0 ({msq[0]:.6g})"]
    return []


def check_criterion4(table: np.ndarray) -> list[str]:
    """The acceptance suite's criterion-4 ratios between k=100 and k=K."""
    cols = CSV_HEADER.split(",")
    ks = table[:, 0]
    i100 = int(np.searchsorted(ks, 100))
    if i100 >= ks.size or ks[i100] != 100:
        return ["k=100 is not recorded, criterion 4 cannot be checked"]
    msq = table[:, cols.index("msq_dist_mean")]
    res = table[:, cols.index("residual_mean")]
    problems = []
    if not msq[-1] / msq[i100] <= 0.10:
        problems.append(f"criterion 4: msq ratio {msq[-1] / msq[i100]:.4f} > 0.10")
    if not res[-1] / res[i100] <= 0.2:
        problems.append(f"criterion 4: residual ratio {res[-1] / res[i100]:.4f} > 0.2")
    return problems


def read_x_star(summary_path: str) -> np.ndarray:
    """The oracle point printed on the summary's ``x_star:`` line."""
    with open(summary_path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.strip().partition(":")
            if key == "x_star":
                return np.array(value.strip().strip("[]").split(), dtype=float)
    raise ValueError("summary has no x_star line")


def nearest_point_halfspaces(A: np.ndarray, beta: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Projection of ``x0`` onto ``{x : A x <= beta}`` by active-set enumeration.

    Tries every subset of constraints as the active set, projects ``x0`` onto
    that affine set, and keeps the nearest feasible candidate.  Exponential in
    the number of halfspaces, so only for small instances (n <= 12).
    """
    n = A.shape[0]
    if n > 12:
        raise ValueError("active-set enumeration is limited to 12 halfspaces")
    best, best_dist = None, math.inf
    for size in range(n + 1):
        for active in itertools.combinations(range(n), size):
            if active:
                Aa, ba = A[list(active)], beta[list(active)]
                lam = np.linalg.lstsq(Aa @ Aa.T, Aa @ x0 - ba, rcond=None)[0]
                x = x0 - Aa.T @ lam
            else:
                x = x0.copy()
            if np.max(A @ x - beta) <= 1e-12:
                dist = float(np.sum((x - x0) ** 2))
                if dist < best_dist:
                    best, best_dist = x, dist
    if best is None:
        raise ValueError("no feasible active set: the intersection is empty")
    return best


def check_x_star(x_star: np.ndarray, reference: dict) -> list[str]:
    """Compare the summary's oracle point with the benchmark's own reference.

    ``reference`` holds ``point`` (an exact reference point) or ``A``,
    ``beta`` and ``x0`` (a large halfspace system: x* must be feasible and no
    farther from ``x0`` than the known feasible point ``feasible``).
    """
    if "point" in reference:
        ref = reference["point"]
        if x_star.shape != ref.shape:
            return [f"x_star has shape {x_star.shape}, reference {ref.shape}"]
        err = float(np.max(np.abs(x_star - ref)))
        tol = X_STAR_TOL * max(1.0, float(np.max(np.abs(ref))))
        return [] if err <= tol else [f"x_star differs from the reference by {err:.3e}"]
    A, beta, x0 = reference["A"], reference["beta"], reference["x0"]
    problems = []
    viol = float(np.max(A @ x_star - beta))
    if viol > FEASIBILITY_TOL:
        problems.append(f"x_star violates a halfspace by {viol:.3e}")
    feasible = reference["feasible"]
    if np.linalg.norm(x_star - x0) > np.linalg.norm(feasible - x0) + FEASIBILITY_TOL:
        problems.append("x_star is farther from x0 than a known feasible point")
    return problems


def digest(path: str) -> str:
    """SHA-256 of a file's bytes."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
