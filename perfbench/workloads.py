"""The four benchmark workloads and the reference each output is checked against.

A workload is a list of jobs; one work unit runs every job once, each as its
own ``stochfp run`` child process, one after another (a closed loop of one
client).  The workload seed reaches the program only as the master trial
seed (``--seed``); problem-generator seeds stay fixed because they define
the instance.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import gate

# Shipped configs swept by cli_sweep: all but twohalf_a05, whose 10^4-step,
# 100-trial run repeats the shape of twohalf_ensemble at 44 s.
SHIPPED_CONFIGS = (
    "quad_halpern", "quad_km", "quad_lambda", "quad_stoch_halpern", "quad_stoch_km",
    "tenhalf_halpern", "tenhalf_km", "tenhalf_lambda", "tenhalf_stoch_halpern",
    "tenhalf_stoch_km",
    "twohalf_halpern", "twohalf_km", "twohalf_lambda", "twohalf_stoch_km",
)

_TWO_HALFSPACES = """\
kind = halfspaces
x0 = 1 0
halfspace = 1 0 ; 0
halfspace = 0.7071067811865476 0.7071067811865476 ; 0
"""

# name -> (problem, method, step, batch, [run] keys); the [run] seed is
# replaced by the workload seed on the command line.
GENERATED = {
    "twohalf_ensemble": (
        _TWO_HALFSPACES,
        "name = stoch_halpern\n",
        "kind = poly\na = 0.5\n",
        "kind = exponential\nb0 = 4\ndelta = 1.01\ncap = 65536\n",
        "iterations = 10000\nrecord_every = 1\ntrials = 4\n",
    ),
    "quad_lambda_ensemble": (
        "kind = quadratic\nn = 50\ndim = 10\ngen_seed = 3\n",
        "name = stoch_halpern_lambda\nlambda = 0.75\n",
        "kind = lambda_poly\na = 0.5\nlambda = 0.75\n",
        "kind = exponential\nb0 = 256\ndelta = 1.05\ncap = 65536\n",
        "iterations = 10000\nrecord_every = 1\ntrials = 3\n",
    ),
    "wide_halfspace": (
        "kind = random_halfspaces\nn = 2000\ndim = 20\ngen_seed = 7\n",
        "name = stoch_halpern\n",
        "kind = poly\na = 0.5\n",
        "kind = exponential\nb0 = 8\ndelta = 1.01\ncap = 64\n",
        "iterations = 3000\nrecord_every = 100\ntrials = 2\n",
    ),
}

WHY = {
    "twohalf_ensemble": (
        "criterion-4 shape, n=d=2, K=1e4, record_every=1: per-iteration RNG "
        "construction, schedule calls, recording and aggregation dominate, not eval_all"),
    "quad_lambda_ensemble": (
        "criterion-7 shape, quadratic n=50 d=10, identity blend, b_k>=256>>n, "
        "record_every=1: dense einsum eval; sparse mini-batch evaluation should not move it"),
    "wide_halfspace": (
        "halfspaces n=2000 d=20 gen_seed 7, b_k<=64: full-row eval_all and the n-way multinomial "
        "lead the solve, the Python oracle setup_s; n=1000 unused: its oracle stalls >4000 sweeps"),
    "cli_sweep": (
        "stochfp run on the 14 short shipped configs (not twohalf_a05): interpreter start, "
        "import, problem construction and sigma^2 probing dominate"),
}


@dataclass
class Job:
    """One ``stochfp run`` invocation and what its output must satisfy."""

    label: str
    config: str                   # path of the config file
    iterations: int
    record_every: int
    reference: dict
    criterion4: bool = False


def read_config(path: str) -> dict[str, dict[str, list[str]]]:
    """Sections of a config file as ``{section: {key: [values]}}``."""
    sections: dict[str, dict[str, list[str]]] = {}
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                current = sections.setdefault(line.strip("[]").strip().lower(), {})
                continue
            key, _, value = line.partition("=")
            current.setdefault(key.strip().lower(), []).append(value.strip())
    return sections


def reference_for(problem: dict[str, list[str]]) -> dict:
    """The benchmark's own reference for the oracle point of a [problem] section."""
    from stochfp.benchmarks import random_halfspace_problem, random_quadratic_problem

    kind = problem["kind"][0].lower()
    if kind == "halfspaces":
        rows = [h.split(";") for h in problem["halfspace"]]
        A = np.array([r[0].split() for r in rows], dtype=float)
        beta = np.array([r[1] for r in rows], dtype=float)
        x0 = np.array(problem["x0"][0].split(), dtype=float)
        return {"point": gate.nearest_point_halfspaces(A, beta, x0)}
    n, dim, gen_seed = (int(problem[k][0]) for k in ("n", "dim", "gen_seed"))
    if kind == "random_halfspaces":
        scale = float(problem.get("anchor_scale", ["2.0"])[0])
        inst = random_halfspace_problem(n, dim, gen_seed, anchor_scale=scale)
        A = np.stack([h.normal for h in inst.oracle_info.data])
        beta = np.array([h.offset for h in inst.oracle_info.data])
        if n <= 12:
            return {"point": gate.nearest_point_halfspaces(A, beta, inst.x0)}
        # offsets are positive, so the origin is a feasible point
        return {"A": A, "beta": beta, "x0": inst.x0, "feasible": np.zeros(dim)}
    sv = (float(problem.get("sv_lo", ["0.7"])[0]), float(problem.get("sv_hi", ["1.0"])[0]))
    inst = random_quadratic_problem(n, dim, gen_seed, sv_range=sv)
    A = np.vstack([t.A for t in inst.oracle_info.data])
    b = np.concatenate([t.b for t in inst.oracle_info.data])
    return {"point": np.linalg.lstsq(A, b, rcond=None)[0]}


def _job(label: str, path: str, criterion4: bool = False) -> Job:
    cfg = read_config(path)
    run = cfg["run"]
    return Job(label=label, config=path,
               iterations=int(run["iterations"][0]),
               record_every=int(run.get("record_every", ["1"])[0]),
               reference=reference_for(cfg["problem"]),
               criterion4=criterion4)


def write_generated(name: str, path: str) -> None:
    """Write the config of a generated workload to ``path``."""
    problem, method, step, batch, run = GENERATED[name]
    text = (f"[problem]\n{problem}[method]\n{method}[step]\n{step}"
            f"[batch]\n{batch}[run]\n{run}seed = 1\n[output]\nprefix = unused\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def jobs(name: str, root: str, workdir: str) -> list[Job]:
    """Jobs of workload ``name``; generated configs are written into ``workdir``."""
    if name == "cli_sweep":
        return [_job(c, os.path.join(root, "configs", c + ".cfg")) for c in SHIPPED_CONFIGS]
    path = os.path.join(workdir, name + ".cfg")
    write_generated(name, path)
    return [_job(name, path, criterion4=(name == "twohalf_ensemble"))]


NAMES = ("twohalf_ensemble", "quad_lambda_ensemble", "wide_halfspace", "cli_sweep")
