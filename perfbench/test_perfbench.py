"""Self-tests of the benchmark: the output gate and the tracer.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import inspect
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate      # noqa: E402
import probes    # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _write_trace(path, iterations=10, record_every=2, header=gate.CSV_HEADER):
    ks = gate.expected_ks(iterations, record_every)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i, k in enumerate(ks):
            msq = 1.0 / (1.0 + k)
            fh.write(f"{k},0.5,4,{msq},0,-0.5,0,{msq},0\n")
    return ks


def test_gate_accepts_a_well_formed_trace(tmp_path):
    path = str(tmp_path / "t.csv")
    _write_trace(path)
    problems, table = gate.check_trace(path, 10, 2)
    assert problems == []
    assert gate.check_descent(table) == []


@pytest.mark.parametrize("corrupt", ["header", "drop_row", "nan", "grid", "short_row", "ascent"])
def test_gate_rejects_a_corrupted_trace(tmp_path, corrupt):
    path = str(tmp_path / "t.csv")
    _write_trace(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if corrupt == "header":
        lines[0] = lines[0].replace("msq_dist_mean", "msq_mean")
    elif corrupt == "drop_row":
        del lines[3]
    elif corrupt == "nan":
        lines[2] = lines[2].replace("0.5,4", "nan,4")
    elif corrupt == "grid":
        lines[2] = "3" + lines[2][1:]
    elif corrupt == "short_row":
        lines[2] = lines[2].rsplit(",", 1)[0]
    elif corrupt == "ascent":
        lines[-1] = lines[-1].replace(lines[-1].split(",")[7], "7.0")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    problems, table = gate.check_trace(path, 10, 2)
    if table is not None and not problems:
        problems = gate.check_descent(table)
    assert problems


def test_gate_checks_criterion4_and_x_star():
    ks = gate.expected_ks(10_000, 1)
    table = np.zeros((ks.size, 9))
    table[:, 0] = ks
    table[:, 3] = 1.0 / np.sqrt(1.0 + ks)     # residual ratio K vs 100: 0.1
    table[:, 7] = 1.0 / (1.0 + ks)            # msq ratio K vs 100: 0.01
    assert gate.check_criterion4(table) == []
    table[-1, 7] = table[100, 7]
    assert gate.check_criterion4(table)
    ref = {"point": np.zeros(2)}
    assert gate.check_x_star(np.array([1e-12, 0.0]), ref) == []
    assert gate.check_x_star(np.array([1e-6, 0.0]), ref)


def test_two_halfspace_reference_is_the_origin():
    sections = {"kind": ["halfspaces"], "x0": ["1 0"],
                "halfspace": ["1 0 ; 0", "0.7071067811865476 0.7071067811865476 ; 0"]}
    ref = workloads.reference_for(sections)["point"]
    assert np.allclose(ref, 0.0, atol=1e-15)


def test_tracer_self_time_and_absent_names():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)), scope="outer")
    mod = types.ModuleType("fakepkg")
    sys.modules["fakepkg"] = mod
    try:
        mod.inner = lambda: None
        mod.outer = lambda: mod.inner()
        assert tracer.wrap_function("fakepkg", "inner", "inner")
        assert tracer.wrap_function("fakepkg", "outer", "outer", log=True)
        assert not tracer.wrap_function("fakepkg", "gone", "gone")
        mod.outer()
        stats = tracer.export()["stats"]
        # outer opens at t=0, inner spans t=1..2, outer closes at t=3
        assert stats["outer"]["total_s"] == 3.0
        assert stats["outer"]["self_s"] == 2.0
        assert stats["inner"]["scope_self_s"] == 1.0
        assert tracer.absent == ["fakepkg.gone"]
        tracer.restore()
    finally:
        del sys.modules["fakepkg"]


def _bindings():
    """Every function and method bound in the stochfp modules, by identity."""
    import stochfp  # noqa: F401
    seen = {}
    for name, mod in sys.modules.items():
        if name == "stochfp" or name.startswith("stochfp."):
            for key, value in vars(mod).items():
                seen[(name, key)] = value
                if inspect.isclass(value):
                    for attr, member in vars(value).items():
                        seen[(name, key, attr)] = member
    return seen


def test_tracer_restores_every_wrapped_function():
    import stochfp.cli  # noqa: F401
    from stochfp import (BatchSchedule, SolverConfig, StepSchedule, ensemble,
                         two_halfspace_problem)

    before = _bindings()
    cfg = SolverConfig(method="stoch_halpern", step=StepSchedule.poly(0.5),
                       batch=BatchSchedule.exponential(4, 1.01, cap=64),
                       iterations=50, seed=3, record_every=5)
    plain = ensemble(two_halfspace_problem(), cfg, trials=2, n_jobs=1)

    tracer = Tracer(scope="diagnostics.ensemble")
    probes.install(tracer)
    assert tracer.absent == []
    wrapped = sys.modules["stochfp.solvers"].iteration_rng
    assert wrapped is not before[("stochfp.solvers", "iteration_rng")]
    traced = ensemble(two_halfspace_problem(), cfg, trials=2, n_jobs=1)
    tracer.restore()

    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []
    # tracing observes the run without changing its results
    assert np.array_equal(plain.msq_dist_mean, traced.msq_dist_mean)
    values, absent = probes.unit_metrics(tracer.export(), {"import_s": 0.1, "csv_bytes": 1.0})
    assert values["sampling.iteration_rng.calls"] == 2 * 50
    assert values["solvers.run.calls"] == 2
    assert values["sampling.multinomial.self_s"] > 0.0
    assert 0.0 < values["mappings.useful_row_ratio"] <= 1.0
    assert absent == []


def test_removed_names_are_reported_absent():
    export = {"stats": {}, "counters": {}, "spans": [],
              "absent": ["stochfp.sampling.iteration_rng", "stochfp.schedules.validate"]}
    values, absent = probes.unit_metrics(export, {"import_s": 0.1, "csv_bytes": 1.0})
    assert {"sampling.iteration_rng.calls", "sampling.multinomial.self_s",
            "schedules.validate.self_s", "mappings.useful_row_ratio"} <= set(absent)
    assert values["schedules.step_at.calls"] == 0.0
