"""The benchmark's reading of the package: each workload's reference point
and the entry points its child process hooks.

``perfbench/workloads.py`` builds its own reference for every job's oracle
point from the package's problem constructors, and ``perfbench/child.py``
runs ``stochfp.cli.main`` with ``stochfp.diagnostics.ensemble`` wrapped as
the solve phase and, in a traced run, ``stochfp.diagnostics.resolve_oracle``
as the oracle layer, so a change to what they expose breaks the benchmark
before it times anything.  These tests only read ``perfbench/``; they never
run a workload.
"""

import inspect
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))

import child  # noqa: E402
import workloads  # noqa: E402

import stochfp  # noqa: E402
import stochfp.cli  # noqa: E402
import stochfp.core  # noqa: E402
import stochfp.diagnostics  # noqa: E402


def _assert_finite_reference(ref):
    assert ref
    for value in ref.values():
        assert np.all(np.isfinite(value))


@pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.cfg")),
                         ids=lambda p: p.stem)
def test_reference_for_shipped_config(path):
    _assert_finite_reference(workloads.reference_for(workloads.read_config(str(path))["problem"]))


@pytest.mark.parametrize("name", sorted(workloads.GENERATED))
def test_reference_for_generated_workload(name, tmp_path):
    path = str(tmp_path / f"{name}.cfg")
    workloads.write_generated(name, path)
    _assert_finite_reference(workloads.reference_for(workloads.read_config(path)["problem"]))


def test_cli_main_takes_argv():
    assert list(inspect.signature(stochfp.cli.main).parameters) == ["argv"]


def test_ensemble_is_the_solve_phase_the_child_counts():
    # the child wraps diagnostics.ensemble wherever it is bound, cli included,
    # and counts cfg.iterations * trials from its three leading positionals
    ensemble = stochfp.diagnostics.ensemble
    assert stochfp.cli.ensemble is ensemble
    params = list(inspect.signature(ensemble).parameters.values())[:3]
    assert [p.name for p in params] == ["problem", "cfg", "trials"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    cfg = SimpleNamespace(iterations=250)
    assert child._iterations((None, cfg, 7), {}) == 250 * 7
    assert child._iterations((), {"problem": None, "cfg": cfg, "trials": 7}) == 250 * 7


def test_oracle_layer_hooks_the_one_resolve_oracle():
    # the probe wraps the function bound at stochfp.diagnostics.resolve_oracle
    # in every stochfp module that holds the same object, solvers and cli too
    assert (stochfp.diagnostics.resolve_oracle is stochfp.core.resolve_oracle
            is stochfp.resolve_oracle)
