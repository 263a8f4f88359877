"""The benchmark's reading of the package: each workload's reference point.

``perfbench/workloads.py`` builds its own reference for every job's oracle
point from the package's problem constructors, so a change to what they
expose breaks the benchmark before it times anything.  These tests only
read ``perfbench/``; they never run a workload.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))

import workloads  # noqa: E402


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
