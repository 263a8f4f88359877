import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stochfp import StepSchedule, cli
from stochfp.core import DivergenceError

REPO = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO / "configs"

MINIMAL = """\
[problem]
kind = halfspaces
x0 = 1 0
halfspace = 1 0 ; 0
halfspace = 0.7071067811865476 0.7071067811865476 ; 0

[method]
name = halpern

[step]
kind = poly
a = 1.0

[run]
iterations = 100
record_every = 7
trials = 3
seed = 99

[output]
prefix = {prefix}
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_minimal_deterministic_run(tmp_path):
    prefix = tmp_path / "out" / "mini"
    cfg = _write(tmp_path, MINIMAL.format(prefix=prefix))
    assert cli.run_experiment(cfg) == 0
    trace = (tmp_path / "out" / "mini_trace.csv").read_text().splitlines()
    assert trace[0] == cli.CSV_HEADER
    assert len(trace) - 1 == int(np.ceil(100 / 7)) + 1
    for line in trace[1:]:
        cols = line.split(",")
        assert len(cols) == 9
        assert cols[4] == "0" and cols[6] == "0" and cols[8] == "0"  # SE columns
        # 17 significant digits read back as the same float
        assert float(cols[1]) == StepSchedule.poly(1.0).at(int(cols[0]))
    summary = (tmp_path / "out" / "mini_summary.txt").read_text()
    assert "oracle" in summary and "x_star" in summary
    # B is printed once, in a stochastic report's closed-form B line only
    assert not any(line.startswith("  B:") for line in summary.splitlines())
    assert "closed-form B" not in summary
    assert "constant batch" not in summary


QUADRATIC = """\
[problem]
kind = quadratic
n = 6
dim = 3
gen_seed = 3

[method]
name = halpern

[step]
kind = poly
a = 1.0

[run]
iterations = 40
record_every = 10
trials = 2
seed = 7

[output]
prefix = {prefix}
"""


# the [problem] sections' keys, to swap one problem for the other
MINIMAL_PROBLEM = MINIMAL[MINIMAL.index("kind"):MINIMAL.index("\n\n")]
QUADRATIC_PROBLEM = QUADRATIC[QUADRATIC.index("kind"):QUADRATIC.index("\n\n")]


def _oracle_block(summary: str) -> list[str]:
    lines = summary.splitlines()
    start = lines.index("oracle:") + 1
    return lines[start:lines.index("", start)]


def test_summary_reports_oracle_cost(tmp_path):
    cfg = _write(tmp_path, MINIMAL.format(prefix=tmp_path / "h"))
    assert cli.run_experiment(cfg) == 0
    block = _oracle_block((tmp_path / "h_summary.txt").read_text())
    assert "  method: active_set" in block
    assert "  iterations: 1" in block  # one halfspace enters, the other then holds
    assert not any(line.startswith("  condition:") for line in block)

    cfg = _write(tmp_path, QUADRATIC.format(prefix=tmp_path / "q"), name="quad.cfg")
    assert cli.run_experiment(cfg) == 0
    block = _oracle_block((tmp_path / "q_summary.txt").read_text())
    assert "  method: normal_equations" in block
    cond = [line for line in block if line.startswith("  condition: ")]
    assert len(cond) == 1 and float(cond[0].split(": ")[1]) >= 1.0
    assert not any(line.startswith("  iterations:") for line in block)

    # an explicit eta = auto is the default step
    text = QUADRATIC.format(prefix=tmp_path / "qa").replace(
        "gen_seed = 3", "gen_seed = 3\neta = auto")
    assert cli.run_experiment(_write(tmp_path, text, name="quad_auto.cfg")) == 0
    assert ((tmp_path / "qa_trace.csv").read_bytes()
            == (tmp_path / "q_trace.csv").read_bytes())


def test_csv_byte_identical_reruns(tmp_path):
    # a deterministic run, and a blended one on a quadratic family whose
    # batches grow from index draws (b_k < n) to count draws
    blended = (MINIMAL.replace(MINIMAL_PROBLEM, QUADRATIC_PROBLEM)
               .replace("name = halpern", "name = stoch_halpern_lambda\nlambda = 0.75")
               .replace("kind = poly\na = 1.0", "kind = lambda_poly\na = 0.5\nlambda = 0.75\n\n"
                        "[batch]\nkind = exponential\nb0 = 4\ndelta = 1.05"))
    for name, text in (("a", MINIMAL), ("lam", blended)):
        cfg = _write(tmp_path, text.format(prefix=tmp_path / name), name=f"{name}.cfg")
        assert cli.run_experiment(cfg, out_prefix=str(tmp_path / f"{name}1")) == 0
        assert cli.run_experiment(cfg, out_prefix=str(tmp_path / f"{name}2")) == 0
        b1 = (tmp_path / f"{name}1_trace.csv").read_bytes()
        b2 = (tmp_path / f"{name}2_trace.csv").read_bytes()
        assert b1 == b2


def test_overrides_take_effect(tmp_path):
    cfg = _write(tmp_path, MINIMAL.format(prefix=tmp_path / "x"))
    assert cli.run_experiment(cfg, trials=5, seed=123,
                              out_prefix=str(tmp_path / "o")) == 0
    summary = (tmp_path / "o_summary.txt").read_text()
    assert "trials: 5" in summary
    assert "master seed: 123" in summary


@pytest.mark.parametrize("mutation, fragment", [
    ("kind = poly", "kind = nosuch"),              # unknown step kind
    ("a = 1.0", "a = 3.0"),                        # out-of-range exponent
    ("trials = 3", "trials = 1"),                  # too few trials
    ("name = halpern", "name = sgd"),              # unknown method
    ("seed = 99", "seed = -1"),                    # seed outside [0, 2**128)
    pytest.param("halfspace = 1 0 ; 0", "halfspace = 1 0 ; nan", id="offset_nan"),
    pytest.param("name = halpern", "name = km", id="km_unit_step"),
    pytest.param("name = halpern", "name = stoch_halpern\n[batch]\nkind = exponential\n"
                 "b0 = 8\ndelta = nan", id="delta_nan"),
    pytest.param(MINIMAL_PROBLEM, QUADRATIC_PROBLEM + "\neta = nan", id="eta_nan"),
    pytest.param(MINIMAL_PROBLEM, QUADRATIC_PROBLEM + "\neta = 5", id="eta_above_2_over_l_max"),
    pytest.param("name = halpern", "name = stoch_halpern_lambda\nlambda = 0.6\n[batch]\n"
                 "kind = constant\nb = 4", id="lambda_step_above_cap"),
    pytest.param("a = 1.0", "a = 1.0\nc = 0.3", id="poly_step_stray_c"),
    pytest.param("name = halpern", "name = stoch_halpern\n[batch]\nkind = constant\n"
                 "b = 2.5", id="batch_b_not_whole"),
    pytest.param("name = halpern", "name = stoch_halpern\n[batch]\nkind = nosuch\nb = 4",
                 id="batch_unknown_kind"),
    pytest.param("name = halpern", "name = halpern\n[batch]\nkind = constant\nb = 1",
                 id="deterministic_with_batch"),
])
def test_config_errors_exit_1(request, tmp_path, capsys, mutation, fragment):
    # both commands refuse every config error before any work, with exit 1;
    # a constructor's refusal cites its section's kind line
    text = MINIMAL.format(prefix=tmp_path / "x").replace(mutation, fragment)
    cfg = _write(tmp_path, text)
    cited = {"delta_nan": "kind = exponential",
             "eta_nan": "kind = quadratic",
             "poly_step_stray_c": "c = 0.3",
             "batch_b_not_whole": "b = 2.5",
             "deterministic_with_batch": "name = halpern"}.get(request.node.callspec.id)
    for command in (cli.run_experiment, cli.validate_only):
        assert command(cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        if cited is not None:
            assert f"{cfg}:{text.splitlines().index(cited) + 1}: " in err
    assert not (tmp_path / "x_trace.csv").exists()


@pytest.mark.parametrize("mutation, fragment, cited", [
    ("seed = 99", "seed = -1", "seed = -1"),
    ("name = halpern", "name = halpern\nlambda = 0.6", "lambda = 0.6"),
    ("name = halpern", "name = stoch_halpern", "name = stoch_halpern"),
], ids=["seed_range", "stray_lambda", "missing_batch"])
def test_solver_config_errors_cite_the_line(tmp_path, capsys, mutation, fragment, cited):
    text = MINIMAL.format(prefix=tmp_path / "x").replace(mutation, fragment)
    cfg = _write(tmp_path, text)
    assert cli.run_experiment(cfg) == 1
    lineno = text.splitlines().index(cited) + 1
    assert f"config error: {cfg}:{lineno}: " in capsys.readouterr().err


def test_seed_override_out_of_range_exit_1(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL.format(prefix=tmp_path / "x"))
    assert cli.main(["run", cfg, "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "seed" in err
    assert not (tmp_path / "x_trace.csv").exists()


def test_config_error_reports_line_and_field(tmp_path, capsys):
    text = MINIMAL.format(prefix=tmp_path / "x").replace(
        "a = 1.0", "a = not_a_number")
    cfg = _write(tmp_path, text)
    assert cli.run_experiment(cfg) == 1
    err = capsys.readouterr().err
    assert "a" in err and ":" in err
    lineno = text.splitlines().index("a = not_a_number") + 1
    assert f":{lineno}:" in err


def test_unknown_key_rejected(tmp_path, capsys):
    text = MINIMAL.format(prefix=tmp_path / "x").replace(
        "[run]", "[run]\nbogus_key = 3")
    cfg = _write(tmp_path, text)
    assert cli.run_experiment(cfg) == 1
    assert "bogus_key" in capsys.readouterr().err


def test_lambda_out_of_range_exit_1(tmp_path, capsys):
    text = MINIMAL.format(prefix=tmp_path / "x").replace(
        "name = halpern", "name = stoch_halpern_lambda\nlambda = 0.9")
    text = text.replace("[run]", "[batch]\nkind = constant\nb = 4\n\n[run]")
    cfg = _write(tmp_path, text)
    assert cli.run_experiment(cfg) == 1
    assert "lambda" in capsys.readouterr().err


def test_oracle_failure_exit_2(tmp_path, capsys):
    text = MINIMAL.format(prefix=tmp_path / "x").replace(
        "halfspace = 1 0 ; 0", "halfspace = 1 0 ; -1")
    text = text.replace("halfspace = 0.7071067811865476 0.7071067811865476 ; 0",
                        "halfspace = -1 0 ; -1")
    cfg = _write(tmp_path, text)
    for command in (cli.run_experiment, cli.validate_only):
        assert command(cfg) == 2
        assert "oracle failure" in capsys.readouterr().err


def test_zero_step_quadratic_exit_2(tmp_path, capsys):
    # at eta = 0 every point is fixed, so the oracle has no single x* to certify
    text = QUADRATIC.format(prefix=tmp_path / "q").replace("gen_seed = 3",
                                                           "gen_seed = 3\neta = 0")
    cfg = _write(tmp_path, text)
    for command in (cli.run_experiment, cli.validate_only):
        assert command(cfg) == 2
        assert "eta = 0" in capsys.readouterr().err
    assert not (tmp_path / "q_trace.csv").exists()


def test_diverged_run_exit_3(tmp_path, capsys, monkeypatch):
    cfg = _write(tmp_path, MINIMAL.format(prefix=tmp_path / "x"))

    def explode(*args, **kwargs):
        raise DivergenceError("non-finite iterate at k=5 in trial 0 of master seed 42",
                              seed=42, trial=0, step=5)

    monkeypatch.setattr(cli, "ensemble", explode)
    assert cli.run_experiment(cfg) == 3
    err = capsys.readouterr().err
    assert err == "diverged run: non-finite iterate at k=5 in trial 0 of master seed 42\n"


VALIDATE_OK = """\
[problem]
kind = halfspaces
x0 = 1 0
halfspace = 1 0 ; 0
halfspace = 0.7071067811865476 0.7071067811865476 ; 0

[method]
name = stoch_halpern

[step]
kind = poly
a = 0.5

[batch]
kind = exponential
b0 = 32
delta = 2.0

[run]
iterations = 200
trials = 4
seed = 5

[output]
prefix = {prefix}
"""


def test_validate_exit_0_and_prints_bound(tmp_path, capsys):
    cfg = _write(tmp_path, VALIDATE_OK.format(prefix=tmp_path / "v"))
    assert cli.validate_only(cfg) == 0
    out = capsys.readouterr().out
    assert "  closed-form B = 0.0625 (sum 1/b_k <= B)" in out.splitlines()
    assert "satisfied" in out
    # polynomial batch (k+1)^3: B = min(a0, b0)^(-c) * c/(c-1), through main
    text = VALIDATE_OK.format(prefix=tmp_path / "v").replace(
        "kind = exponential\nb0 = 32\ndelta = 2.0", "kind = polynomial\na0 = 1\nb0 = 1\nc = 3")
    assert cli.main(["validate", _write(tmp_path, text)]) == 0
    out = capsys.readouterr().out
    assert "  closed-form B = 1.5 (sum 1/b_k <= B)" in out.splitlines()
    assert "conditions for stoch_halpern: satisfied" in out


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.stem)
def test_validate_prints_B_once(path, capsys):
    # B has no line of its own in constants:; the report's closed-form B
    # line, printed at most once, is its one print
    code = cli.validate_only(str(path))
    out = capsys.readouterr().out.splitlines()
    assert not any(line.startswith("  B:") for line in out)
    assert sum("closed-form B =" in line for line in out) <= 1
    assert (code == 4) == any("NOT satisfied" in line for line in out)
    assert code in (0, 4)


@pytest.mark.parametrize("template", [MINIMAL, VALIDATE_OK], ids=["halpern", "stoch_halpern"])
def test_validate_prints_the_summary_sections(tmp_path, capsys, template):
    # validate prints exactly the summary's constants: and schedule
    # validation: sections, the blank line between them included
    cfg = _write(tmp_path, template.format(prefix=tmp_path / "s"))
    assert cli.validate_only(cfg) == 0
    out = capsys.readouterr().out.splitlines()
    assert cli.run_experiment(cfg) == 0
    summary = (tmp_path / "s_summary.txt").read_text().splitlines()
    assert out == summary[summary.index("constants:"):summary.index("rate fit:") - 1]


SUMMABLE_NEITHER = "  1/sqrt(b_k) summable (by kind, ignoring cap): False; 1/b_k summable: False"


def test_validate_exit_4_constant_batch(tmp_path, capsys):
    ok = VALIDATE_OK.format(prefix=tmp_path / "v")
    cfg = _write(tmp_path, ok.replace("kind = exponential\nb0 = 32\ndelta = 2.0",
                                      "kind = constant\nb = 4"))
    assert cli.validate_only(cfg) == 4
    out = capsys.readouterr().out
    assert "NOT satisfied" in out and "sum 1/sqrt(b_k) must be finite" in out
    assert SUMMABLE_NEITHER in out.splitlines()
    # a polynomial batch with c <= 1 has no B either
    cfg = _write(tmp_path, ok.replace("kind = exponential\nb0 = 32\ndelta = 2.0",
                                      "kind = polynomial\na0 = 1\nb0 = 4\nc = 1"))
    assert cli.validate_only(cfg) == 4
    assert SUMMABLE_NEITHER in capsys.readouterr().out.splitlines()
    # an averaged method on constant(1), the one step schedule whose
    # sum alpha_k(1-alpha_k) converges, is a config error for both commands
    text = ok.replace("name = stoch_halpern\n\n[step]\nkind = poly\na = 0.5",
                      "name = stoch_km\n\n[step]\nkind = constant\nc = 1.0")
    cfg = _write(tmp_path, text)
    lineno = text.splitlines().index("name = stoch_km") + 1
    for command in (cli.validate_only, cli.run_experiment):
        assert command(cfg) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: {cfg}:{lineno}: averaged methods need alpha_k in (0, 1)")


@pytest.mark.parametrize("section, key", [("step", "a"), ("batch", "delta")])
def test_section_key_error_cites_one_prefix(tmp_path, capsys, section, key):
    # a missing key inside a kind's constructor call is reported once,
    # not re-wrapped as a constructor error of the section
    text = VALIDATE_OK.format(prefix=tmp_path / "v")
    text = text.replace("a = 0.5\n" if key == "a" else "delta = 2.0\n", "")
    cfg = _write(tmp_path, text)
    assert cli.validate_only(cfg) == 1
    assert capsys.readouterr().err == (
        f"config error: {cfg}: [{section}] is missing required key '{key}'\n")


def test_validate_reports_never_within_horizon(tmp_path, capsys):
    # constant batch with poly step: 1/b <= alpha^2 fails through the horizon
    text = VALIDATE_OK.format(prefix=tmp_path / "v")
    text = text.replace("kind = exponential\nb0 = 32\ndelta = 2.0",
                        "kind = constant\nb = 4")
    cfg = _write(tmp_path, text)
    cli.validate_only(cfg)
    out = capsys.readouterr().out
    assert "never holds through horizon" in out


def test_run_proceeds_with_warning_schedules(tmp_path):
    # infeasible coupling conditions are warnings: the run still executes
    text = VALIDATE_OK.format(prefix=tmp_path / "w")
    text = text.replace("kind = exponential\nb0 = 32\ndelta = 2.0",
                        "kind = constant\nb = 4")
    cfg = _write(tmp_path, text)
    assert cli.run_experiment(cfg) == 0
    summary = (tmp_path / "w_summary.txt").read_text()
    assert "NOT satisfied" in summary


def test_main_subprocess_entrypoint(tmp_path):
    cfg = _write(tmp_path, MINIMAL.format(prefix=tmp_path / "m"))
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "stochfp", "run", cfg, "--trials", "3"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    proc2 = subprocess.run(
        [sys.executable, "-m", "stochfp", "validate", cfg],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc2.returncode == 0, proc2.stderr


def test_shipped_configs_parse(capsys):
    # validate exits 0 or 4 on each: no shipped config is refused (1) or
    # leaves its oracle unresolved (2)
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        cfg = cli.parse_config(str(path))
        assert cfg.trials >= 2
        assert cli.validate_only(str(path)) in (0, 4), capsys.readouterr().err
