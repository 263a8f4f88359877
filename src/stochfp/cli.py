"""Configuration-driven experiment runner.

Reads a flat key-value config with section headers (grammar documented in
the README), builds the problem and the schedules (each by its class's
``KINDS`` table), runs a seeded Monte-Carlo ensemble, and writes a trace
CSV plus a human-readable summary.  The summary's ``constants:`` and
``schedule validation:`` sections come from one function; ``validate``
prints them alone, without running trials.  Every schedule sum and
closed-form bound (``B`` too) comes from one ``validate`` report.

Exit codes: 0 success, 1 config error, 2 oracle failure, 3 diverged run
(the master seed and failing trial are reported), 4 failed ``validate``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .benchmarks import (_halfspace_problem, random_halfspace_problem,
                         random_quadratic_problem)
from .core import DivergenceError, OracleError, Problem, resolve_oracle
from .diagnostics import (averaged_rate_bound, default_probes, ensemble,
                          estimate_sigma_sq, fit_rate, predicted_rate_exponent,
                          theorem_constants)
from .mappings import Halfspace
from .schedules import BatchSchedule, StepSchedule, validate
from .solvers import FieldError, SolverConfig

__all__ = ["ConfigError", "ExperimentConfig", "parse_config",
           "run_experiment", "validate_only", "main"]

CSV_HEADER = ("k,alpha,batch,residual_mean,residual_se,"
              "f0gap_mean,f0gap_se,msq_dist_mean,msq_dist_se")
_CSV_ROW = "%d,%.17g,%d" + ",%.17g" * 6 + "\n"


class ConfigError(ValueError):
    """Config file rejected; message carries file, line, and field."""


@dataclass
class ExperimentConfig:
    """Parsed experiment: problem, solver configuration, trial count, output."""

    problem: Problem
    solver: SolverConfig
    trials: int
    prefix: str
    fit_window: tuple[int, int]


# ---------------------------------------------------------------------------
# parsing

_SECTIONS = ("problem", "method", "step", "batch", "run", "output")


def _read_sections(path: str) -> dict[str, list[tuple[int, str, str]]]:
    sections: dict[str, list[tuple[int, str, str]]] = {s: [] for s in _SECTIONS}
    current = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ConfigError(f"{path}:{lineno}: unknown section [{name}]")
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        sections[current].append((lineno, key.lower(), value))
    return sections


class _Section:
    """Typed accessor over one section's (line, key, value) triples."""

    def __init__(self, path: str, name: str,
                 entries: list[tuple[int, str, str]]):
        self.path = path
        self.name = name
        self.entries = entries
        self._used: set[str] = set()

    def _find(self, key: str) -> tuple[int, str] | None:
        hits = [(ln, v) for ln, k, v in self.entries if k == key]
        if len(hits) > 1:
            raise ConfigError(f"{self.path}:{hits[1][0]}: duplicate key "
                              f"'{key}' in [{self.name}]")
        return hits[0] if hits else None

    def all(self, key: str) -> list[tuple[int, str]]:
        self._used.add(key)
        return [(ln, v) for ln, k, v in self.entries if k == key]

    def get(self, key: str, conv, default=None, required: bool = False):
        self._used.add(key)
        hit = self._find(key)
        if hit is None:
            if required:
                raise ConfigError(f"{self.path}: [{self.name}] is missing "
                                  f"required key '{key}'")
            return default
        lineno, value = hit
        try:
            return conv(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.path}:{lineno}: bad value for "
                              f"'{key}': {exc}") from exc

    @contextmanager
    def building(self):
        """Report a constructor's ValueError as a config error at this section's
        ``kind =`` line; a ConfigError, which already cites its place, passes."""
        try:
            yield
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{self.path}:{self._find('kind')[0]}: "
                              f"[{self.name}]: {exc}") from exc

    def reject_unused(self):
        for lineno, key, _ in self.entries:
            if key not in self._used:
                raise ConfigError(f"{self.path}:{lineno}: unknown key '{key}' "
                                  f"in [{self.name}]")


def _vector(text: str) -> np.ndarray:
    vals = [float(tok) for tok in text.split()]
    if not vals:
        raise ValueError("expected at least one number")
    return np.array(vals)


def _halfspace(text: str) -> Halfspace:
    if ";" not in text:
        raise ValueError("expected 'a1 a2 ... ad ; offset'")
    left, right = text.split(";", 1)
    return Halfspace(normal=_vector(left), offset=float(right))


def _eta(text: str):
    return "auto" if text.strip().lower() == "auto" else float(text)


def _build_problem(sec: _Section) -> Problem:
    kind = sec.get("kind", str, required=True).lower()
    with sec.building():
        if kind == "halfspaces":
            rows = sec.all("halfspace")
            if not rows:
                raise ConfigError(f"{sec.path}: [problem] kind=halfspaces needs "
                                  "at least one 'halfspace =' line")
            halfspaces = []
            for lineno, text in rows:
                try:
                    halfspaces.append(_halfspace(text))
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{sec.path}:{lineno}: bad halfspace: {exc}") from exc
            problem = _halfspace_problem(halfspaces, sec.get("x0", _vector, required=True),
                                         "halfspaces")
        elif kind == "random_halfspaces":
            problem = random_halfspace_problem(
                sec.get("n", int, required=True), sec.get("dim", int, required=True),
                sec.get("gen_seed", int, required=True),
                anchor_scale=sec.get("anchor_scale", float, default=2.0))
        elif kind == "quadratic":
            problem = random_quadratic_problem(
                sec.get("n", int, required=True), sec.get("dim", int, required=True),
                sec.get("gen_seed", int, required=True),
                sv_range=(sec.get("sv_lo", float, default=0.7),
                          sec.get("sv_hi", float, default=1.0)),
                eta=sec.get("eta", _eta, default="auto"))
        else:
            raise ConfigError(f"{sec.path}: [problem] has unknown kind '{kind}'")
    sec.reject_unused()
    return problem


def _build_schedule(sec: _Section, cls):
    """A ``StepSchedule`` or ``BatchSchedule`` from its section, read by the
    class's ``KINDS`` and ``OPTIONAL`` tables."""
    kind = sec.get("kind", str, required=True).lower()
    params = {field: sec.get(key, conv) for key, field, conv in cls.OPTIONAL}
    if kind not in cls.KINDS:
        raise ConfigError(f"{sec.path}: [{sec.name}] has unknown kind '{kind}'")
    params.update((field, sec.get(key, conv, required=True))
                  for key, field, conv in cls.KINDS[kind])
    with sec.building():
        sched = cls(kind=kind, **params)
    sec.reject_unused()
    return sched


def parse_config(path: str) -> ExperimentConfig:
    """Parse and fully validate an experiment config file."""
    sections = _read_sections(path)
    problem = _build_problem(_Section(path, "problem", sections["problem"]))
    step = _build_schedule(_Section(path, "step", sections["step"]), StepSchedule)
    batch = (_build_schedule(_Section(path, "batch", sections["batch"]), BatchSchedule)
             if sections["batch"] else None)

    msec = _Section(path, "method", sections["method"])
    method = msec.get("name", str, required=True).lower()
    lam = msec.get("lambda", float)
    msec.reject_unused()

    rsec = _Section(path, "run", sections["run"])
    iterations = rsec.get("iterations", int, required=True)
    record_every = rsec.get("record_every", int, default=1)
    trials = rsec.get("trials", int, default=2)
    seed = rsec.get("seed", int, required=True)
    fit_lo = rsec.get("fit_lo", int, default=max(10, iterations // 100))
    fit_hi = rsec.get("fit_hi", int, default=iterations)
    rsec.reject_unused()
    if trials < 2:
        raise ConfigError(f"{path}: [run] trials must be >= 2")

    osec = _Section(path, "output", sections["output"])
    prefix = osec.get("prefix", str, required=True)
    osec.reject_unused()

    try:
        solver = SolverConfig(method=method, step=step, batch=batch,
                              iterations=iterations, seed=seed,
                              record_every=record_every, lam=lam)
    except FieldError as exc:  # a field with no line of its own cites the method
        hit = rsec._find(exc.field) or msec._find(exc.field) or msec._find("name")
        raise ConfigError(f"{path}:{hit[0]}: {exc}") from exc
    return ExperimentConfig(problem=problem, solver=solver, trials=trials,
                            prefix=prefix, fit_window=(fit_lo, fit_hi))


# ---------------------------------------------------------------------------
# condition logic per method

_VANISHES = (lambda r: r.step_vanishes, "alpha_k must vanish")
_ROOT_SUM = (lambda r: r.root_batch_bound is not None, "sum 1/sqrt(b_k) must be finite")

#: the convergence-theory conditions of each method: (test on the report,
#: the reason printed when it fails)
_CONDITIONS = {
    "km": (),
    "halpern": (_VANISHES,),
    "stoch_km": (_ROOT_SUM,),
    "stoch_halpern": (
        _VANISHES,
        (lambda r: r.inv_b_le_alpha_sq.holds_eventually,
         "1/b_k <= alpha_k^2 never holds through the horizon"),
        _ROOT_SUM),
    "stoch_halpern_lambda": (
        (lambda r: r.inv_b_le_alpha.holds_eventually,
         "1/b_k <= alpha_k never holds through the horizon"),
        (lambda r: r.batch_bound_B is not None, "sum 1/b_k must be finite")),
}


# ---------------------------------------------------------------------------
# output

def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_csv(path: str, stats) -> None:
    columns = (stats.ks, stats.alphas, stats.batch_sizes, stats.residual_mean,
               stats.residual_se, stats.f0gap_mean, stats.f0gap_se,
               stats.msq_dist_mean, stats.msq_dist_se)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(_CSV_ROW % row for row in zip(*(c.tolist() for c in columns)))


def _convergence_lines(method: str, constants, report) -> tuple[list[str], list[str]]:
    """The ``constants:`` and ``schedule validation:`` sections, which the
    summary writes and ``validate`` prints, and the method's unmet
    conditions (empty when they are satisfied)."""
    unmet = [reason for holds, reason in _CONDITIONS[method] if not holds(report)]
    out = ["constants:",
           f"  sigma_sq_hat: {_fmt(constants.sigma_sq)}",
           f"  M:  {_fmt(constants.M)}",
           f"  M1: {_fmt(constants.M1)}",
           f"  M3: {_fmt(constants.M3)}",
           "",
           "schedule validation:"]
    out.extend("  " + line for line in report.lines())
    out.append(f"  conditions for {method}: {'NOT satisfied' if unmet else 'satisfied'}")
    out.extend(f"    - {r}" for r in unmet)
    return out, unmet


def _summary_lines(cfg: ExperimentConfig, oracle, constants,
                   stats, slope_text: str) -> list[str]:
    s = cfg.solver
    report = validate(s.step, s.batch, s.iterations)
    out = []
    out.append(f"problem: {cfg.problem.name} "
               f"(n={cfg.problem.family.n}, d={cfg.problem.family.dim}, "
               f"kind={cfg.problem.family.kind})")
    out.append(f"method: {s.method}"
               + (f" (lambda={s.lam:g})" if s.lam is not None else ""))
    out.append(f"step: {s.step.describe()}")
    out.append(f"batch: {s.batch.describe() if s.batch is not None else 'exact mean (deterministic)'}")
    out.append(f"iterations: {s.iterations}; record_every: {s.record_every}; "
               f"trials: {cfg.trials}; master seed: {s.seed}")
    out.append("")
    out.append("oracle:")
    out.append(f"  method: {oracle.method}")
    out.append(f"  x_star: [{' '.join(_fmt(v) for v in oracle.x_star)}]")
    out.append(f"  residual_at_star: {_fmt(oracle.residual_at_star)}")
    if oracle.iterations is not None:
        out.append(f"  iterations: {oracle.iterations}")
    if oracle.condition is not None:
        out.append(f"  condition: {_fmt(oracle.condition)}")
    out.append(f"  f0_star: {_fmt(stats.f0_star)}")
    out.append("")
    out.extend(_convergence_lines(s.method, constants, report)[0])
    out.append("")
    out.append("rate fit:")
    out.append(f"  window: [{cfg.fit_window[0]}, {cfg.fit_window[1]}]")
    out.append(f"  {slope_text}")
    _, pred = predicted_rate_exponent(s.step)
    out.append(f"  {pred}")
    if (s.method == "stoch_halpern_lambda" and s.batch is not None
            and stats.x_star is not None):
        dist0 = float(np.sum((cfg.problem.x0 - oracle.x_star) ** 2))
        rhs = averaged_rate_bound(constants, report, dist0)
        out.append(f"  rate bound rhs at horizon: {_fmt(rhs)}")
    out.append("")
    out.append("final recorded iterate:")
    out.append(f"  k: {int(stats.ks[-1])}")
    out.append(f"  mean residual: {_fmt(stats.residual_mean[-1])}")
    out.append(f"  mean squared distance to x_star: {_fmt(stats.msq_dist_mean[-1])}")
    out.append(f"  mean f0 gap: {_fmt(stats.f0gap_mean[-1])}")
    return out


def _constants(cfg: ExperimentConfig, oracle):
    """Bound constants, with ``sigma_sq`` probed around the oracle point."""
    probes = default_probes(cfg.problem, oracle, seed=cfg.solver.seed)
    return theorem_constants(cfg.problem, oracle,
                             estimate_sigma_sq(cfg.problem.family, probes))


#: the documented exit code and stderr label of each refusal
_EXITS = {ConfigError: (1, "config error"), OracleError: (2, "oracle failure"),
          DivergenceError: (3, "diverged run")}


def _exit_codes(command):
    """Make ``command``'s refusals (``_EXITS``) one stderr line and an exit code."""
    @functools.wraps(command)
    def mapped(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except tuple(_EXITS) as exc:
            code, label = next(v for cls, v in _EXITS.items() if isinstance(exc, cls))
            print(f"{label}: {exc}", file=sys.stderr)
            return code
    return mapped


@_exit_codes
def run_experiment(config_path: str, trials: int | None = None,
                   seed: int | None = None, out_prefix: str | None = None,
                   stream=None) -> int:
    """Run the configured ensemble and write ``<prefix>_trace.csv`` and
    ``<prefix>_summary.txt``.  Returns the process exit code."""
    stream = stream if stream is not None else sys.stdout
    cfg = parse_config(config_path)
    if trials is not None:
        if trials < 2:
            raise ConfigError("--trials must be >= 2")
        cfg.trials = trials
    if seed is not None:
        try:
            cfg.solver = replace(cfg.solver, seed=seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
    if out_prefix is not None:
        cfg.prefix = out_prefix

    oracle = resolve_oracle(cfg.problem)
    stats = ensemble(cfg.problem, cfg.solver, cfg.trials)
    constants = _constants(cfg, oracle)

    try:
        slope = fit_rate(stats, cfg.fit_window)
        slope_text = f"fitted slope: {_fmt(slope)}"
    except ValueError as exc:
        slope_text = f"fit unavailable: {exc}"

    directory = os.path.dirname(cfg.prefix)
    if directory:
        os.makedirs(directory, exist_ok=True)
    trace_path = cfg.prefix + "_trace.csv"
    summary_path = cfg.prefix + "_summary.txt"
    _write_csv(trace_path, stats)
    lines = _summary_lines(cfg, oracle, constants, stats, slope_text)
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {trace_path} and {summary_path}", file=stream)
    return 0


@_exit_codes
def validate_only(config_path: str, stream=None) -> int:
    """Print the summary's ``constants:`` and ``schedule validation:``
    sections without running trials; exit 4 when a condition is unmet."""
    stream = stream if stream is not None else sys.stdout
    cfg = parse_config(config_path)
    s = cfg.solver
    lines, unmet = _convergence_lines(s.method, _constants(cfg, resolve_oracle(cfg.problem)),
                                      validate(s.step, s.batch, s.iterations))
    print("\n".join(lines), file=stream)
    return 4 if unmet else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stochfp",
        description="Stochastic fixed-point experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--trials", type=int, default=None,
                       help="override the configured trial count")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the configured master seed")
    p_run.add_argument("--out", type=str, default=None,
                       help="override the configured output prefix")
    p_val = sub.add_parser("validate", help="validate schedules without running")
    p_val.add_argument("config")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_experiment(args.config, trials=args.trials, seed=args.seed,
                              out_prefix=args.out)
    return validate_only(args.config)
