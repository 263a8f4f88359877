"""stochfp benchmark: run one workload through ``stochfp run`` and report metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in ``workloads.NAMES``.  Each work unit runs the
workload's jobs once, every job as its own single-threaded child process
running ``stochfp.cli.main`` from the checkout's ``src/``.  Units repeat
while the next one still fits in ``--seconds`` (at least ``MIN_UNITS`` run)
and every output is checked by ``gate``.  With ``--trace 0`` the end-to-end
metrics are the medians over units; with ``--trace 1`` untraced and traced
units alternate and the per-layer metrics come from the traced ones.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; everything the run leaves behind
is under ``.bench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import gate
import probes
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_run")
CHILD = os.path.join(HERE, "child.py")
THREADS = os.path.join(HERE, "threads.py")

MIN_UNITS = 3
RUN_LIMIT_S = 170.0        # children still running this long after the start are killed

END_TO_END = {"wall_s": "s", "setup_s": "s", "iters_per_s": "1/s", "peak_rss_mb": "MB"}


def fail(message: str) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict[str, str]:
    """Environment of every child: the checkout's package, one thread."""
    env = {k: v for k, v in os.environ.items() if k != "STOCHFP_THREADS"}
    env.update(PYTHONPATH=SRC, PERFBENCH_SRC=SRC, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(cmd: list[str], log_path: str, deadline: float) -> tuple[int, float, float, float]:
    """Run ``cmd`` to completion; (exit code, start, end, peak RSS in MB).

    Start and end are ``time.monotonic`` readings taken around the spawn and
    the reap, so child-side readings of the same clock can be compared.
    """
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t0, t1, usage.ru_maxrss / 1024.0


def check_job(job, code: int, prefix: str, record: dict | None, digests: dict) -> list[str]:
    """Every output check of one job; an empty list means it passed."""
    if code != 0:
        return [f"exit code {code}"]
    if record is None:
        return ["the child left no record"]
    problems, table = gate.check_trace(prefix + "_trace.csv", job.iterations, job.record_every)
    if table is not None and not problems:
        problems += gate.check_descent(table)
        if job.criterion4:
            problems += gate.check_criterion4(table)
    try:
        problems += gate.check_x_star(gate.read_x_star(prefix + "_summary.txt"), job.reference)
    except (OSError, ValueError) as exc:
        problems.append(f"summary: {exc}")
    if not problems:
        first = digests.setdefault(job.label, gate.digest(prefix + "_trace.csv"))
        if gate.digest(prefix + "_trace.csv") != first:
            problems.append("trace CSV bytes differ from an earlier run with this seed")
    return problems


def merge_traces(traces: list[dict]) -> dict:
    """Sum the tracer exports of the children of one unit."""
    merged = {"stats": {}, "counters": {}, "absent": [], "spans": []}
    for tr in traces:
        for name, st in tr["stats"].items():
            acc = merged["stats"].setdefault(name, dict.fromkeys(st, 0.0))
            for key, value in st.items():
                acc[key] += value
        for name, value in tr["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0.0) + value
        merged["absent"] = sorted(set(merged["absent"]) | set(tr["absent"]))
        merged["spans"].append(tr["spans"])
    return merged


def run_unit(name: str, jobs: list, seed: int, traced: bool, digests: dict,
             deadline: float, failures: list[str]) -> dict:
    """Run every job of the workload once; the unit's measurements."""
    outdir = os.path.join(WORK, name, "traced" if traced else "plain")
    os.makedirs(outdir, exist_ok=True)
    unit = {"wall_s": 0.0, "setup_s": 0.0, "solve_s": 0.0, "iterations": 0,
            "peak_rss_mb": 0.0, "import_s": 0.0, "csv_bytes": 0.0,
            "jobs": 0, "failed": 0, "traces": []}
    for job in jobs:
        prefix = os.path.join(outdir, job.label)
        record_path = prefix + ".record.json"
        for suffix in (".record.json", "_trace.csv", "_summary.txt"):
            if os.path.exists(prefix + suffix):
                os.remove(prefix + suffix)
        cmd = [sys.executable, CHILD, "--record", record_path]
        cmd += ["--trace"] if traced else []
        cmd += ["--", "run", job.config, "--seed", str(seed), "--out", prefix]
        code, t0, t1, rss = spawn(cmd, prefix + ".log", deadline)
        record = None
        if os.path.exists(record_path):
            with open(record_path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        problems = check_job(job, code, prefix, record, digests)
        unit["jobs"] += 1
        if problems or record["solve_start"] is None:
            unit["failed"] += 1
            failures.append(f"{job.label}: " + "; ".join(problems or ["no solve phase"]))
            continue
        unit["wall_s"] += t1 - t0
        unit["setup_s"] += record["solve_start"] - t0
        unit["solve_s"] += record["solve_s"]
        unit["iterations"] += record["iterations"]
        unit["peak_rss_mb"] = max(unit["peak_rss_mb"], rss)
        unit["import_s"] += record["import_s"]
        unit["csv_bytes"] += os.path.getsize(prefix + "_trace.csv")
        if record["trace"] is not None:
            unit["traces"].append(record["trace"])
    return unit


def thread_speedup(name: str, seed: int, deadline: float, failures: list[str]) -> float | None:
    """``diagnostics.ensemble.threads2_speedup`` from a ``threads.py`` child.

    None when ``ensemble`` no longer takes ``n_jobs``; a crash or differing
    statistics are added to ``failures``.
    """
    log_path = os.path.join(WORK, name, "threads.log")
    code, _, _, _ = spawn([sys.executable, THREADS, str(seed)], log_path, deadline)
    with open(log_path, "r", encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    if code != 0 or not lines:
        failures.append(f"thread-pool measurement exited with {code}")
        return None
    result = json.loads(lines[-1])
    if result.get("absent"):
        return None
    if not result["identical"]:
        failures.append("thread-pool measurement: statistics differ between n_jobs=1 and 2")
    return result["speedup"]


def environment() -> dict:
    """What each run records about the machine and toolchain."""
    import numpy
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def tail_text(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    for p in (99.9, 99.0, 90.0):
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            return f"p{p:g}={statistics.quantiles(values, n=1000)[int(p * 10) - 1]:.6g}"
    return "no percentile has 10 samples beyond it"


def end_to_end(plain: list[dict]) -> tuple[dict, list[str]]:
    """Median over the passing untraced units of each end-to-end metric."""
    good = [u for u in plain if u["failed"] == 0]
    series = {
        "wall_s": [u["wall_s"] for u in good],
        "setup_s": [u["setup_s"] for u in good],
        "iters_per_s": [u["iterations"] / u["solve_s"] for u in good if u["solve_s"] > 0],
        "peak_rss_mb": [u["peak_rss_mb"] for u in good],
    }
    report, lines = {}, []
    for metric, unit in END_TO_END.items():
        values = series[metric]
        value = statistics.median(values) if values else 0.0
        report[metric] = {"value": value, "unit": unit}
        lines.append(f"  {metric:<14} {value:.6g} {unit}  "
                     f"(median of {len(values)}; {tail_text(values)})")
    return report, lines


def per_layer(plain: list[dict], traced: list[dict], speedup: float | None,
              workdir: str) -> tuple[dict, list[str]]:
    """Median over the passing traced units of each per-layer metric.

    Writes the merged trace of every traced unit to ``trace.json``.
    """
    per_unit = []
    for u in traced:
        if u["failed"] == 0 and u["traces"]:
            merged = merge_traces(u["traces"])
            values, absent = probes.unit_metrics(
                merged, {"import_s": u["import_s"], "csv_bytes": u["csv_bytes"]})
            per_unit.append((values, absent, merged))
    absent = set().union(*(a for _, a, _ in per_unit))
    plain_ok = [u["wall_s"] for u in plain if u["failed"] == 0]
    traced_ok = [u["wall_s"] for u in traced if u["failed"] == 0]
    derived = {
        "trace.overhead_s": (statistics.median(traced_ok) - statistics.median(plain_ok)
                             if plain_ok and traced_ok else None),
        "diagnostics.ensemble.threads2_speedup": speedup,
    }
    report, lines = {}, []
    for metric, (unit, _, _) in probes.LAYER_METRICS.items():
        if metric in derived:
            value = derived[metric]
        else:
            samples = [v[metric] for v, _, _ in per_unit if metric in v]
            value = statistics.median(samples) if samples else None
        if value is None:
            absent.add(metric)
            value = 0.0
        report[metric] = {"value": value, "unit": unit}
        lines.append(f"  {metric:<40} {value:.6g} {unit}"
                     + ("  (absent, reported as 0)" if metric in absent else ""))
    if per_unit:
        shares = probes.solve_breakdown(per_unit[0][2])
        lines.append("  solve phase by layer (self time inside ensemble): " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in shares.items()))
        with open(os.path.join(workdir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump([m for _, _, m in per_unit], fh)
    return report, lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stochfp", "__init__.py")):
        fail(f"no stochfp package under {SRC}; run from the root of a stochfp checkout")
    if not os.path.isdir(os.path.join(ROOT, "configs")):
        fail(f"no configs directory under {ROOT}")
    if args.seed < 0:
        fail("--seed must be >= 0 (it becomes the master trial seed)")
    sys.path.insert(0, SRC)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    jobs = workloads.jobs(args.workload, ROOT, workdir)

    # compile the package's bytecode and page in NumPy before timing
    spawn([sys.executable, "-c", "import stochfp.cli"], os.path.join(workdir, "warmup.log"),
          deadline)

    digests: dict[str, str] = {}
    failures: list[str] = []
    plain, traced = [], []
    # Units repeat while the next one, as long as the last, still fits in
    # --seconds; MIN_UNITS untraced units (one pair when tracing) always run.
    min_units = 1 if args.trace else MIN_UNITS
    while True:
        t_unit = time.monotonic()
        plain.append(run_unit(args.workload, jobs, args.seed, False, digests, deadline, failures))
        if args.trace:
            traced.append(run_unit(args.workload, jobs, args.seed, True, digests, deadline,
                                   failures))
        now = time.monotonic()
        next_end = now + (now - t_unit)
        if len(plain) >= min_units and next_end > start + args.seconds:
            break
        if next_end > deadline - 10.0:
            break

    units = plain + traced
    attempted = sum(u["jobs"] for u in units)
    failed = sum(u["failed"] for u in units)
    if args.trace:
        attempted += 1
        before = len(failures)
        speedup = thread_speedup(args.workload, args.seed, deadline, failures)
        failed += len(failures) > before
        report, lines = per_layer(plain, traced, speedup, workdir)
    else:
        report, lines = end_to_end(plain)
    lines.insert(0, f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
                    f"units {len(plain)} untraced, {len(traced)} traced  runs {attempted}")
    lines.append(f"  error_rate     {failed / attempted:.6g} ({failed} of {attempted} runs failed)")
    lines.extend(f"  failure: {f}" for f in failures)
    lines.append("environment: " + json.dumps(environment()))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": report}
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"lines": lines, "result": result, "units": [
            {k: v for k, v in u.items() if k != "traces"} for u in units]}, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
