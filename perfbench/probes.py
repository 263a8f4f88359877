"""Where the traced pass hooks into stochfp, and the per-layer metrics it yields.

:func:`install` wraps the public functions and the hot methods of each
``stochfp`` module (imported beforehand) under a span name per layer, plus a
thin proxy on the generator that ``sampling.iteration_rng`` returns, so the
multinomial draw is timed on its own.  :func:`unit_metrics` turns the
exported trace of a work unit into the per-layer metrics listed in ``LAYER_METRICS``.
Nothing in ``src/`` is edited: a name that a later refactor removes is
reported as absent.
"""

from __future__ import annotations

import numpy as np

# (span name, module, attribute or Class.method, log every span)
TARGETS = [
    ("cli.parse_config", "stochfp.cli", "parse_config", True),
    ("cli.run_experiment", "stochfp.cli", "run_experiment", True),
    ("cli.output", "stochfp.cli", "_write_csv", True),
    ("cli.output", "stochfp.cli", "_summary_lines", True),
    ("benchmarks.problem_build", "stochfp.cli", "_build_problem", True),
    ("benchmarks.problem_build", "stochfp.benchmarks", "two_halfspace_problem", True),
    ("benchmarks.problem_build", "stochfp.benchmarks", "random_halfspace_problem", True),
    ("benchmarks.problem_build", "stochfp.benchmarks", "random_quadratic_problem", True),
    ("diagnostics.oracle", "stochfp.diagnostics", "resolve_oracle", True),
    ("diagnostics.oracle", "stochfp.diagnostics", "oracle_feasibility", True),
    ("diagnostics.oracle", "stochfp.diagnostics", "oracle_quadratic", True),
    ("diagnostics.ensemble", "stochfp.diagnostics", "ensemble", True),
    ("diagnostics.sigma_sq", "stochfp.diagnostics", "estimate_sigma_sq", True),
    ("diagnostics.sigma_sq", "stochfp.diagnostics", "default_probes", True),
    ("diagnostics.sigma_sq", "stochfp.diagnostics", "sample_ball", True),
    ("diagnostics.fit_rate", "stochfp.diagnostics", "fit_rate", True),
    ("diagnostics.constants", "stochfp.diagnostics", "theorem_constants", True),
    ("diagnostics.constants", "stochfp.diagnostics", "averaged_rate_bound", True),
    ("diagnostics.constants", "stochfp.diagnostics", "predicted_rate_exponent", True),
    ("solvers.run", "stochfp.solvers", "run", True),
    ("solvers.update", "stochfp.solvers", "halpern_step", False),
    ("solvers.update", "stochfp.solvers", "km_step", False),
    ("sampling.iteration_rng", "stochfp.sampling", "iteration_rng", False),
    ("sampling.batch_api", "stochfp.sampling", "sample_batch", False),
    ("sampling.batch_api", "stochfp.sampling", "apply_mini_batch", False),
    ("schedules.step_at", "stochfp.schedules", "StepSchedule.at", False),
    ("schedules.step_at", "stochfp.schedules", "step_at", False),
    ("schedules.batch_at", "stochfp.schedules", "BatchSchedule.at", False),
    ("schedules.batch_at", "stochfp.schedules", "batch_at", False),
    ("schedules.validate", "stochfp.schedules", "validate", True),
    ("mappings.eval_all", "stochfp.mappings", "ProjectionFamily.eval_all", False),
    ("mappings.eval_all", "stochfp.mappings", "GradientFamily.eval_all", False),
    ("mappings.eval_all", "stochfp.mappings", "AveragedFamily.eval_all", False),
    ("mappings.lipschitz", "stochfp.mappings", "QuadraticTerm.lipschitz", False),
    ("mappings.lipschitz", "stochfp.mappings", "power_iteration_largest_eig", False),
    ("mappings.build", "stochfp.mappings", "make_projection_family", True),
    ("mappings.build", "stochfp.mappings", "make_gradient_family", True),
    ("mappings.build", "stochfp.mappings", "make_averaged", True),
    ("mappings.build", "stochfp.mappings", "project_halfspace", False),
]

# Layers the solve phase (the ensemble call) is broken down into.
SOLVE_LAYERS = ("sampling", "schedules", "solvers", "mappings", "diagnostics")


class _TimedGenerator:
    """Generator proxy whose ``multinomial`` runs through a timed span."""

    __slots__ = ("_gen", "_multinomial")

    def __init__(self, gen, multinomial):
        self._gen = gen
        self._multinomial = multinomial

    def multinomial(self, *args, **kwargs):
        return self._multinomial(self._gen, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def _eval_cost(family, result) -> tuple[float, float]:
    """Computed flops and bytes of one ``eval_all`` call, from array shapes.

    Bytes count each operand array read once and the result written once;
    cache behaviour is ignored, so both numbers are labelled computed.
    """
    n, d = result.shape
    own = [v for v in vars(family).values() if isinstance(v, np.ndarray)]
    read = sum(a.nbytes for a in own) + 8 * d
    if hasattr(family, "_G"):          # x - G x + h: one matvec per component
        flops = 2 * n * d * d + 2 * n * d
    elif hasattr(family, "_A"):        # halfspace projections
        flops = 4 * n * d + 3 * n
    else:                              # blend or unknown: elementwise work
        flops = 3 * n * d
    return float(flops), float(read + result.nbytes)


def install(tracer) -> None:
    """Wrap every target of ``TARGETS`` on the already imported stochfp."""
    ctx = tracer.ctx
    counters = tracer.counters
    cost_cache: dict = {}

    def run_before(args, kwargs):
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        ctx["record_every"] = int(getattr(cfg, "record_every", 1) or 1)

    def run_after(args, kwargs, result):
        ks = getattr(result, "ks", None)
        if ks is not None:
            counters["rows_recorded"] += len(ks)
        return result

    def multinomial_after(args, kwargs, counts):
        b = args[1] if len(args) > 1 else kwargs.get("n", 0)
        counters["draws"] += float(b)
        if ctx.get("k", 0) % ctx.get("record_every", 1):
            counts = np.asarray(counts)
            counters["rows_unused"] += counts.size - np.count_nonzero(counts)
        return counts

    timed_multinomial = tracer.timed(
        "sampling.multinomial", lambda gen, *a, **kw: gen.multinomial(*a, **kw),
        after=multinomial_after)

    def rng_after(args, kwargs, gen):
        ctx["k"] = int(args[1]) if len(args) > 1 else int(kwargs.get("k", 0))
        return _TimedGenerator(gen, timed_multinomial)

    def eval_after(args, kwargs, result):
        family = args[0]
        key = (id(family), result.shape)
        cost = cost_cache.get(key)
        if cost is None:
            cost = cost_cache[key] = _eval_cost(family, result)
        counters["flops_computed"] += cost[0]
        counters["bytes_computed"] += cost[1]
        if tracer.parent != "mappings.eval_all":   # nested blends count rows once
            counters["rows_evaluated"] += result.shape[0]
        return result

    def oracle_after(args, kwargs, result):
        counters["oracle_sweeps"] += float(getattr(result, "iterations", None) or 0)
        return result

    hooks = {
        "run": {"before": run_before, "after": run_after},
        "iteration_rng": {"after": rng_after},
        "oracle_feasibility": {"after": oracle_after},
        "oracle_quadratic": {"after": oracle_after},
    }
    for name, module, attr, log in TARGETS:
        extra = dict(hooks.get(attr, {}))
        if attr.endswith(".eval_all"):
            extra["after"] = eval_after
        if "." in attr:
            tracer.wrap_method(module, attr, name, log=log, **extra)
        else:
            tracer.wrap_function(module, attr, name, log=log, **extra)


# ---------------------------------------------------------------------------
# per-layer metrics: name -> (unit, kind, source)
#   "self": self seconds of span ``source`` (or the sum over a tuple of
#   spans); "calls": the call count of span ``source``;
#   "counter": a counter set by the hooks above; "child": a value measured
#   around the children; "derived": computed from several of these

LAYER_METRICS = {
    "process.import_s": ("s", "child", "import_s"),
    "cli.parse_config.self_s": ("s", "self", "cli.parse_config"),
    "cli.output.self_s": ("s", "self", "cli.output"),
    "cli.csv_bytes": ("B", "child", "csv_bytes"),
    "benchmarks.problem_build.self_s": ("s", "self", "benchmarks.problem_build"),
    "diagnostics.oracle.self_s": ("s", "self", "diagnostics.oracle"),
    "diagnostics.oracle.sweeps": ("count", "counter", "oracle_sweeps"),
    "diagnostics.ensemble.self_s": ("s", "self", "diagnostics.ensemble"),
    "diagnostics.sigma_sq.self_s": ("s", "self", "diagnostics.sigma_sq"),
    "diagnostics.fit_rate.self_s": ("s", "self", "diagnostics.fit_rate"),
    "schedules.step_at.calls": ("count", "calls", "schedules.step_at"),
    "schedules.step_at.self_s": ("s", "self", "schedules.step_at"),
    "schedules.batch_at.calls": ("count", "calls", "schedules.batch_at"),
    "schedules.batch_at.self_s": ("s", "self", "schedules.batch_at"),
    "schedules.validate.self_s": ("s", "self", "schedules.validate"),
    "sampling.iteration_rng.calls": ("count", "calls", "sampling.iteration_rng"),
    "sampling.iteration_rng.self_s": ("s", "self", "sampling.iteration_rng"),
    "sampling.multinomial.self_s": ("s", "self", "sampling.multinomial"),
    "sampling.draws": ("count", "counter", "draws"),
    "solvers.run.calls": ("count", "calls", "solvers.run"),
    "solvers.run.self_s": ("s", "self", "solvers.run"),
    "solvers.update.self_s": ("s", "self", "solvers.update"),
    "solvers.rows_recorded": ("count", "counter", "rows_recorded"),
    "mappings.eval_all.calls": ("count", "calls", "mappings.eval_all"),
    "mappings.eval_all.self_s": ("s", "self", "mappings.eval_all"),
    "mappings.rows_evaluated": ("count", "counter", "rows_evaluated"),
    "mappings.useful_row_ratio": ("ratio", "derived", None),
    "mappings.flops_computed": ("flop", "counter", "flops_computed"),
    "mappings.bytes_computed": ("B", "counter", "bytes_computed"),
    "mappings.lipschitz.self_s": ("s", "self", ("mappings.lipschitz", "mappings.build")),
    "trace.overhead_s": ("s", "derived", None),
    "diagnostics.ensemble.threads2_speedup": ("x", "derived", None),
}


def _names(source) -> tuple[str, ...]:
    return source if isinstance(source, tuple) else (source,)


def unit_metrics(trace: dict, child: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer values of one traced work unit, and the metrics left absent.

    ``trace`` is a :meth:`Tracer.export` summed over the unit's children and
    ``child`` holds ``import_s`` and ``csv_bytes`` measured around them.  The
    run-level metrics (overhead, thread speed-up) are left to the caller.
    """
    stats, counters = trace["stats"], trace["counters"]
    gone = set(trace["absent"])
    present = {name for name, module, attr, _ in TARGETS if f"{module}.{attr}" not in gone}
    if "sampling.iteration_rng" in present:
        present.add("sampling.multinomial")
    values, absent = {}, []
    for metric, (_, kind, source) in LAYER_METRICS.items():
        if kind == "child":
            values[metric] = float(child[source])
        elif kind == "counter":
            values[metric] = float(counters.get(source, 0.0))
        elif kind == "self" and present.intersection(_names(source)):
            values[metric] = sum(stats.get(n, {}).get("self_s", 0.0) for n in _names(source))
        elif kind == "calls" and source in present:
            values[metric] = float(stats.get(source, {}).get("calls", 0))
        elif kind != "derived":
            absent.append(metric)
    rows = counters.get("rows_evaluated", 0.0)
    if rows and {"mappings.eval_all", "sampling.iteration_rng"} <= present:
        values["mappings.useful_row_ratio"] = (rows - counters.get("rows_unused", 0.0)) / rows
    else:
        absent.append("mappings.useful_row_ratio")
    return values, absent


def solve_breakdown(trace: dict) -> dict[str, float]:
    """Share of the ensemble call's time spent in each layer's self time."""
    stats = trace["stats"]
    total = stats.get("diagnostics.ensemble", {}).get("total_s", 0.0)
    shares = dict.fromkeys(SOLVE_LAYERS, 0.0)
    if total <= 0.0:
        return shares
    for name, st in stats.items():
        layer = name.split(".")[0]
        if layer in shares:
            shares[layer] += st["scope_self_s"] / total
    return shares
