"""Thread-pool speed-up of ``ensemble`` on the twohalf_ensemble shape.

Usage::

    python3 threads.py SEED

Times ``ensemble(..., n_jobs=2)`` against ``n_jobs=1`` on the two-halfspace
problem with the twohalf_ensemble schedules (shortened horizon), alternating
the two, and prints one JSON line with the median times, their ratio, and
whether both thread counts gave identical statistics; ``{"absent": true}``
once ``ensemble`` no longer takes ``n_jobs``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from stochfp import (BatchSchedule, SolverConfig, StepSchedule, ensemble,
                     two_halfspace_problem)

TRIALS = 4
ITERATIONS = 2500
REPEATS = 2


def main(argv: list[str]) -> int:
    problem = two_halfspace_problem()
    cfg = SolverConfig(method="stoch_halpern", step=StepSchedule.poly(0.5),
                       batch=BatchSchedule.exponential(4, 1.01, cap=2**16),
                       iterations=ITERATIONS, seed=int(argv[0]), record_every=1)
    times = {1: [], 2: []}
    results = {}
    for _ in range(REPEATS):
        for jobs in (1, 2):
            t0 = time.perf_counter()
            try:
                results[jobs] = ensemble(problem, cfg, trials=TRIALS, n_jobs=jobs)
            except TypeError:          # the thread-pool parameter was removed
                print(json.dumps({"absent": True}))
                return 0
            times[jobs].append(time.perf_counter() - t0)
    a, b = results[1], results[2]
    same = all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("residual_mean", "residual_se", "msq_dist_mean", "msq_dist_se"))
    t1, t2 = statistics.median(times[1]), statistics.median(times[2])
    print(json.dumps({"serial_s": t1, "threads2_s": t2, "speedup": t1 / t2,
                      "identical": same}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
