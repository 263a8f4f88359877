"""Child process of the benchmark: one ``stochfp run`` with phase marks.

Usage::

    python3 child.py --record OUT.json [--trace] -- run CONFIG --seed S --out PREFIX

Runs ``stochfp.cli.main`` on the arguments after ``--``, exactly as the
``stochfp`` console script does, and writes ``OUT.json`` with the import
time, the ``time.monotonic`` bounds of the solve phase (the calls into
``diagnostics.ensemble``, or ``solvers.run`` if that is gone) and the
number of iterations solved.  With ``--trace`` the per-layer tracer of
``probes`` is installed as well and its export is added to the record.
The package must be importable from the directory in ``PERFBENCH_SRC``.
"""

from __future__ import annotations

import json
import os
import sys
import time

from tracer import Tracer


def _iterations(args, kwargs) -> int:
    """Iterations solved by ``ensemble(problem, cfg, trials)`` or ``run(problem, cfg)``."""
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    trials = args[2] if len(args) > 2 else kwargs.get("trials", 1)
    return int(getattr(cfg, "iterations", 0)) * int(trials)


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, program_args = argv[:split], argv[split + 1:]
    record_path = own[own.index("--record") + 1]
    traced = "--trace" in own

    t0 = time.monotonic()
    import stochfp.cli
    import_s = time.monotonic() - t0

    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(stochfp.__file__).startswith(src + os.sep):
        print(f"stochfp was imported from {stochfp.__file__}, not from {src}",
              file=sys.stderr)
        return 90

    phase = Tracer(clock=time.monotonic)
    solved = [0]

    def count(args, kwargs):
        solved[0] += _iterations(args, kwargs)

    if not phase.wrap_function("stochfp.diagnostics", "ensemble", "solve",
                               before=count, log=True):
        phase.wrap_function("stochfp.solvers", "run", "solve", before=count, log=True)

    tracer = None
    if traced:
        import probes
        tracer = Tracer(scope="diagnostics.ensemble")
        probes.install(tracer)
    try:
        code = stochfp.cli.main(program_args)
    finally:
        if tracer is not None:
            tracer.restore()
        phase.restore()

    solve = [s for s in phase.spans if s[3] == -1]
    record = {
        "exit_code": code,
        "import_s": import_s,
        "solve_start": solve[0][1] if solve else None,
        "solve_end": solve[-1][2] if solve else None,
        "solve_s": sum(s[2] - s[1] for s in solve),
        "iterations": solved[0],
        "trace": tracer.export() if tracer is not None else None,
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
