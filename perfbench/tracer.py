"""In-memory span tracer that wraps functions from outside the traced package.

A :class:`Tracer` replaces a function or method by a timing wrapper, keeps
per-name aggregates (calls, total time, self time) plus a log of the coarse
spans, and puts every original back on :meth:`Tracer.restore`.  Self time is
a span's duration minus the time covered by the spans it called.  Self time
spent while a span named ``scope`` is open is also kept apart, so one phase
of a run can be broken down by layer.  The span stack is a plain list, so a
tracer must only see calls from one thread.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    """Span aggregates and counters for one traced process."""

    def __init__(self, clock=time.perf_counter, scope: str | None = None):
        self.clock = clock
        self.scope = scope
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, scope_self_s]
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []               # targets that no longer exist
        self.spans: list[tuple] = []              # (name, start, end, parent index)
        self.ctx: dict = {}                       # scratch state shared by hooks
        self._stack: list[list] = []              # [name, child_s, log index]
        self._patches: list[tuple] = []           # (owner, attr, original, had_own)
        self._open_scopes = [0]

    # ------------------------------------------------------------------ spans

    @property
    def parent(self) -> str | None:
        """Name of the innermost open span, or None outside every span."""
        return self._stack[-1][0] if self._stack else None

    def timed(self, name: str, fn, before=None, after=None, log: bool = False):
        """Wrapper timing ``fn`` as span ``name``.

        ``before(args, kwargs)`` runs before the span opens;
        ``after(args, kwargs, result)`` runs once it has closed and returns
        the value handed to the caller.  ``log`` keeps every span of
        this name in :attr:`spans`; hot per-iteration spans are aggregated only.
        """
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
        is_scope = name == self.scope
        open_scopes = self._open_scopes
        stack = self._stack
        clock = self.clock
        spans = self.spans

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = -1
            if log:
                index = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1][2] if stack else -1])
            frame = [name, 0.0, index]
            stack.append(frame)
            if is_scope:
                open_scopes[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if open_scopes[0]:
                    stats[3] += dt - frame[1]
                if is_scope:
                    open_scopes[0] -= 1
                if stack:
                    stack[-1][1] += dt
                if log:
                    spans[index][1] = t0
                    spans[index][2] = t1
            if after is not None:
                result = after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # --------------------------------------------------------------- patching

    def wrap_function(self, module_name: str, attr: str, name: str,
                      **hooks) -> bool:
        """Wrap a module-level function everywhere it is bound.

        Every loaded module whose name starts with the package of
        ``module_name`` and that holds the same function object (``from x
        import f`` copies the binding) gets the wrapper.  A missing module or
        attribute is recorded in :attr:`absent` and skipped.  ``hooks`` are
        the keyword arguments of :meth:`timed`.
        """
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if original is None or not callable(original):
            self.absent.append(f"{module_name}.{attr}")
            return False
        wrapper = self.timed(name, original, **hooks)
        package = module_name.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)
        return True

    def wrap_method(self, module_name: str, qualname: str, name: str,
                    **hooks) -> bool:
        """Wrap ``Class.method`` of a module on the class that defines it.

        ``hooks`` are the keyword arguments of :meth:`timed`.
        """
        module = sys.modules.get(module_name)
        cls_name, _, meth = qualname.partition(".")
        cls = getattr(module, cls_name, None) if module is not None else None
        original = cls.__dict__.get(meth) if isinstance(cls, type) else None
        if original is None or not callable(original):
            self.absent.append(f"{module_name}.{qualname}")
            return False
        self._patch(cls, meth, self.timed(name, original, **hooks))
        return True

    def _patch(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every wrapped function back, newest patch first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ----------------------------------------------------------------- export

    def export(self) -> dict:
        """Aggregates, counters and the coarse span log as plain JSON data."""
        return {
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2],
                          "scope_self_s": v[3]}
                      for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "absent": list(self.absent),
            "spans": [list(s) for s in self.spans],
        }
