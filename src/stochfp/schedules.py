"""Step-size and batch-size schedules and their finite-horizon validation.

Step schedules produce ``alpha_k in (0, 1]``; batch schedules produce integer
``b_k >= 1``.  Each schedule class declares its kinds and their parameters
once, in its ``KINDS`` table, which the config reader and ``describe`` read.

The convergence guarantees of the stochastic anchored iteration couple the
two: pointwise conditions such as ``1/b_k <= alpha_k^2`` plus summability of
``1/sqrt(b_k)`` (mean-square convergence) or ``1/b_k <= alpha_k`` plus
summability of ``1/b_k`` (rate bounds for the lambda-averaged variant).
:func:`validate` reports them for one pair of schedules, or the step sums
alone when there is no batch schedule.

Infinite-horizon statements (divergent step sums, summable batch sums)
cannot be checked at a finite horizon; :func:`validate` scans a finite
prefix for the pointwise conditions and certifies the tail behaviour
analytically per schedule kind.  Prefix violations are reported with the
first index from which a condition holds through the horizon, and are
treated as warnings rather than errors.  Every built-in step kind has a
divergent ``sum alpha_k`` and summable ``|alpha_{k+1} - alpha_k|`` (its
steps are monotone and ``a <= 1``), so neither condition is scanned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "StepSchedule",
    "BatchSchedule",
    "ConditionScan",
    "ValidationReport",
    "validate",
    "poly_step_sum_lower_bound",
    "lambda_poly_sq_sum_bound",
    "batch_inv_sum_bound",
    "batch_inv_sqrt_sum_bound",
]

_HUGE_BATCH = 2**62  # stand-in when an uncapped schedule overflows float range


def _above(value, low: float) -> bool:
    """Whether ``value`` is a finite number above ``low`` (not None, NaN or inf)."""
    return value is not None and low < value < math.inf


def _count(value) -> bool:
    """Whether ``value`` is a whole number ``>= 1``: ``4`` or ``4.0``, not ``2.5``."""
    return value is not None and 1 <= value < math.inf and value == int(value)


def _lambda_step_cap(lam: float) -> float:
    """Largest step the identity-blended iteration admits: ``(2*lam-1)/(2*(1-lam))``."""
    return (2.0 * lam - 1.0) / (2.0 * (1.0 - lam))


class _Kinds:
    """A schedule class's ``KINDS`` table maps each kind to its required
    ``(config key, field, converter)`` parameters, in printed order;
    ``OPTIONAL`` lists those any kind may take.  The config reader and
    :meth:`describe` read the same tables."""

    OPTIONAL = ()

    def describe(self) -> str:
        def param(key, field, conv):
            return f"{key}={format(getattr(self, field), 'd' if conv is int else 'g')}"

        optional = [" " + param(*p) for p in self.OPTIONAL if getattr(self, p[1]) is not None]
        return "".join([f"{self.kind}({', '.join(param(*p) for p in self.KINDS[self.kind])})",
                        *optional])


@dataclass(frozen=True)
class StepSchedule(_Kinds):
    """Rule producing the step size ``alpha_k`` for each iteration.

    Kinds
    -----
    poly(a):
        ``alpha_k = (k+1)^(-a)`` with ``a in (0, 1]``.
    lambda_poly(a, lam):
        ``alpha_k = (2*lam - 1) / (2*(1 - lam) * (k+1)^a)``, the scaled
        variant whose values stay below the averaged-iteration step cap
        ``(2*lam - 1) / (2*(1 - lam))``; requires ``lam in (1/2, 3/4]``.
    constant(c):
        ``alpha_k = c`` with ``c in (0, 1]``.
    """

    KINDS = {"poly": (("a", "a", float),),
             "lambda_poly": (("a", "a", float), ("lambda", "lam", float)),
             "constant": (("c", "c", float),)}

    kind: str
    a: float | None = None
    lam: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.kind == "poly":
            if self.a is None or not 0.0 < self.a <= 1.0:
                raise ValueError("poly step requires a in (0, 1]")
        elif self.kind == "lambda_poly":
            if self.a is None or not 0.0 < self.a <= 1.0:
                raise ValueError("lambda_poly step requires a in (0, 1]")
            if self.lam is None or not 0.5 < self.lam <= 0.75:
                raise ValueError("lambda_poly step requires lambda in (1/2, 3/4]")
        elif self.kind == "constant":
            if self.c is None or not 0.0 < self.c <= 1.0:
                raise ValueError("constant step requires c in (0, 1]")
        else:
            raise ValueError(f"unknown step kind {self.kind!r}")

    @classmethod
    def poly(cls, a: float) -> "StepSchedule":
        return cls(kind="poly", a=a)

    @classmethod
    def lambda_poly(cls, a: float, lam: float) -> "StepSchedule":
        return cls(kind="lambda_poly", a=a, lam=lam)

    @classmethod
    def constant(cls, c: float) -> "StepSchedule":
        return cls(kind="constant", c=c)

    def at(self, k: int) -> float:
        """Step size at iteration ``k``; always in (0, 1]."""
        if k < 0:
            raise ValueError("iteration index must be >= 0")
        return self._steps((k,))[0]

    def _steps(self, ks) -> list[float]:
        """Step sizes at the iterations ``ks``: the one formula of :meth:`at`
        and :meth:`values`.

        The powers are scalar: a vectorised ``pow`` can differ from the
        scalar one in the last bit.
        """
        if self.kind == "constant":
            return [self.c for _ in ks]
        scale = 1.0 if self.kind == "poly" else _lambda_step_cap(self.lam)
        e = -self.a
        return [scale * (k + 1.0) ** e for k in ks]

    def values(self, horizon: int) -> np.ndarray:
        """``at(k)`` for ``k < horizon``."""
        return np.array(self._steps(range(horizon)), dtype=float)

    @property
    def max_value(self) -> float:
        """Largest emitted step (attained at k=0 for the decreasing kinds)."""
        return self.at(0)

    @property
    def vanishes(self) -> bool:
        """Whether alpha_k -> 0 (true for the polynomially decreasing kinds)."""
        return self.kind in ("poly", "lambda_poly")


@dataclass(frozen=True)
class BatchSchedule(_Kinds):
    """Rule producing the mini-batch size ``b_k >= 1`` for each iteration.

    Kinds
    -----
    constant(b):       ``b_k = b``.
    polynomial(a0, b0, c): ``b_k = floor((a0*k + b0)^c)`` with ``a0, b0, c > 0``.
    exponential(b0, delta): ``b_k = floor(b0 * delta^k)`` with ``delta > 1``.

    Parameters must be finite; ``b`` and ``cap`` must be whole numbers (a
    float such as ``4.0`` is accepted, ``2.5`` is refused, not truncated).

    Emitted values are floored, clamped below at 1, and clamped above at
    ``cap`` when a cap is set.  A cap models the practical reality that batch
    sizes are only ever increased finitely; it costs the infinite-horizon
    summability certificates, which is why the validator flags cap hits.
    """

    KINDS = {"constant": (("b", "b", int),),
             "polynomial": (("a0", "a0", float), ("b0", "b0", float), ("c", "c", float)),
             "exponential": (("b0", "b0", float), ("delta", "delta", float))}
    OPTIONAL = (("cap", "cap", int),)

    kind: str
    b: int | None = None
    a0: float | None = None
    b0: float | None = None
    c: float | None = None
    delta: float | None = None
    cap: int | None = None

    def __post_init__(self):
        if self.kind == "constant":
            if not _count(self.b):
                raise ValueError(f"constant batch requires an integer b >= 1, got {self.b!r}")
            object.__setattr__(self, "b", int(self.b))
        elif self.kind == "polynomial":
            for name in ("a0", "b0", "c"):
                if not _above(getattr(self, name), 0.0):
                    raise ValueError(f"polynomial batch requires a finite {name} > 0")
        elif self.kind == "exponential":
            if not _above(self.b0, 0.0):
                raise ValueError("exponential batch requires a finite b0 > 0")
            if not _above(self.delta, 1.0):
                raise ValueError("exponential batch requires a finite delta > 1")
        else:
            raise ValueError(f"unknown batch kind {self.kind!r}")
        if self.cap is not None:
            if not _count(self.cap):
                raise ValueError(f"cap must be an integer >= 1, got {self.cap!r}")
            object.__setattr__(self, "cap", int(self.cap))

    @classmethod
    def constant(cls, b: int, cap: int | None = None) -> "BatchSchedule":
        return cls(kind="constant", b=b, cap=cap)

    @classmethod
    def polynomial(cls, a0: float, b0: float, c: float,
                   cap: int | None = None) -> "BatchSchedule":
        return cls(kind="polynomial", a0=a0, b0=b0, c=c, cap=cap)

    @classmethod
    def exponential(cls, b0: float, delta: float,
                    cap: int | None = None) -> "BatchSchedule":
        return cls(kind="exponential", b0=b0, delta=delta, cap=cap)

    def _raws(self, ks) -> list[float]:
        """Unfloored sizes at the iterations ``ks``.

        Raises OverflowError when a power leaves float range.
        """
        if self.kind == "constant":
            return [float(self.b) for _ in ks]
        if self.kind == "polynomial":
            a0, b0, c = self.a0, self.b0, self.c
            return [(a0 * k + b0) ** c for k in ks]
        b0, delta = self.b0, self.delta
        return [b0 * delta**k for k in ks]

    def _raw(self, k: int) -> float:
        try:
            return self._raws((k,))[0]
        except OverflowError:
            return math.inf

    def _emit(self, raw) -> np.ndarray:
        """Emitted sizes of unfloored ones: floored, clamped below at 1, capped."""
        out = np.maximum(np.floor(raw), 1.0)
        if self.cap is not None:
            np.minimum(out, float(self.cap), out=out)
        return out

    def _emitted(self, k: int) -> float:
        """Emitted size as a float."""
        return float(self._emit([self._raw(k)])[0])

    def at(self, k: int) -> int:
        """Emitted batch size at iteration ``k`` (integer >= 1).

        Values beyond the samplable range saturate at 2^62; partial sums use
        :meth:`values_float`, which keeps the true magnitudes.
        """
        if k < 0:
            raise ValueError("iteration index must be >= 0")
        val = self._emitted(k)
        return int(min(val, float(_HUGE_BATCH)))

    def values_float(self, horizon: int) -> np.ndarray:
        """Emitted sizes as floats (inf when an uncapped schedule overflows)."""
        try:
            raw = self._raws(range(horizon))
        except OverflowError:  # per k, inf where the power overflows
            raw = [self._raw(k) for k in range(horizon)]
        return self._emit(raw)

    def values(self, horizon: int) -> np.ndarray:
        """``at(k)`` for ``k < horizon`` as int64, saturated at 2^62 likewise."""
        return np.minimum(self.values_float(horizon), float(_HUGE_BATCH)).astype(np.int64)


def poly_step_sum_lower_bound(a: float, horizon: int) -> float:
    """Closed-form lower bound for ``sum_{k<K} (k+1)^(-a)`` certifying divergence."""
    if a == 1.0:
        return math.log(horizon + 1.0)
    return ((horizon + 1.0) ** (1.0 - a) - 1.0) / (1.0 - a)


def lambda_poly_sq_sum_bound(a: float, lam: float, horizon: int) -> float:
    """Closed-form upper bound for the squared-step partial sum of lambda_poly."""
    scale = _lambda_step_cap(lam) ** 2
    if a < 0.5:
        tail = horizon ** (1.0 - 2.0 * a) / (1.0 - 2.0 * a)
    elif a == 0.5:
        tail = 1.0 + math.log(horizon)
    else:
        tail = 2.0 * a / (2.0 * a - 1.0)
    return scale * tail


def batch_inv_sum_bound(batch: BatchSchedule) -> float | None:
    """Closed-form ``B`` for ``sum_k 1/b_k`` over the unfloored, uncapped sizes.

    For ``exponential`` it is the infinite sum of ``1/(b0*delta^k)``; for
    ``polynomial`` with ``c > 1`` it bounds the sum of ``1/(a0*k+b0)^c`` by
    ``m^(-c) * c/(c-1)`` with ``m = min(a0, b0)``, since
    ``a0*k + b0 >= m*(k+1)`` and ``zeta(c) <= c/(c-1)``.  ``None`` for
    constant batches (the sum diverges) and for polynomial batches with
    ``c <= 1``.  Flooring makes each emitted ``b_k`` smaller, and a cap
    stops its growth, so the sum over the emitted sizes may exceed ``B``;
    the validator reports that.
    """
    if batch.kind == "exponential":
        return batch.delta / ((batch.delta - 1.0) * batch.b0)
    if batch.kind == "polynomial" and batch.c > 1.0:
        return min(batch.a0, batch.b0) ** -batch.c * batch.c / (batch.c - 1.0)
    return None


def batch_inv_sqrt_sum_bound(batch: BatchSchedule) -> float | None:
    """Closed-form bound for ``sum_k 1/sqrt(b_k)`` over the unfloored, uncapped sizes.

    Obtained by applying the 1/b_k bound pattern at exponent 1/2: the
    exponential case is the exact geometric limit
    ``sqrt(delta) / ((sqrt(delta) - 1) * sqrt(b0))``; the polynomial case
    requires ``c > 2`` and gives ``m^(-c/2) * c/(c-2)``.  ``None`` when
    neither applies.  Like :func:`batch_inv_sum_bound`, it does not bound
    the sum over floored or capped sizes.
    """
    if batch.kind == "exponential":
        r = math.sqrt(batch.delta)
        return r / ((r - 1.0) * math.sqrt(batch.b0))
    if batch.kind == "polynomial" and batch.c > 2.0:
        return min(batch.a0, batch.b0) ** (-batch.c / 2.0) * batch.c / (batch.c - 2.0)
    return None


@dataclass(frozen=True)
class ConditionScan:
    """Pointwise scan of one coupling condition over ``k in [0, K)``.

    ``k0`` is the first index from which the condition holds through the end
    of the horizon (0 when it holds everywhere, None when it fails at the
    final index, i.e. "never within horizon").
    """

    name: str
    k0: int | None
    first_violation: int | None

    @property
    def holds_eventually(self) -> bool:
        return self.k0 is not None

    def describe(self) -> str:
        if self.k0 == 0:
            return f"{self.name}: holds for all k in horizon"
        if self.k0 is None:
            return (f"{self.name}: never holds through horizon "
                    f"(first violation at k={self.first_violation})")
        return (f"{self.name}: holds from k0={self.k0} onward "
                f"(first violation at k={self.first_violation})")


def _scan(name: str, ok: np.ndarray) -> ConditionScan:
    bad = np.flatnonzero(~ok)
    if bad.size == 0:
        return ConditionScan(name, 0, None)
    first_violation = int(bad[0])
    last_violation = int(bad[-1])
    k0 = last_violation + 1 if last_violation + 1 < ok.size else None
    return ConditionScan(name, k0, first_violation)


def _le(value: float, bound: float) -> str:
    """``<=`` when ``value`` is at most ``bound`` (to 1e-12 relative), else ``>``."""
    return "<=" if value <= bound * (1 + 1e-12) else ">"


@dataclass(frozen=True)
class ValidationReport:
    """Finite-horizon report of the step/batch coupling conditions.

    Pointwise scans cover ``1/b_k <= alpha_k`` and ``1/b_k <= alpha_k^2``
    (a step above the blend cap is a config error, not a scan).
    Partial sums are over the actually emitted values (floors and caps
    included).  ``batch_bound_B`` and ``root_batch_bound`` are the
    closed-form tail certificates by schedule kind, ``None`` where the kind
    certifies no summability; they are taken over the unfloored, uncapped
    sizes, so the emitted partial sums may exceed them.  Without a batch
    schedule (deterministic methods) every batch field is ``None``.
    """

    horizon: int
    sum_alpha: float
    sum_alpha_sq: float
    step_vanishes: bool
    inv_b_le_alpha: ConditionScan | None = None
    inv_b_le_alpha_sq: ConditionScan | None = None
    sum_inv_b: float | None = None
    sum_inv_sqrt_b: float | None = None
    batch_bound_B: float | None = None
    root_batch_bound: float | None = None
    cap_hit: bool = False

    def lines(self) -> list[str]:
        """Human-readable report lines for the summary and ``validate``."""
        batch = self.inv_b_le_alpha is not None
        out = [f"horizon K = {self.horizon}"]
        if batch:
            out.append(self.inv_b_le_alpha.describe())
            out.append(self.inv_b_le_alpha_sq.describe())
        out.append(f"sum alpha_k            = {self.sum_alpha:.12g}")
        out.append(f"sum alpha_k^2          = {self.sum_alpha_sq:.12g}")
        if batch:
            out.append(f"sum 1/b_k              = {self.sum_inv_b:.12g}")
            out.append(f"sum 1/sqrt(b_k)        = {self.sum_inv_sqrt_b:.12g}")
            if self.batch_bound_B is not None:
                out.append(f"closed-form B = {self.batch_bound_B:.12g} "
                           f"(sum 1/b_k {_le(self.sum_inv_b, self.batch_bound_B)} B)")
            if self.root_batch_bound is not None:
                out.append(f"root-sum bound = {self.root_batch_bound:.12g} (sum 1/sqrt(b_k) "
                           f"{_le(self.sum_inv_sqrt_b, self.root_batch_bound)} bound)")
        out.append(f"step vanishes: {self.step_vanishes}")
        if batch:
            out.append(f"1/sqrt(b_k) summable (by kind, ignoring cap): "
                       f"{self.root_batch_bound is not None}; "
                       f"1/b_k summable: {self.batch_bound_B is not None}")
            if self.cap_hit:
                out.append("warning: batch cap reached within horizon; tail "
                           "summability certificates do not apply to the capped tail")
        return out


def validate(step: StepSchedule, batch: BatchSchedule | None, horizon: int) -> ValidationReport:
    """Scan the two coupling conditions on ``1/b_k`` over ``k in [0, horizon)``.

    Infeasibility is reported, never raised: prefix violations carry the
    first index ``k0`` from which the condition holds through the horizon,
    and conditions failing at the end are marked "never within horizon".
    With ``batch=None`` only the step sums are reported.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    alphas = step.values(horizon)
    report = ValidationReport(horizon=horizon, sum_alpha=float(alphas.sum()),
                              sum_alpha_sq=float((alphas**2).sum()),
                              step_vanishes=step.vanishes)
    if batch is None:
        return report
    bs = batch.values_float(horizon)
    inv_b = 1.0 / bs
    return replace(
        report,
        inv_b_le_alpha=_scan("1/b_k <= alpha_k", inv_b <= alphas + 1e-15),
        inv_b_le_alpha_sq=_scan("1/b_k <= alpha_k^2", inv_b <= alphas**2 + 1e-15),
        sum_inv_b=float(inv_b.sum()),
        sum_inv_sqrt_b=float(np.sum(1.0 / np.sqrt(bs))),
        batch_bound_B=batch_inv_sum_bound(batch),
        root_batch_bound=batch_inv_sqrt_sum_bound(batch),
        cap_hit=batch.cap is not None and bool(np.any(bs >= batch.cap)),
    )
