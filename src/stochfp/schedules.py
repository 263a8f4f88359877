"""Step-size and batch-size schedules and their finite-horizon validation.

Step schedules produce ``alpha_k in (0, 1]``; batch schedules produce integer
``b_k >= 1``.  The convergence guarantees of the stochastic anchored
iteration couple the two: pointwise conditions such as ``1/b_k <= alpha_k^2``
plus summability of ``1/sqrt(b_k)`` (mean-square convergence) or
``1/b_k <= alpha_k`` plus summability of ``1/b_k`` (rate bounds for the
lambda-averaged variant).

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
from dataclasses import dataclass

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


def _lambda_step_cap(lam: float) -> float:
    """Largest step the identity-blended iteration admits: ``(2*lam-1)/(2*(1-lam))``."""
    return (2.0 * lam - 1.0) / (2.0 * (1.0 - lam))


@dataclass(frozen=True)
class StepSchedule:
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

    @property
    def km_sum_diverges(self) -> bool:
        """Whether sum(alpha_k * (1 - alpha_k)) diverges (averaged-iteration condition)."""
        if self.kind == "constant":
            return 0.0 < self.c < 1.0
        return True

    def describe(self) -> str:
        if self.kind == "poly":
            return f"poly(a={self.a:g})"
        if self.kind == "lambda_poly":
            return f"lambda_poly(a={self.a:g}, lambda={self.lam:g})"
        return f"constant(c={self.c:g})"


@dataclass(frozen=True)
class BatchSchedule:
    """Rule producing the mini-batch size ``b_k >= 1`` for each iteration.

    Kinds
    -----
    constant(b):       ``b_k = b``.
    polynomial(a0, b0, c): ``b_k = floor((a0*k + b0)^c)`` with ``a0, b0, c > 0``.
    exponential(b0, delta): ``b_k = floor(b0 * delta^k)`` with ``delta > 1``.

    Emitted values are floored, clamped below at 1, and clamped above at
    ``cap`` when a cap is set.  A cap models the practical reality that batch
    sizes are only ever increased finitely; it costs the infinite-horizon
    summability certificates, which is why the validator flags cap hits.
    """

    kind: str
    b: int | None = None
    a0: float | None = None
    b0: float | None = None
    c: float | None = None
    delta: float | None = None
    cap: int | None = None

    def __post_init__(self):
        if self.kind == "constant":
            if self.b is None or int(self.b) < 1:
                raise ValueError("constant batch requires b >= 1")
            object.__setattr__(self, "b", int(self.b))
        elif self.kind == "polynomial":
            if self.a0 is None or self.a0 <= 0.0:
                raise ValueError("polynomial batch requires a0 > 0")
            if self.b0 is None or self.b0 <= 0.0:
                raise ValueError("polynomial batch requires b0 > 0")
            if self.c is None or self.c <= 0.0:
                raise ValueError("polynomial batch requires c > 0")
        elif self.kind == "exponential":
            if self.b0 is None or self.b0 <= 0.0:
                raise ValueError("exponential batch requires b0 > 0")
            if self.delta is None or self.delta <= 1.0:
                raise ValueError("exponential batch requires delta > 1")
        else:
            raise ValueError(f"unknown batch kind {self.kind!r}")
        if self.cap is not None:
            if int(self.cap) < 1:
                raise ValueError("cap must be >= 1")
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

    @property
    def inv_sqrt_summable(self) -> bool:
        """Analytic certificate for sum(1/sqrt(b_k)) < infinity, ignoring any cap."""
        if self.kind == "exponential":
            return True
        if self.kind == "polynomial":
            return self.c > 2.0
        return False

    @property
    def inv_summable(self) -> bool:
        """Analytic certificate for sum(1/b_k) < infinity, ignoring any cap."""
        if self.kind == "exponential":
            return True
        if self.kind == "polynomial":
            return self.c > 1.0
        return False

    def describe(self) -> str:
        if self.kind == "constant":
            s = f"constant(b={self.b})"
        elif self.kind == "polynomial":
            s = f"polynomial(a0={self.a0:g}, b0={self.b0:g}, c={self.c:g})"
        else:
            s = f"exponential(b0={self.b0:g}, delta={self.delta:g})"
        if self.cap is not None:
            s += f" cap={self.cap}"
        return s


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
    """Closed-form bound ``B`` on ``sum_k 1/b_k`` for the increasing kinds.

    ``None`` for constant batches (the sum diverges) and for polynomial
    batches with ``c <= 1``.  The bound ignores any cap; a capped schedule
    eventually exceeds it, which the validator reports.
    """
    if batch.kind == "exponential":
        return batch.delta / ((batch.delta - 1.0) * batch.b0)
    if batch.kind == "polynomial" and batch.c > 1.0:
        return (2.0 * batch.c - 1.0) / ((batch.c - 1.0) * min(batch.a0, batch.b0))
    return None


def batch_inv_sqrt_sum_bound(batch: BatchSchedule) -> float | None:
    """Closed-form bound on ``sum_k 1/sqrt(b_k)`` for the increasing kinds.

    Obtained by applying the 1/b_k bound pattern at exponent 1/2: the
    exponential case is the exact geometric limit
    ``sqrt(delta) / ((sqrt(delta) - 1) * sqrt(b0))``; the polynomial case
    requires ``c > 2``.
    """
    if batch.kind == "exponential":
        r = math.sqrt(batch.delta)
        return r / ((r - 1.0) * math.sqrt(batch.b0))
    if batch.kind == "polynomial" and batch.c > 2.0:
        return 2.0 * (batch.c - 1.0) / ((batch.c - 2.0) * min(batch.a0, batch.b0))
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
    def holds_everywhere(self) -> bool:
        return self.k0 == 0

    @property
    def holds_eventually(self) -> bool:
        return self.k0 is not None

    def describe(self) -> str:
        if self.holds_everywhere:
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


@dataclass(frozen=True)
class ValidationReport:
    """Finite-horizon report of the step/batch coupling conditions.

    Pointwise scans cover ``1/b_k <= alpha_k``, ``1/b_k <= alpha_k^2`` and,
    when a blend weight is supplied, ``alpha_k <= (2*lam-1)/(2*(1-lam))``.
    Partial sums are over the actually emitted values (floors and caps
    included); the analytic flags certify tail behaviour by schedule kind.
    """

    horizon: int
    inv_b_le_alpha: ConditionScan
    inv_b_le_alpha_sq: ConditionScan
    alpha_le_lambda_bound: ConditionScan | None
    sum_alpha: float
    sum_alpha_sq: float
    sum_inv_b: float
    sum_inv_sqrt_b: float
    batch_bound_B: float | None
    sum_inv_b_le_B: bool | None
    root_batch_bound: float | None
    sum_inv_sqrt_b_le_root_bound: bool | None
    step_vanishes: bool
    km_step_sum_diverges: bool
    batch_inv_sqrt_summable: bool
    batch_inv_summable: bool
    cap_hit: bool
    step_max: float

    def lines(self, include_batch: bool = True) -> list[str]:
        """Human-readable report lines for summaries and validate output.

        ``include_batch=False`` drops the batch-coupling lines, for
        deterministic methods where no batch schedule is in play.
        """
        out = [f"horizon K = {self.horizon}"]
        if include_batch:
            out.append(self.inv_b_le_alpha.describe())
            out.append(self.inv_b_le_alpha_sq.describe())
        if self.alpha_le_lambda_bound is not None:
            out.append(self.alpha_le_lambda_bound.describe())
        out.append(f"sum alpha_k            = {self.sum_alpha:.12g}")
        out.append(f"sum alpha_k^2          = {self.sum_alpha_sq:.12g}")
        if include_batch:
            out.append(f"sum 1/b_k              = {self.sum_inv_b:.12g}")
            out.append(f"sum 1/sqrt(b_k)        = {self.sum_inv_sqrt_b:.12g}")
            if self.batch_bound_B is not None:
                ok = "<=" if self.sum_inv_b_le_B else ">"
                out.append(f"closed-form B = {self.batch_bound_B:.12g} "
                           f"(sum 1/b_k {ok} B)")
            if self.root_batch_bound is not None:
                ok = "<=" if self.sum_inv_sqrt_b_le_root_bound else ">"
                out.append(f"root-sum bound = {self.root_batch_bound:.12g} "
                           f"(sum 1/sqrt(b_k) {ok} bound)")
        out.append(f"step vanishes: {self.step_vanishes}")
        out.append(f"sum alpha(1-alpha) diverges: {self.km_step_sum_diverges}")
        if include_batch:
            out.append(f"1/sqrt(b_k) summable (by kind, ignoring cap): "
                       f"{self.batch_inv_sqrt_summable}; "
                       f"1/b_k summable: {self.batch_inv_summable}")
            if self.cap_hit:
                out.append("warning: batch cap reached within horizon; tail "
                           "summability certificates do not apply to the capped tail")
        return out


def validate(step: StepSchedule, batch: BatchSchedule, horizon: int,
             lam: float | None = None) -> ValidationReport:
    """Scan the coupling conditions over ``k in [0, horizon)``.

    Infeasibility is reported, never raised: prefix violations carry the
    first index ``k0`` from which the condition holds through the horizon,
    and conditions failing at the end are marked "never within horizon".
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    alphas = step.values(horizon)
    bs = batch.values_float(horizon)
    inv_b = 1.0 / bs
    lam_scan = None
    if lam is not None:
        lam_scan = _scan("alpha_k <= (2*lam-1)/(2*(1-lam))",
                         alphas <= _lambda_step_cap(lam) + 1e-15)

    big_b = batch_inv_sum_bound(batch)
    root_b = batch_inv_sqrt_sum_bound(batch)
    sum_inv_b = float(inv_b.sum())
    sum_inv_sqrt_b = float(np.sum(1.0 / np.sqrt(bs)))
    cap_hit = batch.cap is not None and bool(np.any(bs >= batch.cap))

    return ValidationReport(
        horizon=horizon,
        inv_b_le_alpha=_scan("1/b_k <= alpha_k", inv_b <= alphas + 1e-15),
        inv_b_le_alpha_sq=_scan("1/b_k <= alpha_k^2", inv_b <= alphas**2 + 1e-15),
        alpha_le_lambda_bound=lam_scan,
        sum_alpha=float(alphas.sum()),
        sum_alpha_sq=float((alphas**2).sum()),
        sum_inv_b=sum_inv_b,
        sum_inv_sqrt_b=sum_inv_sqrt_b,
        batch_bound_B=big_b,
        sum_inv_b_le_B=None if big_b is None else bool(sum_inv_b <= big_b * (1 + 1e-12)),
        root_batch_bound=root_b,
        sum_inv_sqrt_b_le_root_bound=(
            None if root_b is None else bool(sum_inv_sqrt_b <= root_b * (1 + 1e-12))
        ),
        step_vanishes=step.vanishes,
        km_step_sum_diverges=step.km_sum_diverges,
        batch_inv_sqrt_summable=batch.inv_sqrt_summable,
        batch_inv_summable=batch.inv_summable,
        cap_hit=cap_hit,
        step_max=step.max_value,
    )
