"""Seeded i.i.d. index sampling on a counter-based stream, and mini-batch means.

Indices are drawn uniformly on ``{1, ..., n}`` with replacement.  Iteration
``k`` of the stream ``seed`` is the Philox counter-based generator (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11) keyed by
``seed`` with counter ``(0, k, 0, 0)``; its draws advance only the first
counter word, so each ``(seed, k)`` owns a disjoint block of ``2**64``
outputs.  Changing the batch size at one iteration therefore never perturbs
the draws at any other iteration, and identical ``(seed, k, n, b)`` always
reproduce the same draw bit for bit.

A mini-batch of size ``b`` is the multiplicity vector
``iteration_rng(seed, k).multinomial(b, [1/n] * n)``, identical in law to
counting ``b`` uniform index draws.  :func:`sample_batch` and the solvers
share this one definition: the solvers' :class:`TrialStreams` move one
generator per trial to iteration ``k`` in place instead of building a new
one, and draw exactly what a fresh ``iteration_rng(seed, k)`` draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MappingFamily, as_point

__all__ = ["iteration_rng", "TrialStreams", "BatchDraw", "sample_batch",
           "apply_mini_batch"]


def iteration_rng(seed: int, k: int) -> np.random.Generator:
    """Generator for iteration ``k`` of the stream ``seed``: Philox at counter ``(0, k, 0, 0)``."""
    return np.random.Generator(np.random.Philox(key=seed, counter=(0, k, 0, 0)))


class TrialStreams:
    """The iteration streams of several trial seeds, one reusable generator each.

    :meth:`draw` resets each generator's counter to iteration ``k`` through
    ``bit_generator.state`` (which also empties its output buffer), so row
    ``t`` of a draw equals ``iteration_rng(seeds[t], k).multinomial(b, pvals)``
    bit for bit.  A trial's draws depend only on its own seed, never on the
    other seeds or on their number.
    """

    def __init__(self, seeds, n: int):
        self._gens = [iteration_rng(int(s), 0) for s in seeds]
        # a fresh generator's state: empty output buffer, counter (0, 0, 0, 0)
        self._states = [g.bit_generator.state for g in self._gens]
        self._pvals = np.full(n, 1.0 / n)

    def draw(self, k: int, b: int, out: np.ndarray) -> None:
        """Write each trial's multiplicity vector of iteration ``k`` into row ``t`` of ``out``."""
        pvals = self._pvals
        for t, (gen, state) in enumerate(zip(self._gens, self._states)):
            state["state"]["counter"][1] = k
            gen.bit_generator.state = state
            out[t] = gen.multinomial(b, pvals)


@dataclass(frozen=True)
class BatchDraw:
    """One mini-batch of sampled component indices.

    ``indices`` are 1-based, each in ``[1, n]``, duplicates allowed; the
    length is the batch size.  ``k`` and ``seed`` locate the draw in the
    run's random stream.
    """

    indices: np.ndarray
    n: int
    k: int
    seed: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size < 1:
            raise ValueError("a draw must contain at least one index")
        if idx.min() < 1 or idx.max() > self.n:
            raise ValueError(f"indices must lie in [1, {self.n}]")
        object.__setattr__(self, "indices", idx)

    @property
    def batch_size(self) -> int:
        return self.indices.size

    def counts(self) -> np.ndarray:
        """Occurrences of each component, index-ascending; length ``n``."""
        return np.bincount(self.indices - 1, minlength=self.n)


def sample_batch(seed: int, k: int, n: int, b: int) -> BatchDraw:
    """The solvers' draw at iteration ``k`` of stream ``seed``, as ``b`` indices on ``[1, n]``.

    The multiplicity vector ``iteration_rng(seed, k).multinomial(b, 1/n)``
    is expanded to index-ascending indices, so ``counts()`` returns exactly
    the counts a solver run with trial seed ``seed`` uses at iteration ``k``.
    Distinct iterations or distinct seeds give independent draws.
    """
    if n < 1 or b < 1:
        raise ValueError("n and b must be >= 1")
    counts = iteration_rng(seed, k).multinomial(b, np.full(n, 1.0 / n))
    return BatchDraw(indices=np.repeat(np.arange(1, n + 1), counts), n=n, k=k, seed=seed)


def apply_mini_batch(family: MappingFamily, draw: BatchDraw, x) -> np.ndarray:
    """Arithmetic mean of the drawn components at ``x``.

    Equal indices are grouped first (index-ascending), so the result is
    ``sum_i (c_i / b) * T_i(x)`` with ``c_i`` the draw counts; this matches
    the plain sequential mean exactly in real arithmetic.
    """
    if draw.n != family.n:
        raise ValueError(f"draw was taken over {draw.n} components, family has {family.n}")
    xa = as_point(x, dim=family.dim)
    weights = draw.counts() / draw.batch_size
    return family.weighted_mean(xa[None, :], weights[None, None, :])[0, 0]
