"""Seeded i.i.d. index sampling on a counter-based stream, and mini-batch means.

Indices are drawn uniformly on ``{1, ..., n}`` with replacement.  Iteration
``k`` of the stream ``seed`` is the Philox counter-based generator (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11) keyed by
``seed`` with counter ``(0, k, 0, 0)``; its draws advance only the first
counter word, so each ``(seed, k)`` owns a disjoint block of ``2**64``
outputs.  Changing the batch size at one iteration therefore never perturbs
the draws at any other iteration, and identical ``(seed, k, n, b)`` always
reproduce the same draw bit for bit.

The mini-batches of ``T`` trials at iteration ``k`` are one draw on
``iteration_rng(seed, k)``, chosen by one rule.  For ``b < n`` it is
``integers(0, n, size=(T, b))``: row ``t`` holds trial ``t``'s ``b``
zero-based indices, so an iteration costs ``O(T*b)``.  Otherwise it is
``multinomial(b, [1/n] * n, size=T)``: row ``t`` is trial ``t``'s
multiplicity vector, identical in law to counting ``b`` uniform index
draws (Davis, CSDA 1993).  Either way row ``t`` is the same for every
``T > t``.  The solvers and :func:`sample_batch` (which expands row 0) share
this one definition, :class:`BatchStream`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MappingFamily, as_point

__all__ = ["iteration_rng", "BatchStream", "BatchDraw", "sample_batch",
           "apply_mini_batch"]


def iteration_rng(seed: int, k: int) -> np.random.Generator:
    """Generator for iteration ``k`` of the stream ``seed``: Philox at counter ``(0, k, 0, 0)``."""
    return np.random.Generator(np.random.Philox(key=seed, counter=(0, k, 0, 0)))


class BatchStream:
    """The batch draws of every trial on the stream ``seed``, on one reusable generator.

    :meth:`draw` resets the counter to ``(0, k, 0, 0)`` and empties the output
    buffer, so it returns the draw of a fresh ``iteration_rng(seed, k)`` bit
    for bit, whatever iterations were drawn before.
    """

    def __init__(self, seed: int, n: int):
        self._gen = iteration_rng(seed, 0)
        # a fresh generator's state: empty output buffer, counter (0, 0, 0, 0)
        self._state = self._gen.bit_generator.state
        self._n = n
        self._pvals = np.full(n, 1.0 / n)

    def draw(self, k: int, b: int, trials: int) -> np.ndarray:
        """Iteration ``k``'s batches; row ``t`` is trial ``t``.

        For ``b < n`` the ``(trials, b)`` zero-based indices
        ``integers(0, n, size=(trials, b))``, otherwise the ``(trials, n)``
        multiplicity vectors ``multinomial(b, [1/n] * n, size=trials)``.
        """
        self._state["state"]["counter"][1] = k
        self._gen.bit_generator.state = self._state
        if b < self._n:
            return self._gen.integers(0, self._n, size=(trials, b))
        return self._gen.multinomial(b, self._pvals, size=trials)


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
    """Trial 0's draw at iteration ``k`` of stream ``seed``, as ``b`` indices on ``[1, n]``.

    Row 0 of :meth:`BatchStream.draw`: for ``b < n`` its indices in drawn
    order, otherwise its counts expanded to index-ascending indices.  So
    ``counts()`` returns exactly the counts that trial 0 of a solver run on
    master seed ``seed`` uses at iteration ``k``.  Distinct iterations or
    distinct seeds give independent draws.
    """
    if n < 1 or b < 1:
        raise ValueError("n and b must be >= 1")
    row = BatchStream(seed, n).draw(k, b, 1)[0]
    indices = row + 1 if b < n else np.repeat(np.arange(1, n + 1), row)
    return BatchDraw(indices=indices, n=n, k=k, seed=seed)


def apply_mini_batch(family: MappingFamily, draw: BatchDraw, x) -> np.ndarray:
    """Arithmetic mean of the drawn components at ``x``.

    Only the drawn components are evaluated, through
    :meth:`MappingFamily.sampled_mean`, so one that is not drawn cannot
    poison the mean.
    """
    if draw.n != family.n:
        raise ValueError(f"draw was taken over {draw.n} components, family has {family.n}")
    xa = as_point(x, dim=family.dim)
    return family.sampled_mean(xa[None, :], draw.indices[None, :] - 1)[0]
