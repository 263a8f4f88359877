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
``T*b`` zero-based indices, row ``t`` holding trial ``t``'s ``b``, so an
iteration costs ``O(T*b)``.  Each raw 64-bit word of the generator gives
its low and then its high 32 bits ``u``; with ``m = u*n`` the index is
``m >> 32``, accepted iff ``m mod 2**32 >= (2**32 - n) mod n``, and the
first ``T*b`` accepted ones are the draw (Lemire, "Fast random integer
generation in an interval", ACM TOMACS 2019).  NumPy's
``integers(0, n, size=(T, b))`` runs the same rule for ``n <= 2**32``, the
domain the stream admits, and draws the same indices on NumPy 2.4.6, but
the stream no longer depends on it.  Otherwise (``b >= n``) it is
``multinomial(b, [1/n] * n, size=T)``: row ``t`` is trial ``t``'s
multiplicity vector, identical in law to counting ``b`` uniform index
draws (Davis, CSDA 1993).  Either way row ``t`` is the same for every
``T > t``.  :meth:`BatchStream.draw` is the one implementation of this
rule, for a block of iterations at a time; the solvers call it, and
:func:`sample_batch` expands row 0 of its one-iteration draw.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import MappingFamily, as_point

__all__ = ["iteration_rng", "BatchStream", "BatchDraw", "sample_batch",
           "apply_mini_batch"]


def _is_index(value, bound: int) -> bool:
    """Whether ``value`` is an integer in ``[0, bound)``.

    Philox would truncate a float key or counter, silently running another
    stream, so the API boundary admits integers only.
    """
    return isinstance(value, (int, np.integer)) and 0 <= value < bound


def iteration_rng(seed: int, k: int) -> np.random.Generator:
    """Generator for iteration ``k`` of the stream ``seed``: Philox at counter ``(0, k, 0, 0)``."""
    if not _is_index(seed, 2**128):
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    if not _is_index(k, 2**64):
        raise ValueError(f"iteration k must be an integer in [0, 2**64), got {k!r}")
    return np.random.Generator(np.random.Philox(key=seed, counter=(0, k, 0, 0)))


#: largest ``n`` of the 32-bit index rule; NumPy's ``integers`` switches to a
#: 64-bit rule above it
_MAX_N = 2**32
_LOW = 0xFFFFFFFF


def _check_n(n: int) -> int:
    """``n`` as a Python int, refused outside ``[1, 2**32]``, the domain of the index rule."""
    n = operator.index(n)
    if not 1 <= n <= _MAX_N:
        raise ValueError("n must lie in [1, 2**32], the domain of the 32-bit index rule, "
                         f"got n = {n}")
    return n


def _lemire(words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's rule on the 32-bit halves of ``words``, low half first.

    Returns the candidate indices ``m >> 32`` of ``m = u*n`` and whether each
    is accepted, ``m mod 2**32 >= (2**32 - n) mod n``.  The halves are taken
    arithmetically, so the order does not depend on the byte order.
    """
    m = np.empty(2 * words.size, np.uint64)
    m[0::2] = words & _LOW
    m[1::2] = words >> 32
    m *= n
    return (m >> 32).view(np.int64), (m & _LOW) >= (_MAX_N - n) % n


def _indices(bitgen, n: int, count: int) -> np.ndarray:
    """The first ``count`` accepted :func:`_lemire` indices on the words ``bitgen`` draws next."""
    values, ok = _lemire(bitgen.random_raw(-(-count // 2)), n)
    values = values[ok]
    while values.size < count:
        more, ok = _lemire(bitgen.random_raw(-(-(count - values.size) // 2)), n)
        values = np.concatenate((values, more[ok]))
    return values[:count]


class BatchStream:
    """The batch draws of every trial on the stream ``seed``, on one reusable generator.

    :meth:`draw` resets the counter to ``(0, k, 0, 0)`` and empties the output
    buffer for each iteration ``k``, so it returns the draws of fresh
    ``iteration_rng(seed, k)`` bit for bit, whatever iterations were drawn
    before.  ``n`` outside ``[1, 2**32]`` is refused.
    """

    def __init__(self, seed: int, n: int):
        self._n = _check_n(n)
        self._gen = iteration_rng(seed, 0)
        self._bitgen = self._gen.bit_generator
        # a fresh generator's state: empty output buffer, counter (0, 0, 0, 0),
        # in Python-int words, which the state setter reads faster than arrays
        self._state = self._bitgen.state
        self._state["state"] = {k: v.tolist() for k, v in self._state["state"].items()}
        self._state["buffer"] = self._state["buffer"].tolist()
        self._pvals = None  # the uniform probabilities, built at the first count draw

    def _seek(self, k: int) -> None:
        self._state["state"]["counter"][1] = k
        self._bitgen.state = self._state

    def draw(self, k0: int, sizes: list[int], trials: int) -> list[np.ndarray]:
        """The draws of iterations ``k0, k0 + 1, ...`` at batch sizes ``sizes``.

        Entry ``j`` is iteration ``k0 + j``'s batches, row ``t`` for trial
        ``t``: ``(trials, b)`` zero-based indices for ``b < n``, else
        ``(trials, n)`` multinomial counts.  Each index draw takes its
        ``ceil(trials*b/2)`` words at its own counter, and the words of all
        of them are mapped in one :func:`_lemire` pass; an iteration with a
        rejected value among its first ``trials*b`` draws again at its
        counter through :func:`_indices`.
        """
        n = self._n
        draws = [None] * len(sizes)
        index, words = [], []
        for j, b in enumerate(sizes):
            self._seek(k0 + j)
            if b < n:
                words.append(self._bitgen.random_raw(-(-trials * b // 2)))
                index.append(j)
            else:
                if self._pvals is None:
                    self._pvals = np.full(n, 1.0 / n)
                draws[j] = self._gen.multinomial(b, self._pvals, size=trials)
        if words:
            values, ok = _lemire(np.concatenate(words), n)
            rejected = np.flatnonzero(~ok).tolist()
            start = 0
            for j, w in zip(index, words):
                end = start + trials * sizes[j]
                i = bisect_left(rejected, start)
                if i < len(rejected) and rejected[i] < end:
                    self._seek(k0 + j)
                    draws[j] = _indices(self._bitgen, n, end - start).reshape(trials, sizes[j])
                else:
                    draws[j] = values[start:end].reshape(trials, sizes[j])
                start += 2 * w.size
        return draws


@dataclass(frozen=True)
class BatchDraw:
    """One mini-batch of sampled component indices.

    ``indices`` are 1-based, each in ``[1, n]``, duplicates allowed; the
    length is the batch size.
    """

    indices: np.ndarray
    n: int

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

    Row 0 of ``BatchStream(seed, n).draw(k, [b], 1)[0]``: for ``b < n`` its
    indices in drawn order, otherwise its counts expanded to index-ascending
    indices.  So ``counts()`` returns exactly the counts that trial 0 of a
    solver run on master seed ``seed`` uses at iteration ``k``.  Distinct
    iterations or distinct seeds give independent draws.  ``n`` must lie in
    ``[1, 2**32]``; the uniform probability vector is built only for
    ``b >= n``.  ``b`` must be a positive integer, ``seed`` and ``k`` as in :func:`iteration_rng`.
    """
    if not (isinstance(b, (int, np.integer)) and b >= 1):
        raise ValueError(f"b must be an integer >= 1, got b = {b!r}")
    b = int(b)  # the draw's reshape refuses a bool b
    n = _check_n(n)
    if not _is_index(k, 2**64):
        raise ValueError(f"iteration k must be an integer in [0, 2**64), got {k!r}")
    row = BatchStream(seed, n).draw(k, [b], 1)[0][0]
    indices = row + 1 if b < n else np.repeat(np.arange(1, n + 1), row)
    return BatchDraw(indices=indices, n=n)


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
