"""Memory-reference traces.

A :class:`ReferenceTrace` is a pair of parallel numpy arrays — byte
addresses and write flags — plus helpers to build, combine and interleave
them.  All trace generators in this package produce these, and all cache
simulators consume them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class ReferenceTrace:
    """An ordered stream of memory references."""

    addresses: np.ndarray  # int64 byte addresses
    is_write: np.ndarray  # bool flags, parallel to addresses

    def __post_init__(self) -> None:
        addrs = np.ascontiguousarray(self.addresses, dtype=np.int64)
        writes = np.ascontiguousarray(self.is_write, dtype=bool)
        if addrs.shape != writes.shape or addrs.ndim != 1:
            raise ValueError("addresses and is_write must be parallel 1-D arrays")
        object.__setattr__(self, "addresses", addrs)
        object.__setattr__(self, "is_write", writes)

    def __len__(self) -> int:
        return int(self.addresses.size)

    def __iter__(self) -> Iterator[tuple[int, bool]]:
        return zip(self.addresses.tolist(), self.is_write.tolist())

    def __getitem__(self, item: slice) -> "ReferenceTrace":
        if not isinstance(item, slice):
            raise TypeError("traces slice to traces; use .addresses for scalars")
        return ReferenceTrace(self.addresses[item], self.is_write[item])

    @property
    def store_fraction(self) -> float:
        return float(self.is_write.mean()) if len(self) else 0.0

    @staticmethod
    def reads(addresses: np.ndarray | Sequence[int]) -> "ReferenceTrace":
        """A read-only trace over the given addresses."""
        addrs = np.asarray(addresses, dtype=np.int64)
        return ReferenceTrace(addrs, np.zeros(addrs.size, dtype=bool))

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, bool]]) -> "ReferenceTrace":
        items = list(pairs)
        if not items:
            return ReferenceTrace.empty()
        addrs, writes = zip(*items)
        return ReferenceTrace(
            np.asarray(addrs, dtype=np.int64), np.asarray(writes, dtype=bool)
        )

    @staticmethod
    def empty() -> "ReferenceTrace":
        return ReferenceTrace(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))

    @staticmethod
    def concat(traces: Sequence["ReferenceTrace"]) -> "ReferenceTrace":
        if not traces:
            return ReferenceTrace.empty()
        return ReferenceTrace(
            np.concatenate([t.addresses for t in traces]),
            np.concatenate([t.is_write for t in traces]),
        )

    def take(self, length: int) -> "ReferenceTrace":
        """First ``length`` references, cycling if the trace is shorter."""
        if length <= len(self):
            return self[:length]
        if len(self) == 0:
            raise ValueError("cannot extend an empty trace")
        reps = -(-length // len(self))
        return ReferenceTrace(
            np.tile(self.addresses, reps)[:length],
            np.tile(self.is_write, reps)[:length],
        )

    def offset(self, delta: int) -> "ReferenceTrace":
        """Shift all addresses by ``delta`` bytes."""
        return ReferenceTrace(self.addresses + delta, self.is_write)


def interleave_blocks(
    traces: Sequence[ReferenceTrace],
    weights: Sequence[float],
    block: int,
    length: int,
    rng: np.random.Generator,
) -> ReferenceTrace:
    """Mix several traces by drawing blocks of ``block`` references.

    Each block is taken from one source trace (chosen with the given
    weights), consuming that trace sequentially and cycling when a source
    runs out.  This models phase-interleaved access patterns without
    destroying each pattern's internal locality.

    The blocks are computed in closed form from one ``rng.choice`` draw
    of every block's source: the i-th block drawn from a source of
    length ``L`` spans ``(i mod ceil(L / block)) * block`` up to
    ``block`` references further, clipped to ``L`` (an empty source
    contributes nothing).  The mix stops at the first block where the
    running total reaches ``length``, is gathered with one
    :func:`expand_runs` over the concatenated sources, and cycles if it
    falls short.
    """
    if len(traces) != len(weights):
        raise ValueError("need one weight per trace")
    weights_arr = np.asarray(weights, dtype=float)
    if weights_arr.sum() <= 0:
        raise ValueError("weights must sum to a positive value")
    probs = weights_arr / weights_arr.sum()
    num_blocks = -(-length // block)
    choices = rng.choice(len(traces), size=num_blocks, p=probs)
    sizes = np.array([len(t) for t in traces], dtype=np.int64)
    # The rank of each block among the blocks drawn from its source.
    rank = np.empty(num_blocks, dtype=np.int64)
    for source in range(len(traces)):
        drawn = choices == source
        rank[drawn] = np.arange(np.count_nonzero(drawn))
    size = sizes[choices]
    cycle = np.maximum(-(-size // block), 1)
    start = rank % cycle * block
    lengths = np.minimum(start + block, size) - start
    total = np.cumsum(lengths)
    cut = int(np.searchsorted(total, length)) + 1  # blocks through the cut
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    index = expand_runs(offsets[choices[:cut]] + start[:cut], lengths[:cut],
                        step=1)
    if index.size == 0:
        return ReferenceTrace.empty()
    mixed = ReferenceTrace(
        np.concatenate([t.addresses for t in traces])[index],
        np.concatenate([t.is_write for t in traces])[index],
    )
    return mixed.take(length)


def interleave_round_robin(traces: Sequence[ReferenceTrace]) -> ReferenceTrace:
    """Merge traces element-by-element: a0, b0, c0, a1, b1, c1, ...

    This is the access pattern of vector loops like ``a[i] = b[i] + c[i]``:
    several concurrent streams advancing in lock-step.  Traces are
    truncated to the shortest length.
    """
    traces = [t for t in traces if len(t)]
    if not traces:
        return ReferenceTrace.empty()
    shortest = min(len(t) for t in traces)
    addr_matrix = np.stack([t.addresses[:shortest] for t in traces], axis=1)
    write_matrix = np.stack([t.is_write[:shortest] for t in traces], axis=1)
    return ReferenceTrace(addr_matrix.reshape(-1), write_matrix.reshape(-1))


def expand_runs(starts: np.ndarray, lengths: np.ndarray, step: int = 4) -> np.ndarray:
    """Expand (start, length) runs into a flat address array.

    Run *i* contributes ``starts[i], starts[i]+step, ...`` for
    ``lengths[i]`` elements.  This is the vectorized backbone of the
    instruction-stream and strided-data generators.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if starts.shape != lengths.shape:
        raise ValueError("starts and lengths must be parallel")
    if np.any(lengths < 0):
        raise ValueError("run lengths must be non-negative")
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    base = np.repeat(starts, lengths)
    offsets = np.arange(total, dtype=np.int64)
    run_starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    offsets -= np.repeat(run_starts, lengths)
    return base + offsets * step
