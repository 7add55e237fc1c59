"""Address arithmetic helpers.

Addresses are plain Python ints (byte addresses).  Caches and DRAM banks
decompose them with the helpers below; keeping the math in one place makes
the line/bank interleaving conventions auditable.
"""

from __future__ import annotations

import numpy as np

from repro.common.units import log2_int


def line_address(addr: int, line_bytes: int) -> int:
    """Address of the cache line containing ``addr``."""
    return addr & ~(line_bytes - 1)


def line_index(addr: int, line_bytes: int) -> int:
    """Sequential index of the line containing ``addr``."""
    return addr >> log2_int(line_bytes)


def set_index(addr: int, line_bytes: int, num_sets: int) -> int:
    """Cache set selected by ``addr`` for the given geometry."""
    return (addr >> log2_int(line_bytes)) & (num_sets - 1)


def tag_of(addr: int, line_bytes: int, num_sets: int) -> int:
    """Tag bits above the set index."""
    return addr >> (log2_int(line_bytes) + log2_int(num_sets))


def index_fields(line_bytes: int, num_sets: int) -> tuple[int, int, int]:
    """``(line_shift, set_mask, tag_shift)`` for one cache geometry.

    ``(addr >> line_shift) & set_mask`` is :func:`set_index` and
    ``addr >> tag_shift`` is :func:`tag_of`; a cache computes these once
    rather than on every access.
    """
    line_shift = log2_int(line_bytes)
    return line_shift, num_sets - 1, line_shift + log2_int(num_sets)


def bank_of(addr: int, column_bytes: int, num_banks: int) -> int:
    """DRAM bank selected by column interleaving (bank = column index mod banks)."""
    return (addr >> log2_int(column_bytes)) & (num_banks - 1)


def sub_block(addr: int, line_bytes: int, sub_bytes: int) -> int:
    """Index of the ``sub_bytes`` block inside its ``line_bytes`` line."""
    return (addr & (line_bytes - 1)) >> log2_int(sub_bytes)


def vector_set_index(addrs: np.ndarray, line_bytes: int, num_sets: int) -> np.ndarray:
    """Vectorized :func:`set_index` over an int64 address array."""
    return (addrs >> log2_int(line_bytes)) & (num_sets - 1)


def vector_tag(addrs: np.ndarray, line_bytes: int, num_sets: int) -> np.ndarray:
    """Vectorized :func:`tag_of` over an int64 address array."""
    return addrs >> (log2_int(line_bytes) + log2_int(num_sets))
