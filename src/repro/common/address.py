"""Address arithmetic helpers.

Addresses are plain Python ints (byte addresses).  Caches and DRAM banks
decompose them with the helpers below; keeping the math in one place makes
the line/bank interleaving conventions auditable.
"""

from __future__ import annotations

from repro.common.units import log2_int


def index_fields(line_bytes: int, num_sets: int) -> tuple[int, int, int]:
    """``(line_shift, set_mask, tag_shift)`` for one cache geometry.

    ``(addr >> line_shift) & set_mask`` is the set index and
    ``addr >> tag_shift`` the tag; a cache computes these once rather
    than on every access.
    """
    line_shift = log2_int(line_bytes)
    return line_shift, num_sets - 1, line_shift + log2_int(num_sets)


def bank_of(addr: int, column_bytes: int, num_banks: int) -> int:
    """DRAM bank selected by column interleaving (bank = column index mod banks)."""
    return (addr >> log2_int(column_bytes)) & (num_banks - 1)
