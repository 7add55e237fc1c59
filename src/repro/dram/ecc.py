"""SEC-DED check-bit arithmetic over DRAM words.

Section 4.1/4.2: the device protects memory with single-error-correct /
double-error-detect (SEC-DED) Hamming codes.  Standard practice computes
ECC over 64-bit words (8 check bits, 12.5 % overhead); the directory trick
of Figure 5 widens the code word to 128 bits (9 check bits), freeing
``32 - 18 = 14`` bits per 32-byte coherence block for directory state.

This module computes the check-bit cost of an extended Hamming code
(Hamming check bits plus one overall parity bit) at a given word width,
and from it the directory bits and the memory-size overhead.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.common.units import bits_for_bytes


def check_bits_for(data_bits: int) -> int:
    """Check bits for SEC-DED over ``data_bits``: Hamming + overall parity."""
    if data_bits <= 0:
        raise ConfigError("data width must be positive")
    r = 0
    while (1 << r) < data_bits + r + 1:
        r += 1
    return r + 1  # +1 for the overall (DED) parity bit


def directory_bits_per_block(block_bytes: int = 32) -> int:
    """Directory bits freed by widening ECC words from 64 to 128 bits.

    A 32-byte block holds four 64-bit words (4 x 8 = 32 check bits) or two
    128-bit words (2 x 9 = 18 check bits); the difference, 14 bits, stores
    the directory state and pointer (Figure 5).
    """
    block_bits = bits_for_bytes(block_bytes)
    narrow = (block_bits // 64) * check_bits_for(64)
    wide = (block_bits // 128) * check_bits_for(128)
    return narrow - wide


def ecc_overhead_fraction(word_bits: int = 64) -> float:
    """Memory-size overhead of ECC at the given word width.

    64-bit words cost 8/64 = 12.5 %, the paper's "12 % memory-size
    increase"; 128-bit words cost 9/128 = 7 %.
    """
    return check_bits_for(word_bits) / word_bits
