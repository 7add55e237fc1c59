"""Directory state encoded in the spare ECC bits (Figure 5).

Widening the ECC word from 64 to 128 bits frees 14 bits per 32-byte
coherence block.  This module packs a directory entry — a 2-bit state and
a 12-bit field — into those 14 bits and unpacks it again.  The 12-bit
field is either the owner/first-sharer node id (limited-pointer scheme)
or, for widely shared lines, a coarse marker that forces broadcast
invalidation.  The coherence protocol itself lives in
:mod:`repro.coherence`; this module is only the bit-level encoding,
proving the storage claim of Section 4.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.common.errors import ConfigError
from repro.common.params import DIRECTORY_BITS_PER_BLOCK

_STATE_BITS = 2
_POINTER_BITS = DIRECTORY_BITS_PER_BLOCK - _STATE_BITS
MAX_NODE_ID = (1 << _POINTER_BITS) - 2
BROADCAST_POINTER = (1 << _POINTER_BITS) - 1


class DirState(IntEnum):
    """Home-node view of one coherence block."""

    UNOWNED = 0  # only the home memory copy exists
    SHARED = 1  # one or more read-only copies; pointer names one sharer
    EXCLUSIVE = 2  # one writable copy; pointer names the owner
    SHARED_BROADCAST = 3  # too many sharers to track; invalidate by broadcast


@dataclass(frozen=True)
class DirectoryEntry:
    """One block's directory state and pointer."""

    state: DirState = DirState.UNOWNED
    pointer: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.pointer <= BROADCAST_POINTER:
            raise ConfigError(f"pointer must fit in {_POINTER_BITS} bits")

    def encode(self) -> int:
        """Pack into the 14 spare ECC bits."""
        return (int(self.state) << _POINTER_BITS) | self.pointer

    @staticmethod
    def decode(bits: int) -> "DirectoryEntry":
        if not 0 <= bits < (1 << DIRECTORY_BITS_PER_BLOCK):
            raise ConfigError("encoded entry exceeds 14 bits")
        return DirectoryEntry(
            state=DirState(bits >> _POINTER_BITS),
            pointer=bits & BROADCAST_POINTER,
        )

