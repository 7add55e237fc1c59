"""The 256 Mbit multi-banked DRAM device: banks, timing, ECC, directory."""

from repro.dram.bank import BankAccessResult, DRAMBank
from repro.dram.device import DeviceStats, DRAMDevice
from repro.dram.directory import (
    BROADCAST_POINTER,
    MAX_NODE_ID,
    DirectoryEntry,
    DirState,
)
from repro.dram.writeback import WritebackStudyResult, writeback_study
from repro.dram.ecc import (
    check_bits_for,
    directory_bits_per_block,
    ecc_overhead_fraction,
)

__all__ = [
    "BROADCAST_POINTER",
    "BankAccessResult",
    "DRAMBank",
    "DRAMDevice",
    "DeviceStats",
    "DirState",
    "DirectoryEntry",
    "MAX_NODE_ID",
    "WritebackStudyResult",
    "writeback_study",
    "check_bits_for",
    "directory_bits_per_block",
    "ecc_overhead_fraction",
]
