"""The serial-link interconnect fabric (Section 4.2, Figure 4).

Four 2.5 Gbit/s serial links per node give 1.6 GB/s of peak I/O
bandwidth.  The MP evaluation uses the lumped end-to-end latencies of
Table 6, so this model's job is accounting: per-message-type counts and
byte volumes, link utilization against the serial-link budget, and the
point-to-point latency helper used by the system model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.common.params import COHERENCE_UNIT_BYTES, IntegratedDeviceParams
from repro.common.units import MHZ, time_for_cycles


class MessageType(Enum):
    READ_REQUEST = "read_request"
    READ_REPLY = "read_reply"  # carries a 32 B block
    WRITE_REQUEST = "write_request"
    INVALIDATE = "invalidate"
    ACK = "ack"
    WRITEBACK = "writeback"  # carries a 32 B block

    # Members are singletons, so identity hashing is exact, and unlike
    # Enum.__hash__ it runs in C: the fabric counts a message per send.
    __hash__ = object.__hash__

    @property
    def payload_bytes(self) -> int:
        if self in (MessageType.READ_REPLY, MessageType.WRITEBACK):
            return COHERENCE_UNIT_BYTES
        return 0


HEADER_BYTES = 8  # address + command + routing

# Bytes on the wire per message, header included, by type.
_MESSAGE_BYTES = {kind: HEADER_BYTES + kind.payload_bytes for kind in MessageType}


@dataclass
class FabricStats:
    messages: dict[MessageType, int] = field(default_factory=dict)
    bytes_sent: int = 0

    def record(self, kind: MessageType, count: int = 1) -> None:
        self.messages[kind] = self.messages.get(kind, 0) + count
        self.bytes_sent += count * _MESSAGE_BYTES[kind]


class Fabric:
    """Lumped-latency interconnect with bandwidth accounting."""

    def __init__(self, params: IntegratedDeviceParams | None = None) -> None:
        self.params = params or IntegratedDeviceParams()
        self.stats = FabricStats()

    def bandwidth_gbytes(self) -> float:
        """Peak I/O bandwidth of one node's links."""
        return self.params.io_bandwidth_gbytes

    def utilization(self, elapsed_cycles: int, num_nodes: int) -> float:
        """Mean fraction of aggregate link bandwidth actually used."""
        if elapsed_cycles <= 0 or num_nodes <= 0:
            return 0.0
        clock_hz = self.params.pipeline.clock_mhz * MHZ
        elapsed_seconds = time_for_cycles(elapsed_cycles, clock_hz)
        capacity = self.bandwidth_gbytes() * 1e9 * elapsed_seconds * num_nodes
        return min(1.0, self.stats.bytes_sent / capacity) if capacity else 0.0

    def reset(self) -> None:
        """Zero the counts in place, so a bound ``stats.record`` stays
        valid."""
        self.stats.messages.clear()
        self.stats.bytes_sent = 0
