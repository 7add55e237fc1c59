import pytest

from repro.interconnect.fabric import HEADER_BYTES, Fabric, MessageType


class TestMessageAccounting:
    def test_payload_sizes(self):
        assert MessageType.READ_REPLY.payload_bytes == 32
        assert MessageType.WRITEBACK.payload_bytes == 32
        assert MessageType.READ_REQUEST.payload_bytes == 0
        assert MessageType.INVALIDATE.payload_bytes == 0

    def test_byte_counting(self):
        fabric = Fabric()
        fabric.stats.record(MessageType.READ_REQUEST)
        fabric.stats.record(MessageType.READ_REPLY)
        assert fabric.stats.bytes_sent == 2 * HEADER_BYTES + 32

    def test_bulk_send(self):
        fabric = Fabric()
        fabric.stats.record(MessageType.INVALIDATE, count=5)
        assert fabric.stats.messages[MessageType.INVALIDATE] == 5

    def test_reset(self):
        fabric = Fabric()
        fabric.stats.record(MessageType.ACK)
        fabric.reset()
        assert fabric.stats.bytes_sent == 0

    def test_reset_keeps_a_bound_record_counting(self):
        """``MPSystem`` binds ``stats.record`` once; a reset must not
        leave it counting into a discarded stats object."""
        fabric = Fabric()
        record = fabric.stats.record
        record(MessageType.ACK)
        fabric.reset()
        assert fabric.stats.messages == {}
        record(MessageType.READ_REPLY)
        assert fabric.stats.messages == {MessageType.READ_REPLY: 1}
        assert fabric.stats.bytes_sent == HEADER_BYTES + 32


class TestBandwidth:
    def test_peak_bandwidth_matches_paper(self):
        # "Four links provide a peak I/O bandwidth of 1.6 Gbytes/sec".
        assert Fabric().bandwidth_gbytes() == pytest.approx(1.28, rel=0.3)

    def test_utilization_bounded(self):
        fabric = Fabric()
        for _ in range(1000):
            fabric.stats.record(MessageType.READ_REPLY)
        util = fabric.utilization(elapsed_cycles=10_000, num_nodes=2)
        assert 0.0 < util <= 1.0

    def test_zero_cases(self):
        fabric = Fabric()
        assert fabric.utilization(0, 2) == 0.0
        assert fabric.utilization(100, 0) == 0.0

    def test_utilization_value_pins_the_cycles_to_seconds_conversion(self):
        # Regression for the explicit time_for_cycles boundary: 10_000
        # cycles at the default 200 MHz clock are 50 us of wall-clock
        # capacity.
        fabric = Fabric()
        for _ in range(1000):
            fabric.stats.record(MessageType.READ_REPLY)
        bytes_sent = fabric.stats.bytes_sent
        elapsed_seconds = 10_000 / 200e6
        capacity = fabric.bandwidth_gbytes() * 1e9 * elapsed_seconds * 2
        util = fabric.utilization(elapsed_cycles=10_000, num_nodes=2)
        assert util == pytest.approx(bytes_sent / capacity)
