import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.trace.generators import (
    blocked_sweep,
    hot_cold_mix,
    pointer_chase,
    record_walk,
    strided_sweep,
)
from repro.trace.stream import expand_runs


class TestStridedSweep:
    def test_unit_stride(self):
        trace = strided_sweep(0x1000, 8, 4, 8)
        assert trace.addresses.tolist() == [0x1000, 0x1008, 0x1010, 0x1018]

    def test_sweeps_repeat(self):
        trace = strided_sweep(0, 4, 3, 4, sweeps=2)
        assert trace.addresses.tolist() == [0, 4, 8, 0, 4, 8]

    def test_store_fraction_deterministic(self):
        trace = strided_sweep(0, 4, 100, 4, store_fraction=0.25)
        assert trace.store_fraction == pytest.approx(0.25, abs=0.02)

    def test_empty(self):
        assert len(strided_sweep(0, 4, 0, 4)) == 0


class TestBlockedSweep:
    def test_visits_every_element_once_per_sweep(self):
        trace = blocked_sweep(0, rows=4, cols=4, elem_bytes=8, block=2)
        assert len(trace) == 16
        assert len(set(trace.addresses.tolist())) == 16

    def test_tile_locality(self):
        trace = blocked_sweep(0, rows=8, cols=8, elem_bytes=8, block=4)
        # First tile covers rows 0-3, cols 0-3 only.
        first_tile = trace.addresses[:16]
        assert first_tile.max() < 4 * 8 * 8  # stays in first 4 rows

    def test_empty(self):
        assert len(blocked_sweep(0, 0, 4, 8, 2)) == 0

    @pytest.mark.parametrize("block", [0, -3])
    def test_block_below_one_rejected(self, block):
        with pytest.raises(ConfigError, match=f"block={block}"):
            blocked_sweep(0, rows=4, cols=4, elem_bytes=8, block=block)


def _tile_loop_sweep(base, rows, cols, elem_bytes, block):
    """One sweep of the tile-by-tile loop ``blocked_sweep`` replaced."""
    row_stride = cols * elem_bytes
    tiles = []
    for tile_r in range(0, rows, block):
        for tile_c in range(0, cols, block):
            r_count = min(block, rows - tile_r)
            c_count = min(block, cols - tile_c)
            starts = (
                base
                + (tile_r + np.arange(r_count, dtype=np.int64)) * row_stride
                + tile_c * elem_bytes
            )
            lengths = np.full(r_count, c_count, dtype=np.int64)
            tiles.append(expand_runs(starts, lengths, step=elem_bytes))
    return np.concatenate(tiles)


class TestBlockedSweepDifferential:
    """The band-by-band sweep against the frozen tile loop: edge tiles
    on both sides, ``block`` 1 and ``block`` larger than the matrix."""

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 20), cols=st.integers(1, 20),
           block=st.one_of(st.integers(1, 9), st.integers(21, 40)),
           elem_bytes=st.sampled_from([4, 8]))
    def test_matches_tile_loop(self, rows, cols, block, elem_bytes):
        trace = blocked_sweep(0x1000, rows, cols, elem_bytes, block)
        expected = _tile_loop_sweep(0x1000, rows, cols, elem_bytes, block)
        assert trace.addresses.tolist() == expected.tolist()

    def test_sweeps_and_store_draws(self):
        """Repeated sweeps tile the one sweep, and the store flags take
        the same draws from the generator."""
        trace = blocked_sweep(0, 7, 5, 8, 3, sweeps=3, store_fraction=0.3,
                              rng=make_rng(4))
        one = _tile_loop_sweep(0, 7, 5, 8, 3)
        assert trace.addresses.tolist() == np.tile(one, 3).tolist()
        expected_writes = make_rng(4).random(3 * one.size) < 0.3
        assert trace.is_write.tolist() == expected_writes.tolist()


class TestPointerChase:
    def test_intra_node_locality(self):
        trace = pointer_chase(make_rng(0), 0, 64, 256, 100, fields_per_visit=4)
        diffs = np.diff(trace.addresses)
        assert (diffs == 4).sum() >= len(trace) // 2

    def test_respects_node_alignment(self):
        trace = pointer_chase(make_rng(0), 0, 16, 128, 64, fields_per_visit=2)
        starts = trace.addresses[::2]
        assert all(start % 128 == 0 for start in starts.tolist())

    def test_empty(self):
        assert len(pointer_chase(make_rng(0), 0, 0, 64, 10)) == 0


class TestHotColdMix:
    def test_hot_fraction_dominates(self):
        trace = hot_cold_mix(
            make_rng(0), 0, 4096, 1 << 20, 1 << 22, 2000, hot_fraction=0.9
        )
        hot = (trace.addresses < 4096 + 256).mean()
        assert hot > 0.75

    def test_all_cold(self):
        trace = hot_cold_mix(make_rng(0), 0, 4096, 1 << 20, 1 << 22, 500, hot_fraction=0.0)
        assert trace.addresses.min() >= 1 << 20


class TestRecordWalk:
    def test_touches_record_heads_only(self):
        trace = record_walk(make_rng(0), 0, 32, 600, 64, 320)
        offsets = trace.addresses % 600
        assert offsets.max() < 64

    def test_sequential_mode_walks_in_order(self):
        trace = record_walk(
            make_rng(0), 0, 8, 600, 8, 64, sequential_fraction=1.0
        )
        record_ids = (trace.addresses // 600)[::2]
        assert record_ids.tolist()[:8] == [0, 1, 2, 3, 4, 5, 6, 7]
