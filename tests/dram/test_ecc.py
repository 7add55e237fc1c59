import pytest

from repro.dram.ecc import (
    check_bits_for,
    directory_bits_per_block,
    ecc_overhead_fraction,
)


class TestCheckBits:
    def test_64_bit_words_need_8_check_bits(self):
        assert check_bits_for(64) == 8

    def test_128_bit_words_need_9_check_bits(self):
        assert check_bits_for(128) == 9

    def test_rejects_zero_width(self):
        with pytest.raises(Exception):
            check_bits_for(0)


class TestPaperStorageClaims:
    def test_ecc_overhead_is_about_12_percent(self):
        # The paper: "this incurs a 12% memory-size increase if ECC is
        # computed on 64 bit words".
        assert ecc_overhead_fraction(64) == pytest.approx(0.125)

    def test_directory_gets_14_bits_per_32_byte_block(self):
        # Figure 5: widening from 1-in-64 to 1-in-128 correction frees
        # exactly the 14 bits the directory needs.
        assert directory_bits_per_block(32) == 14
