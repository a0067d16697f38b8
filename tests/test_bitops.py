from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from glasstrie.bitops import (
    NO_BIT,
    WORD_BITS,
    DivisionPlan,
    TrieGeometry,
    cached_path_truncation,
    clz,
    common_prefix_chunks,
    depth_from_offset,
    exact_div_by_chunk,
    next_set_bit,
    prev_set_bit,
)
from glasstrie.errors import ConfigError, InvalidArgument


def scan_next(mask: int, i: int) -> int:
    for j in range(i + 1, WORD_BITS):
        if (mask >> j) & 1:
            return j
    return NO_BIT


def scan_prev(mask: int, i: int) -> int:
    for j in range(i - 1, -1, -1):
        if (mask >> j) & 1:
            return j
    return NO_BIT


def prefix_by_chunks(k1: int, k2: int, geo: TrieGeometry) -> int:
    """Reference: compare chunk by chunk from the most significant end."""
    n = 0
    for depth in range(geo.levels):
        off = geo.chunk_bits * (geo.levels - 1 - depth)
        if (k1 >> off) & (geo.fanout - 1) != (k2 >> off) & (geo.fanout - 1):
            break
        n += 1
    return n


def egcd_inverse(a: int, m: int) -> int:
    """Extended-Euclid modular inverse, independent of pow(a, -1, m)."""
    old_r, r = a, m
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % m


class TestClz:
    def test_zero_gives_width(self):
        assert clz(0, 8) == 8
        assert clz(0, 64) == 64

    def test_low_bit(self):
        assert clz(1, 8) == 7

    def test_top_bit(self):
        assert clz(1 << 63, 64) == 0

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_shift_monotonic(self, x):
        assert clz(x >> 1, 64) >= clz(x, 64)

    @pytest.mark.parametrize("x, width", [(-1, 64), (1 << 64, 64), (1 << 70, 64), (256, 8)])
    def test_out_of_range_raises(self, x, width):
        with pytest.raises(InvalidArgument):
            clz(x, width)

    def test_range_check_survives_optimize(self, run_optimized):
        # an assert once made clz(-1) 63 and clz(1 << 70) -7 under -O
        run_optimized(
            "from glasstrie.bitops import clz\n"
            "from glasstrie.errors import InvalidArgument\n"
            "if __debug__:\n"
            "    raise SystemExit('asserts are on')\n"
            "for x in (-1, 1 << 64, 1 << 70):\n"
            "    try:\n"
            "        clz(x)\n"
            "    except InvalidArgument:\n"
            "        continue\n"
            "    raise SystemExit(f'clz({x}) accepted')\n"
        )


class TestCommonPrefix:
    def test_worked_example(self):
        # keys 010 and 011 share two one-bit chunks
        geo = TrieGeometry(key_bits=3, chunk_bits=1)
        assert common_prefix_chunks(0b010, 0b011, geo) == 2

    def test_equal_keys_share_full_path(self):
        geo = TrieGeometry(key_bits=50, chunk_bits=5)
        assert common_prefix_chunks(123456, 123456, geo) == geo.levels

    def test_adjacent_wide_keys(self):
        geo = TrieGeometry(key_bits=50, chunk_bits=5)
        assert common_prefix_chunks(0, 1, geo) == 9

    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=6),
        st.data(),
    )
    def test_matches_chunk_scan(self, key_bits, chunk_bits, data):
        geo = TrieGeometry(key_bits=key_bits, chunk_bits=chunk_bits)
        hi = (1 << key_bits) - 1
        k1 = data.draw(st.integers(min_value=0, max_value=hi))
        k2 = data.draw(st.integers(min_value=0, max_value=hi))
        assert common_prefix_chunks(k1, k2, geo) == prefix_by_chunks(k1, k2, geo)


class TestMaskScan:
    def test_examples(self):
        assert next_set_bit(0b1010, 1) == 3
        assert next_set_bit(0b1010, 3) == NO_BIT
        assert next_set_bit((1 << 64) - 1, 62) == 63
        assert prev_set_bit(0b1010, 3) == 1
        assert prev_set_bit(0b1010, 1) == NO_BIT
        assert prev_set_bit(0b1, 0) == NO_BIT

    def test_exhaustive_8bit(self):
        for mask in range(256):
            for i in range(8):
                assert next_set_bit(mask, i) == scan_next(mask, i)
                assert prev_set_bit(mask, i) == scan_prev(mask, i)

    @given(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=0, max_value=63),
    )
    def test_matches_scan_64bit(self, mask, i):
        assert next_set_bit(mask, i) == scan_next(mask, i)
        assert prev_set_bit(mask, i) == scan_prev(mask, i)


class TestExactDivision:
    def test_odd_chunk_inverse(self):
        plan = DivisionPlan(chunk_bits=5)
        assert plan.odd_inverse == egcd_inverse(5, 1 << 64)
        assert plan.odd_inverse == 14757395258967641293
        assert exact_div_by_chunk(45, plan) == 9

    def test_zero_dividend(self):
        assert exact_div_by_chunk(0, DivisionPlan(chunk_bits=5)) == 0

    def test_power_of_two_is_pure_shift(self):
        plan = DivisionPlan(chunk_bits=4)
        assert plan.odd == 1 and plan.odd_inverse == 1
        assert exact_div_by_chunk(12, plan) == 3

    @pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 6])
    def test_all_small_multiples(self, c):
        plan = DivisionPlan(chunk_bits=c)
        for m in range(0, 4096):
            assert exact_div_by_chunk(m * c, plan) == m

    def test_nonexact_asserts_in_debug(self):
        plan = DivisionPlan(chunk_bits=5)
        with pytest.raises(AssertionError):
            exact_div_by_chunk(7, plan)


class TestDepthFromOffset:
    def test_boundaries(self):
        geo = TrieGeometry(key_bits=50, chunk_bits=5)
        plan = DivisionPlan(chunk_bits=5)
        assert depth_from_offset(geo.chunk_bits * (geo.levels - 1), geo, plan) == 0
        assert depth_from_offset(0, geo, plan) == geo.levels - 1
        assert depth_from_offset(20, geo, plan) == 5

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=64))
    def test_roundtrip(self, chunk_bits, key_bits):
        geo = TrieGeometry(key_bits=key_bits, chunk_bits=chunk_bits)
        plan = DivisionPlan(chunk_bits=chunk_bits)
        for depth in range(geo.levels):
            off = geo.chunk_bits * (geo.levels - 1 - depth)
            assert depth_from_offset(off, geo, plan) == depth


class TestGeometry:
    def test_paper_configuration(self):
        geo = TrieGeometry(key_bits=50, chunk_bits=5)
        assert geo.fanout == 32
        assert geo.levels == 10
        assert geo.root_bits == 5  # 50 divisible by 5
        assert geo.bias == 0

    def test_non_dividing_chunk(self):
        geo = TrieGeometry(key_bits=50, chunk_bits=3)
        assert geo.levels == 17
        assert geo.root_bits == 2
        assert geo.bias == 1

    def test_rejects_wide_chunks(self):
        with pytest.raises(ConfigError):
            TrieGeometry(key_bits=50, chunk_bits=7)
        with pytest.raises(ConfigError):
            TrieGeometry(key_bits=0, chunk_bits=5)


class TestPathTruncation:
    def test_worked_figure(self):
        assert cached_path_truncation(3, 1, 4) == 1

    def test_no_overlap(self):
        assert cached_path_truncation(0, 1, 4) == 0

    def test_whole_tree_removed(self):
        # removing all levels overlaps one more than the path length
        assert cached_path_truncation(3, 3, 3) == 4


def test_mask_scan_random_spot_checks():
    rng = random.Random(7)
    for _ in range(2000):
        mask = rng.getrandbits(64)
        i = rng.randrange(64)
        assert next_set_bit(mask, i) == scan_next(mask, i)
        assert prev_set_bit(mask, i) == scan_prev(mask, i)
