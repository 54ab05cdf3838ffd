"""Unit tests for the packed-uint64 bitset helpers.

These pin the encoding the whole columnar stack leans on: bit ``i``
lives in word ``i >> 6`` at position ``i & 63`` (little-endian within
the word), and every helper round-trips through that layout.
"""

import numpy as np
import pytest

from repro.platform import bitset


class TestBitLayout:
    def test_words_for_rounds_up(self):
        assert bitset.words_for(0) == 1
        assert bitset.words_for(1) == 1
        assert bitset.words_for(64) == 1
        assert bitset.words_for(65) == 2
        assert bitset.words_for(129) == 3

    def test_set_test_clear_round_trip(self):
        bits = bitset.make_bitset(200)
        for index in (0, 1, 63, 64, 65, 127, 128, 199):
            assert not bitset.test_bit(bits, index)
            bitset.set_bit(bits, index)
            assert bitset.test_bit(bits, index)
        assert bitset.popcount(bits) == 8
        bitset.clear_bit(bits, 64)
        assert not bitset.test_bit(bits, 64)
        assert bitset.popcount(bits) == 7

    @pytest.mark.parametrize("index", [0, 63, 64, 127])
    def test_word_edges_set_and_clear_only_their_bit(self, index):
        """Bits 0 and 63 of each word; 63 is the ``uint64`` high bit."""
        for fill in (0, 0x5555555555555555, 0xAAAAAAAAAAAAAAAA):
            before = np.full(2, fill, dtype=np.uint64)
            only = bitset.from_indices([index], 128)
            bits = before.copy()
            bitset.set_bit(bits, index)
            assert bits.tolist() == (before | only).tolist()
            bitset.clear_bit(bits, index)
            assert bits.tolist() == (before & ~only).tolist()
            assert bits.dtype == np.uint64

    def test_test_bit_past_width_is_false(self):
        bits = bitset.make_bitset(64)
        assert not bitset.test_bit(bits, 1000)

    def test_ensure_width_preserves_bits(self):
        bits = bitset.make_bitset(10)
        bitset.set_bit(bits, 3)
        wide = bitset.ensure_width(bits, 1000)
        assert wide.shape[0] == bitset.words_for(1000)
        assert bitset.test_bit(wide, 3)
        assert bitset.popcount(wide) == 1
        # Already wide enough: same array back.
        assert bitset.ensure_width(wide, 5) is wide


class TestIndicesRoundTrip:
    def test_from_to_indices(self):
        indices = [0, 5, 63, 64, 200, 511]
        bits = bitset.from_indices(indices, 512)
        assert list(bitset.to_indices(bits)) == indices
        assert bitset.popcount(bits) == len(indices)

    def test_empty(self):
        bits = bitset.from_indices([], 100)
        assert bitset.popcount(bits) == 0
        assert list(bitset.to_indices(bits)) == []

    def test_random_round_trip(self):
        rng = np.random.default_rng(7)
        indices = sorted(
            int(i) for i in rng.choice(4096, size=300, replace=False))
        bits = bitset.from_indices(indices, 4096)
        assert list(bitset.to_indices(bits)) == indices
        assert list(bitset.iter_indices(bits)) == indices


class TestSetAlgebra:
    def test_union_zero_extends(self):
        a = bitset.from_indices([1], 64)
        b = bitset.from_indices([100], 128)
        u = bitset.union(a, b)
        assert sorted(bitset.iter_indices(u)) == [1, 100]

    def test_intersect_common_width(self):
        a = bitset.from_indices([1, 70], 128)
        b = bitset.from_indices([1], 64)
        assert list(bitset.to_indices(bitset.intersect(a, b))) == [1]
        assert bitset.intersect_count(a, b) == 1

    def test_union_all(self):
        rows = [bitset.from_indices([i], 256) for i in (0, 64, 128)]
        merged = bitset.union_all(rows, 256)
        assert list(bitset.to_indices(merged)) == [0, 64, 128]

    def test_row_popcounts(self):
        matrix = np.zeros((3, 2), dtype=np.uint64)
        bitset.set_bit(matrix[0], 0)
        bitset.set_bit(matrix[0], 100)
        bitset.set_bit(matrix[2], 64)
        assert list(bitset.row_popcounts(matrix)) == [2, 0, 1]


class TestSerialization:
    def test_bitset_b64_round_trip(self):
        bits = bitset.from_indices([3, 64, 500], 512)
        again = bitset.bitset_from_b64(bitset.bitset_to_b64(bits))
        assert np.array_equal(bits, again)

    def test_matrix_b64_round_trip(self):
        matrix = np.zeros((4, 3), dtype=np.uint64)
        bitset.set_bit(matrix[1], 65)
        bitset.set_bit(matrix[3], 0)
        data = bitset.matrix_to_b64(matrix)
        again = bitset.matrix_from_b64(data, 4, 3)
        assert np.array_equal(matrix, again)


class TestColumnExtraction:
    @pytest.mark.parametrize("bit", [0, 1, 63, 64, 150])
    def test_column_matches_per_row_probe(self, bit):
        rng = np.random.default_rng(bit + 1)
        nrows = 70
        matrix = rng.integers(0, 2**63, size=(80, 3), dtype=np.uint64)
        column = bitset.column_bitset(matrix, nrows, bit)
        expected = [row for row in range(nrows)
                    if bitset.test_bit(matrix[row], bit)]
        assert list(bitset.to_indices(column)) == expected

    def test_empty_matrix(self):
        matrix = np.zeros((0, 1), dtype=np.uint64)
        assert bitset.popcount(bitset.column_bitset(matrix, 0, 5)) == 0
