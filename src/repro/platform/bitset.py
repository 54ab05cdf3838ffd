"""Packed ``uint64`` bitsets: the columnar store's membership primitive.

A *bitset* here is a 1-D ``numpy.uint64`` array in which bit ``i`` (word
``i >> 6``, bit ``i & 63``, little-endian within the word) says whether
row ``i`` is in the set. The columnar user store
(:mod:`repro.platform.colstore`) keeps binary attributes and page likes
as matrices of such rows, and the audience registry keeps memberships as
single rows — so set algebra (intersection, union, difference) becomes
``numpy`` bitwise ops and cardinality becomes a popcount, both running at
memory bandwidth instead of per-object dict probes.

Every helper treats arrays as immutable unless named otherwise
(:func:`set_bit`/:func:`clear_bit` mutate in place); the boolean
combinators allocate. Serialization round-trips through little-endian
bytes so journaled snapshots are byte-stable across platforms.
"""

from __future__ import annotations

import base64
from typing import Iterator, Sequence

import numpy as np

#: Bits per bitset word.
WORD_BITS = 64

if hasattr(np, "bitwise_count"):  # numpy >= 2.0
    def _word_popcounts(words: np.ndarray) -> np.ndarray:
        return np.bitwise_count(words)
else:  # pragma: no cover - numpy 1.x fallback
    def _word_popcounts(words: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(words).reshape(-1)
        counts = (np.unpackbits(flat.view(np.uint8))
                  .reshape(flat.size, -1).sum(axis=1))
        return counts.reshape(words.shape)


def words_for(nbits: int) -> int:
    """Words needed to hold ``nbits`` bits (at least one word)."""
    return max(1, (int(nbits) + WORD_BITS - 1) // WORD_BITS)


def make_bitset(nbits: int) -> np.ndarray:
    """A zeroed bitset wide enough for ``nbits`` bits."""
    return np.zeros(words_for(nbits), dtype=np.uint64)


def ensure_width(bits: np.ndarray, nbits: int) -> np.ndarray:
    """``bits`` widened (zero-padded) to hold ``nbits`` bits."""
    need = words_for(nbits)
    if bits.shape[-1] >= need:
        return bits
    pad = need - bits.shape[-1]
    return np.concatenate([bits, np.zeros(pad, dtype=np.uint64)])


#: ``BIT_MASKS[b]`` is the word with only bit ``b`` set, and
#: ``CLEAR_MASKS[b]`` its complement: one tuple index per write instead
#: of building a ``np.uint64`` from a Python shift.
BIT_MASKS = tuple(np.uint64(1 << b) for b in range(WORD_BITS))
CLEAR_MASKS = tuple(~mask for mask in BIT_MASKS)


def set_bit(bits: np.ndarray, index: int) -> None:
    """Set bit ``index`` in place (the bitset must already be wide enough)."""
    bits[index >> 6] |= BIT_MASKS[index & 63]


def clear_bit(bits: np.ndarray, index: int) -> None:
    """Clear bit ``index`` in place."""
    bits[index >> 6] &= CLEAR_MASKS[index & 63]


def test_bit(bits: np.ndarray, index: int) -> bool:
    """Whether bit ``index`` is set (False when past the array's width)."""
    word = index >> 6
    if word >= bits.shape[-1]:
        return False
    return bool(bits[word] >> np.uint64(index & 63) & np.uint64(1))


def popcount(bits: np.ndarray) -> int:
    """Number of set bits (set cardinality)."""
    if bits.size == 0:
        return 0
    return int(_word_popcounts(bits).sum())


def row_popcounts(matrix: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a 2-D bitset matrix."""
    if matrix.size == 0:
        return np.zeros(matrix.shape[0], dtype=np.int64)
    return _word_popcounts(matrix).sum(axis=1)


def from_indices(indices: Sequence[int], nbits: int) -> np.ndarray:
    """Build a bitset of width ``nbits`` with the given bits set."""
    bits = make_bitset(nbits)
    if len(indices):
        idx = np.asarray(indices, dtype=np.int64)
        np.bitwise_or.at(bits, idx >> 6,
                         np.uint64(1) << (idx & 63).astype(np.uint64))
    return bits


def to_indices(bits: np.ndarray) -> np.ndarray:
    """Indices of set bits, ascending (the decoded member rows)."""
    if bits.size == 0:
        return np.zeros(0, dtype=np.int64)
    # Little-endian within each byte *and* across each word's bytes, so
    # the flat unpacked position equals the bit index.
    unpacked = np.unpackbits(bits.view(np.uint8), bitorder="little")
    return np.flatnonzero(unpacked).astype(np.int64)


def iter_indices(bits: np.ndarray) -> Iterator[int]:
    """Iterate set-bit indices as Python ints."""
    for index in to_indices(bits):
        yield int(index)


def intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bitwise AND over the common width (differing widths allowed)."""
    width = min(a.shape[-1], b.shape[-1])
    return a[:width] & b[:width]


def union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bitwise OR, zero-extending the narrower operand."""
    if a.shape[-1] < b.shape[-1]:
        a, b = b, a
    out = a.copy()
    out[: b.shape[-1]] |= b
    return out


def union_all(rows: Sequence[np.ndarray], nbits: int) -> np.ndarray:
    """OR many bitsets into one of width ``nbits``."""
    out = make_bitset(nbits)
    for row in rows:
        width = min(out.shape[-1], row.shape[-1])
        out[:width] |= row[:width]
    return out


def intersect_count(a: np.ndarray, b: np.ndarray) -> int:
    """``popcount(a & b)`` without keeping the intermediate."""
    return popcount(intersect(a, b))


def bitset_to_b64(bits: np.ndarray) -> str:
    """Serialize to base64 over little-endian bytes (JSON-safe)."""
    le = np.ascontiguousarray(bits, dtype="<u8")
    return base64.b64encode(le.tobytes()).decode("ascii")


def bitset_from_b64(data: str) -> np.ndarray:
    """Inverse of :func:`bitset_to_b64`."""
    raw = base64.b64decode(data.encode("ascii"))
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64)


def matrix_to_b64(matrix: np.ndarray) -> str:
    """Serialize a 2-D bitset matrix (rows of equal width)."""
    le = np.ascontiguousarray(matrix, dtype="<u8")
    return base64.b64encode(le.tobytes()).decode("ascii")


def matrix_from_b64(data: str, rows: int, words: int) -> np.ndarray:
    """Inverse of :func:`matrix_to_b64` for a known shape."""
    raw = base64.b64decode(data.encode("ascii"))
    flat = np.frombuffer(raw, dtype="<u8").astype(np.uint64)
    return flat.reshape(rows, words)


def column_bitset(matrix: np.ndarray, nrows: int, bit: int) -> np.ndarray:
    """Rows (of ``nrows``) whose row-bitset has ``bit`` set, as a bitset.

    This is the transpose probe the audience layer leans on: the store
    keeps *user-major* rows (one bitset of attributes per user), while
    audiences want *attribute-major* membership (one bitset of users per
    attribute). Extracting one attribute column is a strided word load,
    a shift, and a packbits — no per-user Python loop.
    """
    if nrows == 0 or matrix.size == 0:
        return make_bitset(nrows)
    word, shift = bit >> 6, np.uint64(bit & 63)
    flags = (matrix[:nrows, word] >> shift) & np.uint64(1)
    packed = np.packbits(flags.astype(np.uint8), bitorder="little")
    out = make_bitset(nrows)
    out_bytes = out.view(np.uint8)
    out_bytes[: packed.size] = packed
    return out
