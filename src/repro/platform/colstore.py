"""The platform's user store: numpy attribute matrices behind the
profile API.

An object per user (a dict-of-sets :class:`~repro.platform.users
.UserProfile`) tops out around the 2,000-user scale tier; the paper's
premise — an ad platform profiling *millions* of users — needs a store
whose per-user cost is a handful of bytes per column, not a Python
object graph. This module is that store, and the only one:

* **Demographics and multi-valued attributes** are integer-coded numpy
  arrays over interned value vocabularies (:class:`_Vocab`): ``age`` is
  an ``int16`` column, ``gender`` an ``int16`` of codes into a gender
  vocabulary, each multi attribute an ``int16`` column whose 0 means
  "unassigned".
* **Binary attributes and page likes** are packed ``uint64`` bitset rows
  (:mod:`repro.platform.bitset`): user-major matrices where row ``r``
  bit ``c`` says user ``r`` carries attribute-code ``c``. Audience
  materialization transposes these with strided passes — one per page
  (:func:`~repro.platform.bitset.column_bitset`), one per attribute
  word however many of its attributes an audience reads
  (:meth:`UserColumns.attributes_column`) — instead of scanning
  profiles.
* **PII** is a ``kind:digest -> row`` hash index (the custom-audience
  match step); every PII write, through the store or a view, is indexed.

:class:`UserView` is a flyweight facade over one row that preserves the
``UserProfile`` read/write API — ``binary_attrs``/``multi_attrs``/
``liked_pages`` behave like sets and dicts, which is what
``Expr.matches`` and the brokers, explanations and preference pages
read. Delivery skips the view: lowered targeting programs evaluate
whole row ranges of the columns. :class:`ColumnarUserStore` ingests
:class:`~repro.platform.users.UserProfile` records via ``add``.

User ids are usually the dense ``<prefix>-user-<n>`` sequence the
platform's :class:`~repro.ids.IdFactory` hands out; the store detects
that and stores only the pattern (no 10⁶ id strings), falling back to an
explicit id table the first time an id breaks the sequence.

The store is a snapshot-only :class:`~repro.store.store.StateOwner`
(``handled_kinds`` is empty — profile mutations are world-build state,
not journaled deltas): ``state_dump``/``state_load`` round-trip every
column block through base64-encoded little-endian bytes.
"""

from __future__ import annotations

import base64
import re
from collections.abc import Set as AbstractSet
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import CatalogError, PIIError, StoreError
from repro.hashing import PII_KINDS, hash_pii
from repro.platform import bitset
from repro.platform.attributes import Attribute, AttributeKind
from repro.platform.users import UserProfile
from repro.store.store import StateStore

#: Initial row capacity; growth doubles from here.
_INITIAL_CAPACITY = 1024

#: Matches ``<prefix><ASCII digits>`` ids for the dense-id fast path.
_DENSE_ID = re.compile(r"^(.*?)([0-9]+)$")


def _arr_to_b64(arr: np.ndarray, dtype: str) -> str:
    """Serialize an array as base64 over explicit little-endian bytes."""
    le = np.ascontiguousarray(arr, dtype=dtype)
    return base64.b64encode(le.tobytes()).decode("ascii")


def _arr_from_b64(data: str, dtype: str) -> np.ndarray:
    raw = base64.b64decode(data.encode("ascii"))
    return np.frombuffer(raw, dtype=dtype).copy()


class _Vocab:
    """Interned value vocabulary: value -> stable dense integer code.

    Codes are assigned in first-seen order and never change, so bitset
    columns and coded arrays stay valid as the vocabulary grows.
    """

    __slots__ = ("values", "_codes")

    def __init__(self, values: Tuple[str, ...] = ()) -> None:
        self.values: List[str] = []
        self._codes: Dict[str, int] = {}
        for value in values:
            self.code(value)

    def code(self, value: str) -> int:
        """The value's code, interning it on first sight."""
        code = self._codes.get(value)
        if code is None:
            code = len(self.values)
            self._codes[value] = code
            self.values.append(value)
        return code

    def get(self, value: str) -> Optional[int]:
        """The value's code, or None when never interned."""
        return self._codes.get(value)

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, value: str) -> bool:
        return value in self._codes


class UserColumns:
    """The raw column blocks: one row per user, no id or PII knowledge.

    Demographics are coded scalars; binary attributes and page likes are
    user-major bitset matrices over the ``attrs``/``pages`` vocabularies;
    each multi attribute is a lazily-created ``int16`` column of value
    codes (0 = unassigned, value code = per-attribute vocab code + 1).
    """

    def __init__(self) -> None:
        self.count = 0
        self._capacity = _INITIAL_CAPACITY
        self.countries = _Vocab()
        self.genders = _Vocab()
        self.zips = _Vocab()
        self.age = np.zeros(self._capacity, dtype=np.int16)
        self.country = np.zeros(self._capacity, dtype=np.int16)
        self.gender = np.zeros(self._capacity, dtype=np.int16)
        self.zip = np.zeros(self._capacity, dtype=np.int32)
        self.attrs = _Vocab()
        self.attr_bits = np.zeros((self._capacity, 1), dtype=np.uint64)
        self.pages = _Vocab()
        self.page_bits = np.zeros((self._capacity, 1), dtype=np.uint64)
        #: multi attr id -> int16 column of value codes (0 = unassigned).
        self.multi_cols: Dict[str, np.ndarray] = {}
        #: multi attr id -> value vocabulary (column code = vocab code + 1).
        self.multi_vocabs: Dict[str, _Vocab] = {}

    # -- growth ------------------------------------------------------------

    def reserve(self, rows: int) -> None:
        """Pre-size every column for at least ``rows`` total rows."""
        if rows <= self._capacity:
            return
        new_cap = self._capacity
        while new_cap < rows:
            new_cap *= 2
        self.age = self._grown_1d(self.age, new_cap)
        self.country = self._grown_1d(self.country, new_cap)
        self.gender = self._grown_1d(self.gender, new_cap)
        self.zip = self._grown_1d(self.zip, new_cap)
        self.attr_bits = self._grown_2d(self.attr_bits, new_cap)
        self.page_bits = self._grown_2d(self.page_bits, new_cap)
        for attr_id, col in self.multi_cols.items():
            self.multi_cols[attr_id] = self._grown_1d(col, new_cap)
        self._capacity = new_cap

    @staticmethod
    def _grown_1d(arr: np.ndarray, capacity: int) -> np.ndarray:
        out = np.zeros(capacity, dtype=arr.dtype)
        out[: arr.shape[0]] = arr
        return out

    @staticmethod
    def _grown_2d(matrix: np.ndarray, capacity: int) -> np.ndarray:
        out = np.zeros((capacity, matrix.shape[1]), dtype=np.uint64)
        out[: matrix.shape[0]] = matrix
        return out

    def _widened(self, matrix: np.ndarray, words: int) -> np.ndarray:
        new_words = matrix.shape[1]
        while new_words < words:
            new_words *= 2
        out = np.zeros((matrix.shape[0], new_words), dtype=np.uint64)
        out[:, : matrix.shape[1]] = matrix
        return out

    def _attr_code(self, attr_id: str) -> int:
        """Intern a new attribute, widening the matrix past each 64-code
        boundary."""
        code = self.attrs.code(attr_id)
        if code >= self.attr_bits.shape[1] * bitset.WORD_BITS:
            self.attr_bits = self._widened(
                self.attr_bits, bitset.words_for(code + 1))
        return code

    def _page_code(self, page_id: str) -> int:
        """Intern a new page, widening the matrix like :meth:`_attr_code`."""
        code = self.pages.code(page_id)
        if code >= self.page_bits.shape[1] * bitset.WORD_BITS:
            self.page_bits = self._widened(
                self.page_bits, bitset.words_for(code + 1))
        return code

    # -- row lifecycle -----------------------------------------------------

    def append_row(self, country: str, age: int, gender: str,
                   zip_code: str) -> int:
        """Add one user row; returns its row id."""
        if self.count >= self._capacity:
            self.reserve(self._capacity * 2)
        row = self.count
        self.age[row] = age
        self.country[row] = self.countries.code(country)
        self.gender[row] = self.genders.code(gender)
        self.zip[row] = self.zips.code(zip_code)
        self.count += 1
        return row

    # -- binary attributes -------------------------------------------------

    def set_attr(self, row: int, attr_id: str) -> None:
        # Resolve the code *before* indexing the matrix: interning a new
        # attribute may widen (replace) it. Only a new code pays for that.
        code = self.attrs.get(attr_id)
        if code is None:
            code = self._attr_code(attr_id)
        self.attr_bits[row, code >> 6] |= bitset.BIT_MASKS[code & 63]

    def clear_attr(self, row: int, attr_id: str) -> None:
        code = self.attrs.get(attr_id)
        if code is not None:
            self.attr_bits[row, code >> 6] &= bitset.CLEAR_MASKS[code & 63]

    def has_attr(self, row: int, attr_id: str) -> bool:
        code = self.attrs.get(attr_id)
        return code is not None and bitset.test_bit(self.attr_bits[row], code)

    def attr_codes_of(self, row: int) -> np.ndarray:
        """Codes of the row's set binary attributes, ascending."""
        return bitset.to_indices(self.attr_bits[row])

    def attr_ids_of(self, row: int) -> List[str]:
        values = self.attrs.values
        return [values[int(c)] for c in self.attr_codes_of(row)]

    def attr_count_of(self, row: int) -> int:
        return bitset.popcount(self.attr_bits[row])

    # -- multi attributes --------------------------------------------------

    def set_multi(self, row: int, attr_id: str, value: str) -> None:
        col = self.multi_cols.get(attr_id)
        if col is None:
            col = np.zeros(self._capacity, dtype=np.int16)
            self.multi_cols[attr_id] = col
            self.multi_vocabs[attr_id] = _Vocab()
        col[row] = self.multi_vocabs[attr_id].code(value) + 1

    def get_multi(self, row: int, attr_id: str) -> Optional[str]:
        col = self.multi_cols.get(attr_id)
        if col is None:
            return None
        code = int(col[row])
        if code == 0:
            return None
        return self.multi_vocabs[attr_id].values[code - 1]

    def clear_multi(self, row: int, attr_id: str) -> None:
        col = self.multi_cols.get(attr_id)
        if col is not None:
            col[row] = 0

    def multi_ids_of(self, row: int) -> List[str]:
        """Assigned multi attribute ids, in column-creation order."""
        return [attr_id for attr_id, col in self.multi_cols.items()
                if col[row] != 0]

    # -- page likes --------------------------------------------------------

    def like(self, row: int, page_id: str) -> None:
        # Code first, then the write — interning may widen the matrix
        # (see set_attr).
        code = self.pages.get(page_id)
        if code is None:
            code = self._page_code(page_id)
        self.page_bits[row, code >> 6] |= bitset.BIT_MASKS[code & 63]

    def unlike(self, row: int, page_id: str) -> None:
        code = self.pages.get(page_id)
        if code is not None:
            self.page_bits[row, code >> 6] &= bitset.CLEAR_MASKS[code & 63]

    def has_page(self, row: int, page_id: str) -> bool:
        code = self.pages.get(page_id)
        return code is not None and bitset.test_bit(self.page_bits[row], code)

    def page_ids_of(self, row: int) -> List[str]:
        values = self.pages.values
        return [values[int(c)]
                for c in bitset.to_indices(self.page_bits[row])]

    # -- column (attribute-major) extraction -------------------------------

    def attributes_column(self, attr_ids: Iterable[str]) -> np.ndarray:
        """Bitset over rows: users with any of ``attr_ids``
        (``has_attribute`` semantics: binary set or multi assigned).

        The binary attributes are grouped by matrix word, so each word
        is one masked pass over its column, whatever the number of ids
        in it; each multi attribute adds one pass over its column. Ids
        never interned match nobody."""
        n = self.count
        word_masks: Dict[int, int] = {}
        multi: List[np.ndarray] = []
        for attr_id in attr_ids:
            code = self.attrs.get(attr_id)
            if code is not None:
                word_masks[code >> 6] = (word_masks.get(code >> 6, 0)
                                         | 1 << (code & 63))
            col = self.multi_cols.get(attr_id)
            if col is not None:
                multi.append(col)
        flags = np.zeros(n, dtype=bool)
        for word, mask in word_masks.items():
            flags |= (self.attr_bits[:n, word] & np.uint64(mask)) != 0
        for col in multi:
            flags |= col[:n] != 0
        out = bitset.make_bitset(n)
        packed = np.packbits(flags, bitorder="little")
        out.view(np.uint8)[:packed.size] = packed
        return out

    def page_column(self, page_id: str) -> np.ndarray:
        code = self.pages.get(page_id)
        if code is None:
            return bitset.make_bitset(self.count)
        return bitset.column_bitset(self.page_bits, self.count, code)

    # -- stats / serialization ---------------------------------------------

    def column_bytes(self) -> int:
        """Bytes held by every column at current capacity."""
        total = (self.age.nbytes + self.country.nbytes + self.gender.nbytes
                 + self.zip.nbytes + self.attr_bits.nbytes
                 + self.page_bits.nbytes)
        for col in self.multi_cols.values():
            total += col.nbytes
        return total

    def attr_density(self) -> float:
        """Fraction of (row, attribute-code) bits set."""
        if self.count == 0 or len(self.attrs) == 0:
            return 0.0
        set_bits = bitset.popcount(self.attr_bits[: self.count])
        return set_bits / float(self.count * len(self.attrs))

    def state_dump(self) -> Dict[str, Any]:
        """JSON-safe dump of every column block (rows, not capacity)."""
        n = self.count
        return {
            "count": n,
            "vocabs": {
                "countries": list(self.countries.values),
                "genders": list(self.genders.values),
                "zips": list(self.zips.values),
                "attrs": list(self.attrs.values),
                "pages": list(self.pages.values),
            },
            "age": _arr_to_b64(self.age[:n], "<i2"),
            "country": _arr_to_b64(self.country[:n], "<i2"),
            "gender": _arr_to_b64(self.gender[:n], "<i2"),
            "zip": _arr_to_b64(self.zip[:n], "<i4"),
            "attr_words": self.attr_bits.shape[1],
            "attr_bits": bitset.matrix_to_b64(self.attr_bits[:n]),
            "page_words": self.page_bits.shape[1],
            "page_bits": bitset.matrix_to_b64(self.page_bits[:n]),
            "multi": {
                attr_id: {
                    "values": list(self.multi_vocabs[attr_id].values),
                    "codes": _arr_to_b64(col[:n], "<i2"),
                }
                for attr_id, col in self.multi_cols.items()
            },
        }

    def state_load(self, state: Dict[str, Any]) -> None:
        """Replace every column block with a prior dump's."""
        n = int(state["count"])
        vocabs = state["vocabs"]
        self.countries = _Vocab(tuple(vocabs["countries"]))
        self.genders = _Vocab(tuple(vocabs["genders"]))
        self.zips = _Vocab(tuple(vocabs["zips"]))
        self.attrs = _Vocab(tuple(vocabs["attrs"]))
        self.pages = _Vocab(tuple(vocabs["pages"]))
        self._capacity = max(_INITIAL_CAPACITY, n)
        self.count = n
        self.age = self._grown_1d(_arr_from_b64(state["age"], "<i2")
                                  .astype(np.int16), self._capacity)
        self.country = self._grown_1d(_arr_from_b64(state["country"], "<i2")
                                      .astype(np.int16), self._capacity)
        self.gender = self._grown_1d(_arr_from_b64(state["gender"], "<i2")
                                     .astype(np.int16), self._capacity)
        self.zip = self._grown_1d(_arr_from_b64(state["zip"], "<i4")
                                  .astype(np.int32), self._capacity)
        attr_words = int(state["attr_words"])
        self.attr_bits = self._grown_2d(
            bitset.matrix_from_b64(state["attr_bits"], n, attr_words),
            self._capacity)
        page_words = int(state["page_words"])
        self.page_bits = self._grown_2d(
            bitset.matrix_from_b64(state["page_bits"], n, page_words),
            self._capacity)
        self.multi_cols = {}
        self.multi_vocabs = {}
        for attr_id, block in state.get("multi", {}).items():
            self.multi_vocabs[attr_id] = _Vocab(tuple(block["values"]))
            self.multi_cols[attr_id] = self._grown_1d(
                _arr_from_b64(block["codes"], "<i2").astype(np.int16),
                self._capacity)


class _RowSetView(AbstractSet):
    """Set facade over one user row of a packed membership matrix.

    ``collections.abc.Set`` supplies the comparisons and operators;
    derived sets come back as plain ``set`` objects.
    """

    __slots__ = ("_store", "_row")

    def __init__(self, store: "ColumnarUserStore", row: int) -> None:
        self._store = store
        self._row = row

    @classmethod
    def _from_iterable(cls, iterable) -> Set[str]:
        return set(iterable)

    def __repr__(self) -> str:
        return f"{{{', '.join(map(repr, sorted(self)))}}}"


class _BinaryAttrsView(_RowSetView):
    """One row of the binary-attribute matrix."""

    __slots__ = ()

    def __contains__(self, attr_id: object) -> bool:
        return (isinstance(attr_id, str)
                and self._store.columns.has_attr(self._row, attr_id))

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.columns.attr_ids_of(self._row))

    def __len__(self) -> int:
        return self._store.columns.attr_count_of(self._row)

    def add(self, attr_id: str) -> None:
        self._store._write(UserColumns.set_attr, self._row, attr_id)

    def discard(self, attr_id: str) -> None:
        self._store._write(UserColumns.clear_attr, self._row, attr_id)


class _LikedPagesView(_RowSetView):
    """One row of the page-like matrix."""

    __slots__ = ()

    def __contains__(self, page_id: object) -> bool:
        return (isinstance(page_id, str)
                and self._store.columns.has_page(self._row, page_id))

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.columns.page_ids_of(self._row))

    def __len__(self) -> int:
        return bitset.popcount(self._store.columns.page_bits[self._row])

    def add(self, page_id: str) -> None:
        self._store._write(UserColumns.like, self._row, page_id)

    def discard(self, page_id: str) -> None:
        self._store._write(UserColumns.unlike, self._row, page_id)


class _MultiAttrsView:
    """Dict-like facade over one row of the multi-attribute columns."""

    __slots__ = ("_store", "_row")

    def __init__(self, store: "ColumnarUserStore", row: int) -> None:
        self._store = store
        self._row = row

    def __contains__(self, attr_id: object) -> bool:
        return (isinstance(attr_id, str)
                and self._store.columns.get_multi(self._row, attr_id)
                is not None)

    def get(self, attr_id: str, default: Optional[str] = None
            ) -> Optional[str]:
        value = self._store.columns.get_multi(self._row, attr_id)
        return value if value is not None else default

    def __getitem__(self, attr_id: str) -> str:
        value = self._store.columns.get_multi(self._row, attr_id)
        if value is None:
            raise KeyError(attr_id)
        return value

    def __setitem__(self, attr_id: str, value: str) -> None:
        self._store._write(UserColumns.set_multi, self._row, attr_id, value)

    def pop(self, attr_id: str, default: Optional[str] = None
            ) -> Optional[str]:
        value = self._store.columns.get_multi(self._row, attr_id)
        if value is not None:
            self._store._write(UserColumns.clear_multi, self._row, attr_id)
            return value
        return default

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.columns.multi_ids_of(self._row))

    def __len__(self) -> int:
        return len(self._store.columns.multi_ids_of(self._row))

    def __bool__(self) -> bool:
        return len(self) > 0

    def keys(self) -> List[str]:
        return self._store.columns.multi_ids_of(self._row)

    def values(self) -> List[str]:
        return [self[k] for k in self.keys()]

    def items(self) -> List[Tuple[str, str]]:
        return [(k, self[k]) for k in self.keys()]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (dict, _MultiAttrsView)):
            return dict(self.items()) == dict(
                other.items() if isinstance(other, _MultiAttrsView)
                else other.items())
        return NotImplemented

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class UserView:
    """One user's row, wearing the ``UserProfile`` API.

    Flyweight (a store reference, a row id and the user id once known);
    every read decodes from the columns, every write goes through the
    store so the mutation epoch and derived indexes stay honest. The
    attribute containers are live views — mutating ``view.binary_attrs``
    mutates the columns.
    """

    __slots__ = ("_store", "_row", "_id")

    def __init__(self, store: "ColumnarUserStore", row: int,
                 user_id: Optional[str] = None) -> None:
        self._store = store
        self._row = row
        self._id = user_id

    # -- identity / demographics -------------------------------------------

    @property
    def row(self) -> int:
        """This user's row id in the column blocks."""
        return self._row

    @property
    def store(self) -> "ColumnarUserStore":
        return self._store

    @property
    def user_id(self) -> str:
        user_id = self._id
        if user_id is None:
            user_id = self._id = self._store.id_of(self._row)
        return user_id

    @property
    def country(self) -> str:
        cols = self._store.columns
        return cols.countries.values[int(cols.country[self._row])]

    @country.setter
    def country(self, value: str) -> None:
        cols = self._store.columns
        cols.country[self._row] = cols.countries.code(value)

    @property
    def age(self) -> int:
        return int(self._store.columns.age[self._row])

    @age.setter
    def age(self, value: int) -> None:
        self._store.columns.age[self._row] = value

    @property
    def gender(self) -> str:
        cols = self._store.columns
        return cols.genders.values[int(cols.gender[self._row])]

    @gender.setter
    def gender(self, value: str) -> None:
        cols = self._store.columns
        cols.gender[self._row] = cols.genders.code(value)

    @property
    def zip_code(self) -> str:
        cols = self._store.columns
        return cols.zips.values[int(cols.zip[self._row])]

    @zip_code.setter
    def zip_code(self, value: str) -> None:
        cols = self._store.columns
        cols.zip[self._row] = cols.zips.code(value)

    # -- attribute containers ----------------------------------------------

    @property
    def binary_attrs(self) -> _BinaryAttrsView:
        return _BinaryAttrsView(self._store, self._row)

    @property
    def multi_attrs(self) -> _MultiAttrsView:
        return _MultiAttrsView(self._store, self._row)

    @property
    def liked_pages(self) -> _LikedPagesView:
        return _LikedPagesView(self._store, self._row)

    @property
    def pii_hashes(self) -> Dict[str, Set[str]]:
        return self._store._pii_of_row(self._row)

    # -- the UserProfile method surface ------------------------------------

    def has_attribute(self, attr_id: str) -> bool:
        cols = self._store.columns
        return (cols.has_attr(self._row, attr_id)
                or cols.get_multi(self._row, attr_id) is not None)

    def attribute_ids(self) -> Iterator[str]:
        cols = self._store.columns
        yield from cols.attr_ids_of(self._row)
        yield from cols.multi_ids_of(self._row)

    def attribute_value(self, attr_id: str) -> Optional[str]:
        return self._store.columns.get_multi(self._row, attr_id)

    def add_pii_hash(self, kind: str, digest: str) -> None:
        self._store.attach_pii_hash(self.user_id, kind, digest)

    def add_pii(self, kind: str, raw_value: str) -> None:
        self.add_pii_hash(kind, hash_pii(kind, raw_value))

    def has_pii_hash(self, kind: str, digest: str) -> bool:
        return digest in self._store._pii_of_row(self._row).get(kind, set())

    def set_attribute(self, attribute: Attribute,
                      value: Optional[str] = None) -> None:
        if attribute.kind is AttributeKind.BINARY:
            if value is not None:
                raise CatalogError(
                    f"binary attribute {attribute.attr_id!r} takes no value"
                )
            store = self._store
            store.columns.set_attr(self._row, attribute.attr_id)
            store._epoch += 1
            return
        if value is None:
            raise CatalogError(
                f"multi attribute {attribute.attr_id!r} needs a value"
            )
        attribute.value_index(value)  # validates membership
        self._store._write(UserColumns.set_multi, self._row,
                           attribute.attr_id, value)

    def clear_attribute(self, attr_id: str) -> None:
        self._store._write(UserColumns.clear_attr, self._row, attr_id)
        self._store._write(UserColumns.clear_multi, self._row, attr_id)

    def __repr__(self) -> str:
        return f"UserView({self.user_id!r}, row={self._row})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UserView):
            return (self._store is other._store
                    and self._row == other._row)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((id(self._store), self._row))


class ColumnarUserStore:
    """The platform's registry of users over :class:`UserColumns`.

    Registry API (``add``/``get``/``attach_pii``/iteration/
    ``users_matching_pii``/``users_with_attribute``) plus what the
    audience and delivery layers read: ``attribute_bitset``/
    ``page_bitset`` (users as bitsets), ``row_of``/``id_of`` (id <->
    row), ``new_user`` (the object-free registration path), and
    ``mutation_epoch`` (the cache-invalidation counter).
    """

    store_name = "users"
    handled_kinds: Tuple[str, ...] = ()

    def __init__(self, store: Optional[StateStore] = None) -> None:
        self.columns = UserColumns()
        self._epoch = 0
        #: Explicit id table; None while every id fits the dense pattern.
        self._ids: Optional[List[str]] = None
        self._rows: Optional[Dict[str, int]] = None
        self._dense_prefix: Optional[str] = None
        self._dense_start = 0
        self._dense_pad = 0
        #: ``"kind:digest" -> row ids`` — the reverse PII match index.
        self._pii_index: Dict[str, Set[int]] = {}
        #: Per-row hashed PII (rows without PII have no entry).
        self._pii_rows: Dict[int, Dict[str, Set[str]]] = {}
        if store is not None:
            store.attach(self)

    # -- id table ----------------------------------------------------------

    def _dense_id(self, row: int) -> str:
        assert self._dense_prefix is not None
        return (f"{self._dense_prefix}"
                f"{self._dense_start + row:0{self._dense_pad}d}")

    def _materialize_ids(self) -> None:
        """Fall off the dense-id fast path onto an explicit id table."""
        self._ids = [self._dense_id(row) for row in range(self.columns.count)]
        self._rows = {user_id: row for row, user_id in enumerate(self._ids)}
        self._dense_prefix = None

    def _register_id(self, user_id: str) -> None:
        """Record the id for the row about to be appended, when it is not
        the next dense id (:meth:`new_user` checks that first)."""
        row = self.columns.count
        if self._ids is not None:
            assert self._rows is not None
            self._ids.append(user_id)
            self._rows[user_id] = row
            return
        if self._dense_prefix is None and row == 0:
            match = _DENSE_ID.match(user_id)
            if match is not None:
                self._dense_prefix = match.group(1)
                self._dense_start = int(match.group(2))
                self._dense_pad = len(match.group(2))
                return
            self._ids = []
            self._rows = {}
            self._ids.append(user_id)
            self._rows[user_id] = row
            return
        self._materialize_ids()
        assert self._ids is not None and self._rows is not None
        self._ids.append(user_id)
        self._rows[user_id] = row

    def id_of(self, row: int) -> str:
        """The user id owning ``row``."""
        if self._ids is not None:
            return self._ids[row]
        return self._dense_id(row)

    def row_of(self, user_id: str) -> Optional[int]:
        """The row owned by ``user_id``, or None when unknown."""
        if self._rows is not None:
            return self._rows.get(user_id)
        prefix = self._dense_prefix
        if prefix is None or not user_id.startswith(prefix):
            return None
        suffix = user_id[len(prefix):]
        # ASCII only: "²".isdigit() holds, but int("²") raises.
        if not (suffix.isascii() and suffix.isdigit()):
            return None
        row = int(suffix) - self._dense_start
        if not 0 <= row < self.columns.count:
            return None
        if self._dense_id(row) != user_id:  # zero-pad mismatch
            return None
        return row

    # -- registry API ------------------------------------------------------

    def __len__(self) -> int:
        return self.columns.count

    def __iter__(self) -> Iterator[UserView]:
        for row in range(self.columns.count):
            yield UserView(self, row)

    def __contains__(self, user_id: str) -> bool:
        return self.row_of(user_id) is not None

    @property
    def mutation_epoch(self) -> int:
        """Bumped on every membership-relevant mutation; derived caches
        (audience reach counts) key on it."""
        return self._epoch

    def new_user(self, user_id: str, country: str = "US", age: int = 30,
                 gender: str = "unknown", zip_code: str = "00000"
                 ) -> UserView:
        """Object-free registration: append a row directly (the streaming
        population path — no transient :class:`UserProfile`)."""
        # The next dense id is neither a duplicate nor a break in the
        # sequence, so the common case formats one id and compares once.
        if (self._dense_prefix is None
                or user_id != self._dense_id(self.columns.count)):
            if self.row_of(user_id) is not None:
                raise CatalogError(f"duplicate user id {user_id!r}")
            self._register_id(user_id)
        row = self.columns.append_row(country, age, gender, zip_code)
        self._epoch += 1
        return UserView(self, row, user_id)

    def add(self, profile: UserProfile) -> UserView:
        """Ingest a :class:`UserProfile` record into the columns.

        Duplicate ids and unindexed PII kinds are rejected *before* any
        state changes, so a bad profile never leaves the store
        half-registered. Returns the row's :class:`UserView`; the
        profile object is not retained, so later mutations must go
        through the view.
        """
        if self.row_of(profile.user_id) is not None:
            raise CatalogError(f"duplicate user id {profile.user_id!r}")
        for kind in profile.pii_hashes:
            if kind not in PII_KINDS:
                raise PIIError(
                    f"profile {profile.user_id!r} carries unindexed PII "
                    f"kind {kind!r}")
        view = self.new_user(
            profile.user_id,
            country=profile.country,
            age=profile.age,
            gender=profile.gender,
            zip_code=profile.zip_code,
        )
        row = view.row
        for attr_id in profile.binary_attrs:
            self.columns.set_attr(row, attr_id)
        for attr_id, value in profile.multi_attrs.items():
            self.columns.set_multi(row, attr_id, value)
        for page_id in profile.liked_pages:
            self.columns.like(row, page_id)
        for kind, digests in profile.pii_hashes.items():
            for digest in digests:
                self._attach_pii_row(row, kind, digest)
        return view

    def get(self, user_id: str) -> UserView:
        row = self.row_of(user_id)
        if row is None:
            raise CatalogError(f"unknown user id {user_id!r}")
        return UserView(self, row, user_id)

    def attach_pii(self, user_id: str, kind: str, raw_value: str) -> str:
        digest = hash_pii(kind, raw_value)
        self.attach_pii_hash(user_id, kind, digest)
        return digest

    def attach_pii_hash(self, user_id: str, kind: str, digest: str) -> None:
        """Attach already-hashed PII to a user and index it."""
        if kind not in PII_KINDS:
            raise PIIError(f"unknown PII kind {kind!r}")
        self._attach_pii_row(self.get(user_id).row, kind, digest)
        self._epoch += 1

    def _attach_pii_row(self, row: int, kind: str, digest: str) -> None:
        self._pii_of_row(row).setdefault(kind, set()).add(digest)
        self._pii_index.setdefault(f"{kind}:{digest}", set()).add(row)

    def _pii_of_row(self, row: int) -> Dict[str, Set[str]]:
        pii = self._pii_rows.get(row)
        if pii is None:
            pii = self._pii_rows[row] = {}
        return pii

    def users_matching_pii(self, kind: str, digest: str) -> Set[str]:
        """User ids whose profile carries this hashed PII — the
        platform-internal match step of PII-based targeting (paper
        section 2.1): uploaded hashes are joined against profiles."""
        rows = self._pii_index.get(f"{kind}:{digest}", ())
        return {self.id_of(row) for row in rows}

    def users_with_attribute(self, attr_id: str) -> List[UserView]:
        """Views of every row carrying ``attr_id`` — a column extraction,
        not a profile scan."""
        column = self.columns.attributes_column((attr_id,))
        return [UserView(self, int(row))
                for row in bitset.to_indices(column)]

    def user_ids(self) -> List[str]:
        return [self.id_of(row) for row in range(self.columns.count)]

    def like_page(self, user_id: str, page_id: str) -> None:
        """Record a page like (the epoch-honest mutation path)."""
        row = self.row_of(user_id)
        if row is None:
            raise CatalogError(f"unknown user id {user_id!r}")
        self.columns.like(row, page_id)
        self._epoch += 1

    # -- columnar extras ---------------------------------------------------

    def attribute_bitset(self, attr_id: str) -> np.ndarray:
        """Users carrying ``attr_id`` (binary set or multi assigned), as
        a bitset over rows."""
        return self.columns.attributes_column((attr_id,))

    def any_attribute_bitset(self, attr_ids: Iterable[str]) -> np.ndarray:
        """Users carrying any of ``attr_ids``, as a bitset over rows: one
        masked pass per attribute word (a keyword audience's members)."""
        return self.columns.attributes_column(attr_ids)

    def page_bitset(self, page_id: str) -> np.ndarray:
        """Users who liked ``page_id``, as a bitset over rows."""
        return self.columns.page_column(page_id)

    def rows_to_ids(self, bits: np.ndarray) -> Set[str]:
        """Decode a row bitset into user ids."""
        return {self.id_of(int(row)) for row in bitset.to_indices(bits)}

    def stats(self) -> Dict[str, Any]:
        """Shape/size summary (the CLI's ``populate --stats`` payload)."""
        cols = self.columns
        return {
            "rows": cols.count,
            "binary_attr_vocab": len(cols.attrs),
            "page_vocab": len(cols.pages),
            "multi_columns": len(cols.multi_cols),
            "column_bytes": cols.column_bytes(),
            "attr_bitset_density": cols.attr_density(),
            "dense_ids": self._ids is None,
            "pii_rows": len(self._pii_rows),
        }

    # -- write-through hook (views call this) -----------------------------

    def _write(self, column_op: Callable[..., None], row: int,
               *args: str) -> None:
        """Apply one :class:`UserColumns` mutation and bump the epoch."""
        column_op(self.columns, row, *args)
        self._epoch += 1

    # -- state owner (snapshot-only) ---------------------------------------

    def state_dump(self) -> Dict[str, Any]:
        ids: Dict[str, Any]
        if self._ids is None and self._dense_prefix is not None:
            ids = {"dense": True, "prefix": self._dense_prefix,
                   "start": self._dense_start, "pad": self._dense_pad}
        else:
            ids = {"dense": False, "ids": list(self._ids or [])}
        return {
            "columns": self.columns.state_dump(),
            "ids": ids,
            "pii_rows": {
                str(row): {kind: sorted(digests)
                           for kind, digests in sorted(pii.items())}
                for row, pii in sorted(self._pii_rows.items())
            },
            "pii_index": {
                key: sorted(rows)
                for key, rows in sorted(self._pii_index.items())
            },
            "epoch": self._epoch,
        }

    def state_load(self, state: Dict[str, Any]) -> None:
        self.columns.state_load(dict(state["columns"]))
        ids = state["ids"]
        if ids.get("dense"):
            self._ids = None
            self._rows = None
            self._dense_prefix = str(ids["prefix"])
            self._dense_start = int(ids["start"])
            self._dense_pad = int(ids["pad"])
        else:
            self._ids = [str(user_id) for user_id in ids.get("ids", [])]
            self._rows = {user_id: row
                          for row, user_id in enumerate(self._ids)}
            self._dense_prefix = None
        self._pii_rows = {
            int(row): {kind: set(digests)
                       for kind, digests in pii.items()}
            for row, pii in state.get("pii_rows", {}).items()
        }
        self._pii_index = {
            key: set(int(row) for row in rows)
            for key, rows in state.get("pii_index", {}).items()
        }
        self._epoch = int(state.get("epoch", 0))

    def apply_record(self, record: Any) -> None:
        raise StoreError(
            "the user column store journals no records "
            f"(got kind {getattr(record, 'kind', record)!r})")
