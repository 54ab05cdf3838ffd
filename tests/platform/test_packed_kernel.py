"""The packed eligibility pass: edge inputs, store immutability, counts.

:func:`~repro.platform.targeting.evaluate_packed` writes each lowered
program's matches straight into ``uint64`` words, computing every leaf
the programs share once per block. These cases pin the inputs the
random suites (``test_mask_lowering.py``, ``test_targeting_compile.py``)
reach only by chance: ranges that end mid-word under a ``Not`` root,
attribute matrices wider than one word, a multi attribute under
``HasAttr``, audience bitsets narrower or wider than the range, a 1-row
store, a many-program pass against the one-program passes — and that
a pass never writes to the store's columns (the one-word ``page_bits``
matrix slices to a view). ``AudienceRegistry.count_matching`` counts by
popcount of the same pass and must equal the ``Expr.matches`` count.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.platform import bitset
from repro.platform.catalog import build_us_catalog
from repro.platform.colstore import ColumnarUserStore
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.platform.targeting import (
    AgeBetween,
    All,
    And,
    AttrIs,
    GenderIs,
    HasAttr,
    InAudience,
    InCountry,
    InZip,
    LikesPage,
    Not,
    Or,
    TargetingSpec,
    evaluate_packed,
    lower_spec,
)
from repro.workloads.competition import zero_competition

#: More attributes than one 64-bit word holds, so the attribute matrix
#: is several words wide.
WIDE_ATTRS = [f"attr-{i:03d}" for i in range(150)]
MULTI = "attr-multi"
MULTI_VALUES = ["m0", "m1", "m2"]
PAGES = ["page-0", "page-1"]
AUDIENCE = "aud-0"


def _wide_store(rows: int, seed: int = 5) -> ColumnarUserStore:
    rng = random.Random(seed)
    store = ColumnarUserStore()
    for row in range(rows):
        store.new_user(f"u-{row:05d}", country=rng.choice(["US", "DE"]),
                       age=rng.randint(13, 80),
                       gender=rng.choice(["male", "female"]),
                       zip_code=rng.choice(["02139", "94110"]))
        for attr_id in rng.sample(WIDE_ATTRS, rng.randint(0, 12)):
            store.columns.set_attr(row, attr_id)
        if rng.random() < 0.6:
            store.columns.set_multi(row, MULTI, rng.choice(MULTI_VALUES))
        for page_id in PAGES:
            if rng.random() < 0.5:
                store.columns.like(row, page_id)
    return store


def _audience_rows(n: int) -> set:
    return {row for row in range(n) if row % 3 == 0}


def _expected(expr, store, start, stop, members) -> np.ndarray:
    def resolver(audience_id, user_id):
        return store.row_of(user_id) in members

    return np.array([bool(expr.matches(view, resolver))
                     for view in store][start:stop], dtype=bool)


def _check(words: np.ndarray, expected: np.ndarray) -> None:
    """Exactly the expected rows' bits are set, and none past the range."""
    assert words.shape == (bitset.words_for(len(expected)),)
    assert np.array_equal(bitset.to_indices(words),
                          np.flatnonzero(expected))


EDGE_SPECS = [
    Not(HasAttr("attr-100")),
    Not(And((HasAttr("attr-003"), LikesPage("page-1")))),
    Not(Or((HasAttr(MULTI), InAudience(AUDIENCE)))),
    Not(All()),
    And((HasAttr("attr-070"), HasAttr("attr-140"),
         Not(LikesPage("page-0")))),
    Or((HasAttr(MULTI), HasAttr("attr-127"))),
    And((HasAttr(MULTI), Not(AttrIs(MULTI, "m1")))),
    Or((AgeBetween(20, 40), GenderIs("female"), InCountry("DE"),
        InZip(frozenset({"94110"})))),
    Not(InAudience(AUDIENCE)),
    LikesPage("page-ghost"),
    Not(HasAttr("attr-ghost")),
]


@pytest.mark.parametrize("start,stop", [(0, 100), (64, 100), (0, 70),
                                        (64, 130), (128, 129)])
def test_ranges_ending_mid_word(start, stop):
    """``Not`` roots over ranges whose length is not a multiple of 64:
    the flipped tail bits must stay zero."""
    store = _wide_store(130)
    members = _audience_rows(len(store))
    bits = bitset.from_indices(sorted(members), len(store))
    programs = [lower_spec(expr) for expr in EDGE_SPECS]
    matrix = evaluate_packed(programs, store.columns, start, stop,
                             {AUDIENCE: bits}.__getitem__)
    for expr, words in zip(EDGE_SPECS, matrix):
        _check(words, _expected(expr, store, start, stop, members))


def test_multi_word_attribute_matrix_in_one_pass():
    """Every one of 150 attributes (three matrix words), each as its own
    program in one pass, equals its one-program pass and the matcher."""
    store = _wide_store(300)
    assert store.columns.attr_bits.shape[1] >= 3
    exprs = [HasAttr(attr_id) for attr_id in WIDE_ATTRS]
    exprs += [And((HasAttr(a), LikesPage(PAGES[i % 2])))
              for i, a in enumerate(WIDE_ATTRS[60:80])]
    programs = [lower_spec(expr) for expr in exprs]
    matrix = evaluate_packed(programs, store.columns, 0, len(store))
    for expr, program, words in zip(exprs, programs, matrix):
        _check(words, _expected(expr, store, 0, len(store), set()))
        alone, = evaluate_packed([program], store.columns, 0, len(store))
        assert np.array_equal(alone, words)


def test_multi_attribute_under_has_attr():
    """``HasAttr`` of a multi attribute reads its value column: any
    assigned value matches."""
    store = _wide_store(90)
    expr = HasAttr(MULTI)
    words, = evaluate_packed([lower_spec(expr)], store.columns, 0,
                             len(store))
    expected = _expected(expr, store, 0, len(store), set())
    assert 0 < expected.sum() < len(store)
    _check(words, expected)


@pytest.mark.parametrize("width", [0, 1, 10, 64, 65])
def test_audience_bitset_narrower_than_range(width):
    """Rows past the audience bitset's width read as non-members."""
    store = _wide_store(150)
    members = {row for row in _audience_rows(len(store)) if row < width}
    bits = bitset.from_indices(sorted(members), width)
    for expr in (InAudience(AUDIENCE), Not(InAudience(AUDIENCE))):
        for start, stop in ((0, 150), (64, 150), (128, 150)):
            words, = evaluate_packed([lower_spec(expr)], store.columns,
                                     start, stop,
                                     {AUDIENCE: bits}.__getitem__)
            _check(words, _expected(expr, store, start, stop, members))


def test_audience_bitset_wider_than_range():
    """Members past ``stop`` (in the range's last word) are not set."""
    store = _wide_store(150)
    members = set(range(len(store)))
    bits = bitset.from_indices(sorted(members), len(store))
    words, = evaluate_packed([lower_spec(InAudience(AUDIENCE))],
                             store.columns, 0, 70,
                             {AUDIENCE: bits}.__getitem__)
    _check(words, np.ones(70, dtype=bool))


def test_one_row_store():
    store = _wide_store(1)
    exprs = [All(), Not(All()), Not(HasAttr("attr-000")), HasAttr(MULTI),
             AgeBetween(0, 200), Not(InAudience(AUDIENCE))]
    members = {0}
    matrix = evaluate_packed([lower_spec(e) for e in exprs], store.columns,
                             0, 1, {AUDIENCE: bitset.from_indices([0], 1)}
                             .__getitem__)
    assert matrix.shape == (len(exprs), 1)
    for expr, words in zip(exprs, matrix):
        _check(words, _expected(expr, store, 0, 1, members))


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def test_pass_never_writes_the_store():
    """A pass reads the bit matrices through views — ``page_bits`` is one
    word wide, so its column slice is the store's own memory — and must
    leave every column and audience bitset byte-identical."""
    store = _wide_store(200)
    cols = store.columns
    assert cols.page_bits.shape[1] == 1
    members = _audience_rows(len(store))
    bits = bitset.from_indices(sorted(members), len(store))
    before = {name: _digest(getattr(cols, name))
              for name in ("attr_bits", "page_bits", "age", "gender",
                           "country", "zip")}
    before["multi"] = _digest(cols.multi_cols[MULTI])
    before["audience"] = _digest(bits)
    exprs = EDGE_SPECS + [LikesPage("page-0"), Not(LikesPage("page-1")),
                          And((LikesPage("page-0"), LikesPage("page-1"))),
                          HasAttr("attr-000"), InAudience(AUDIENCE)]
    programs = [lower_spec(expr) for expr in exprs]
    for start, stop in ((0, 200), (64, 131), (0, 1)):
        evaluate_packed(programs, cols, start, stop,
                        {AUDIENCE: bits}.__getitem__)
        for program in programs:  # and each one alone
            evaluate_packed([program], cols, start, stop,
                            {AUDIENCE: bits}.__getitem__)
    after = {name: _digest(getattr(cols, name))
             for name in ("attr_bits", "page_bits", "age", "gender",
                          "country", "zip")}
    after["multi"] = _digest(cols.multi_cols[MULTI])
    after["audience"] = _digest(bits)
    assert after == before


def _random_spec(rng, attrs, multi, pages, audiences):
    def atom():
        kind = rng.randrange(8)
        if kind == 0:
            return HasAttr(rng.choice(attrs + list(multi)))
        if kind == 1:
            attr_id = rng.choice(list(multi))
            return AttrIs(attr_id, rng.choice(multi[attr_id]))
        if kind == 2:
            low = rng.randint(13, 60)
            return AgeBetween(low, rng.randint(low, 70))
        if kind == 3:
            return GenderIs(rng.choice(["male", "female"]))
        if kind == 4:
            return InAudience(rng.choice(audiences))
        if kind == 5:
            return LikesPage(rng.choice(pages))
        if kind == 6:
            return InCountry(rng.choice(["US", "DE"]))
        return All()

    def tree(depth):
        if depth <= 0 or rng.random() < 0.3:
            return Not(atom()) if rng.random() < 0.25 else atom()
        if rng.random() < 0.15:
            return Not(tree(depth - 1))
        operands = tuple(tree(depth - 1) for _ in range(rng.randint(2, 3)))
        return And(operands) if rng.random() < 0.5 else Or(operands)

    return TargetingSpec(expr=tree(3))


def test_count_matching_equals_matcher_count():
    rng = random.Random(21)
    platform = AdPlatform(config=PlatformConfig(name="packed-count"),
                          catalog=build_us_catalog(80, 25),
                          competing_draw=zero_competition())
    binary = [a.attr_id for a in platform.catalog.binary_attributes()]
    assert len(binary) > 64
    multi = {a.attr_id: list(a.values)
             for a in platform.catalog.multi_attributes()}
    account = platform.create_ad_account("adv", budget=10.0)
    pages = [platform.create_page(account.account_id, f"p{i}").page_id
             for i in range(3)]
    for i in range(203):
        view = platform.register_user(
            country=rng.choice(["US", "DE"]), age=rng.randint(13, 75),
            gender=rng.choice(["male", "female"]))
        for attr_id in rng.sample(binary, rng.randint(0, 15)):
            view.binary_attrs.add(attr_id)
        for attr_id, values in multi.items():
            if rng.random() < 0.4:
                view.multi_attrs[attr_id] = rng.choice(values)
        for page_id in pages:
            if rng.random() < 0.4:
                platform.like_page(view.user_id, page_id)
    registry = platform.audiences
    registry.create_page_audience("aud-page", account.account_id, pages[0])
    registry.create_keyword_audience("aud-kw", account.account_id,
                                     ["Musicals", "Jazz"])
    audiences = ["aud-page", "aud-kw"]
    for _ in range(60):
        spec = _random_spec(rng, binary, multi, pages, audiences)
        expected = sum(1 for view in platform.users
                       if spec.matches(view, registry.is_member))
        assert registry.count_matching(spec) == expected, spec.to_string()
