"""Property suite: mask-program eligibility == ``Expr.matches``.

The batch sweep's correctness rests on one identity: for any targeting
Expr tree and any columnar population, the lowered
:class:`~repro.platform.targeting.MaskProgram` must produce exactly the
boolean vector the reference ``Expr.matches`` produces row by row —
including every missing-vocabulary edge (attributes, pages, zips,
countries, genders the store has never interned read as all-False).
Hypothesis drives random trees against random populations; the explicit
classes below pin the fallback flag (``lower_spec`` returning ``None``)
and its cache hygiene.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TargetingError
from repro.platform import bitset
from repro.platform.colstore import ColumnarUserStore
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
    lower_spec,
)

# A small closed world, plus "ghost" values the store never interns —
# the mask program must read those columns as all-False exactly like
# Expr.matches does.
BINARY_ATTRS = ["attr-a", "attr-b", "attr-c", "attr-ghost"]
MULTI_ATTR = "attr-multi"
MULTI_VALUES = ["v0", "v1", "v-ghost"]
PAGES = ["page-x", "page-y", "page-ghost"]
AUDIENCES = ["aud-1", "aud-2"]
COUNTRIES = ["US", "DE", "XX"]
GENDERS = ["male", "female", "unknown"]
ZIPS = ["02139", "94110", "60601", "99999"]


def leaf_exprs():
    return st.one_of(
        st.just(All()),
        st.sampled_from(BINARY_ATTRS + [MULTI_ATTR]).map(HasAttr),
        st.tuples(st.just(MULTI_ATTR),
                  st.sampled_from(MULTI_VALUES)).map(lambda t: AttrIs(*t)),
        st.tuples(st.integers(10, 60), st.integers(0, 30)).map(
            lambda t: AgeBetween(t[0], t[0] + t[1])),
        st.sampled_from(GENDERS).map(GenderIs),
        st.sampled_from(COUNTRIES).map(InCountry),
        st.lists(st.sampled_from(ZIPS), min_size=1, max_size=3).map(
            lambda z: InZip(frozenset(z))),
        st.sampled_from(AUDIENCES).map(InAudience),
        st.sampled_from(PAGES).map(LikesPage),
    )


def expr_trees():
    return st.recursive(
        leaf_exprs(),
        lambda children: st.one_of(
            children.map(Not),
            st.lists(children, min_size=2, max_size=3).map(
                lambda ops: And(tuple(ops))),
            st.lists(children, min_size=2, max_size=3).map(
                lambda ops: Or(tuple(ops))),
        ),
        max_leaves=8,
    )


user_strategy = st.fixed_dictionaries({
    "country": st.sampled_from(COUNTRIES[:2]),
    "age": st.integers(13, 80),
    "gender": st.sampled_from(GENDERS),
    "zip_code": st.sampled_from(ZIPS[:3]),
    "binary": st.sets(st.sampled_from(BINARY_ATTRS[:3]), max_size=3),
    "multi": st.sampled_from([None, "v0", "v1"]),
    "pages": st.sets(st.sampled_from(PAGES[:2]), max_size=2),
    "audiences": st.sets(st.sampled_from(AUDIENCES), max_size=2),
})


def build_world(users):
    """A columnar store + audience row sets from drawn user dicts."""
    store = ColumnarUserStore()
    members = {audience_id: set() for audience_id in AUDIENCES}
    for row, spec in enumerate(users):
        view = store.new_user(
            f"u-{row:05d}", country=spec["country"], age=spec["age"],
            gender=spec["gender"], zip_code=spec["zip_code"])
        for attr_id in sorted(spec["binary"]):
            store.columns.set_attr(row, attr_id)
        if spec["multi"] is not None:
            store.columns.set_multi(row, MULTI_ATTR, spec["multi"])
        for page_id in sorted(spec["pages"]):
            store.columns.like(row, page_id)
        for audience_id in spec["audiences"]:
            members[audience_id].add(row)
        assert view.row == row
    bitsets = {
        audience_id: bitset.from_indices(sorted(rows), len(store))
        for audience_id, rows in members.items()
    }
    return store, members, bitsets


class TestMaskMatcherEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(expr=expr_trees(),
           users=st.lists(user_strategy, min_size=1, max_size=96))
    def test_mask_equals_matcher_everywhere(self, expr, users):
        store, members, bitsets = build_world(users)
        n = len(store)
        program = lower_spec(expr)
        assert program is not None, (
            f"base-library tree unexpectedly unlowerable: "
            f"{expr.to_string()}")
        def row_resolver(audience_id, user_id):
            return store.row_of(user_id) in members[audience_id]

        expected = np.array(
            [bool(expr.matches(view, row_resolver)) for view in store],
            dtype=bool)
        got = program.evaluate(store.columns, 0, n,
                               resolver=bitsets.__getitem__)
        assert np.array_equal(got, expected)

    @settings(max_examples=40, deadline=None)
    @given(expr=expr_trees(),
           users=st.lists(user_strategy, min_size=65, max_size=160))
    def test_split_ranges_agree_with_full_range(self, expr, users):
        """Evaluating 64-aligned sub-ranges concatenates to the full
        evaluation — the block decomposition the sweep engine uses."""
        store, _members, bitsets = build_world(users)
        n = len(store)
        program = lower_spec(expr)
        assert program is not None
        resolver = bitsets.__getitem__
        full = program.evaluate(store.columns, 0, n, resolver=resolver)
        head = program.evaluate(store.columns, 0, 64, resolver=resolver)
        tail = program.evaluate(store.columns, 64, n, resolver=resolver)
        assert np.array_equal(np.concatenate([head, tail]), full)


class OpaquePredicate(HasAttr):
    """An Expr subclass whose runtime semantics the lowerer can't see."""

    def matches(self, user, resolver):  # pragma: no cover - never run
        return not super().matches(user, resolver)


class TestFallbackRouting:
    def test_subclassed_node_is_not_lowered(self):
        assert lower_spec(OpaquePredicate("attr-a")) is None
        assert lower_spec(
            And((HasAttr("attr-b"), OpaquePredicate("attr-a")))) is None
        assert lower_spec(
            Not(Or((All(), OpaquePredicate("attr-a"))))) is None

    def test_fallback_cache_does_not_alias_base_class(self):
        """Subclass and base share to_string(); the cache must not let
        either verdict shadow the other."""
        assert lower_spec(OpaquePredicate("attr-z")) is None
        base = lower_spec(HasAttr("attr-z"))
        assert base is not None
        # And the other way round: the lowered base program must not be
        # served for the opaque subclass.
        assert lower_spec(OpaquePredicate("attr-z")) is None
        # Repeated lookups are stable (both verdicts are cached).
        assert lower_spec(HasAttr("attr-z")) is base

    def test_audience_program_requires_resolver(self):
        program = lower_spec(InAudience("aud-1"))
        assert program is not None
        store, _members, _bitsets = build_world([{
            "country": "US", "age": 30, "gender": "unknown",
            "zip_code": "02139", "binary": set(), "multi": None,
            "pages": set(), "audiences": set(),
        }])
        with pytest.raises(TargetingError, match="resolver"):
            program.evaluate(store.columns, 0, 1)

    def test_unaligned_start_rejected(self):
        program = lower_spec(InAudience("aud-1"))
        assert program is not None
        store, _members, bitsets = build_world([{
            "country": "US", "age": 30, "gender": "unknown",
            "zip_code": "02139", "binary": set(), "multi": None,
            "pages": set(), "audiences": {"aud-1"},
        }] * 9)
        with pytest.raises(ValueError, match="aligned"):
            program.evaluate(store.columns, 3, 9,
                             resolver=bitsets.__getitem__)
