"""Unit tests for the columnar user store (colstore).

The equivalence suites (``test_colstore_equivalence``, the integration
sweep) pin the store against reference semantics; these tests pin the
store's own machinery — dense-id prediction, matrix widening,
packed-block serialization, and the flyweight views.
"""

import json

import numpy as np
import pytest

from repro.errors import CatalogError, PIIError
from repro.platform import bitset
from repro.platform.attributes import make_binary, make_multi
from repro.platform.colstore import ColumnarUserStore, UserColumns, UserView
from repro.hashing import hash_pii
from repro.platform.users import UserProfile

BIN = make_binary("b1", "Binary", ("Cat",))
BIN2 = make_binary("b2", "Binary 2", ("Cat",))
MULTI = make_multi("m1", "Multi", ("Cat",), values=("x", "y"))


class TestDenseIds:
    def test_dense_ids_predicted_not_stored(self):
        store = ColumnarUserStore()
        for index in range(5):
            store.new_user(f"fb-user-{index:06d}")
        assert store.stats()["dense_ids"] is True
        assert store.row_of("fb-user-000003") == 3
        assert store.id_of(4) == "fb-user-000004"
        assert store.row_of("fb-user-000099") is None

    def test_zero_pad_respected(self):
        store = ColumnarUserStore()
        store.new_user("u-001")
        # "u-01" is not the canonical spelling of row 1's id.
        assert store.row_of("u-01") is None

    def test_non_ascii_digit_suffix_is_unknown(self):
        """"²".isdigit() holds but int("²") raises: such ids are simply
        unknown users, never an exception."""
        store = ColumnarUserStore()
        for index in range(3):
            store.new_user(f"gateway-user-{index:06d}")
        for user_id in ("gateway-user-²", "gateway-user-00000²",
                        "gateway-user-٠٠٠٠٠١", "gateway-user-"):
            assert store.row_of(user_id) is None
            assert user_id not in store
            with pytest.raises(CatalogError, match="unknown user id"):
                store.get(user_id)
        assert store.row_of("gateway-user-000002") == 2
        assert store.row_of("gateway-user-0000002") is None
        assert store.row_of("gateway-user-2") is None

    def test_fallback_on_non_dense_id(self):
        store = ColumnarUserStore()
        store.new_user("u-000")
        store.new_user("u-001")
        store.new_user("alice")  # breaks the arithmetic sequence
        assert store.stats()["dense_ids"] is False
        assert store.row_of("u-001") == 1
        assert store.row_of("alice") == 2
        assert [v.user_id for v in store] == ["u-000", "u-001", "alice"]

    def test_duplicate_and_unknown_errors_match_legacy(self):
        store = ColumnarUserStore()
        store.new_user("u1")
        with pytest.raises(CatalogError, match="duplicate user id 'u1'"):
            store.new_user("u1")
        with pytest.raises(CatalogError, match="unknown user id 'nope'"):
            store.get("nope")

    def test_duplicate_dense_id_changes_nothing(self):
        store = ColumnarUserStore()
        for index in range(3):
            store.new_user(f"fb-user-{index:06d}")
        epoch = store.mutation_epoch
        for user_id in ("fb-user-000000", "fb-user-000002"):
            with pytest.raises(CatalogError,
                               match=f"duplicate user id '{user_id}'"):
                store.new_user(user_id)
        assert len(store) == 3
        assert store.mutation_epoch == epoch
        assert store.stats()["dense_ids"] is True
        store.new_user("fb-user-000003")
        assert store.row_of("fb-user-000003") == 3

    def test_like_page_of_unknown_user_raises(self):
        store = ColumnarUserStore()
        store.new_user("fb-user-000000")
        epoch = store.mutation_epoch
        for user_id in ("fb-user-000001", "fb-user-0", "nope"):
            with pytest.raises(CatalogError,
                               match=f"unknown user id '{user_id}'"):
                store.like_page(user_id, "page-1")
        assert store.mutation_epoch == epoch
        assert len(store.columns.pages) == 0


class TestMatrixWidening:
    def test_attr_matrix_widens_past_64_codes(self):
        """Regression: interning attr #65 replaces the matrix, and the
        write must land in the widened row, not a stale narrow view."""
        store = UserColumns()
        row = store.append_row("US", 30, "female", "10001")
        for index in range(130):
            store.set_attr(row, f"a{index:03d}")
        assert store.attr_count_of(row) == 130
        assert store.has_attr(row, "a129")
        assert [int(c) for c in store.attr_codes_of(row)] == list(range(130))

    def test_page_matrix_widens_past_64_codes(self):
        store = UserColumns()
        row = store.append_row("US", 30, "female", "10001")
        for index in range(70):
            store.like(row, f"p{index}")
        assert store.has_page(row, "p69")
        assert len(store.page_ids_of(row)) == 70

    def test_row_growth_preserves_data(self):
        store = ColumnarUserStore()
        first = store.new_user("u-0000")
        first.set_attribute(BIN)
        for index in range(1, 3000):  # force several capacity doublings
            store.new_user(f"u-{index:04d}")
        assert store.get("u-0000").has_attribute("b1")
        assert len(store) == 3000


class TestUserViewFacade:
    def test_set_and_clear_attribute(self):
        store = ColumnarUserStore()
        view = store.new_user("u1")
        view.set_attribute(BIN)
        view.set_attribute(MULTI, "x")
        assert view.has_attribute("b1")
        assert view.attribute_value("m1") == "x"
        assert sorted(view.attribute_ids()) == ["b1", "m1"]
        view.clear_attribute("b1")
        view.clear_attribute("m1")
        assert not view.has_attribute("b1")
        assert view.attribute_value("m1") is None

    def test_legacy_error_messages(self):
        store = ColumnarUserStore()
        view = store.new_user("u1")
        with pytest.raises(CatalogError,
                           match="binary attribute 'b1' takes no value"):
            view.set_attribute(BIN, "x")
        with pytest.raises(CatalogError,
                           match="multi attribute 'm1' needs a value"):
            view.set_attribute(MULTI)
        with pytest.raises(CatalogError):
            view.set_attribute(MULTI, "not-a-value")

    def test_views_behave_like_collections(self):
        store = ColumnarUserStore()
        view = store.new_user("u1")
        view.binary_attrs.add("b1")
        view.binary_attrs.add("b2")
        assert "b1" in view.binary_attrs
        assert set(view.binary_attrs) == {"b1", "b2"}
        assert view.binary_attrs & {"b1", "zz"} == {"b1"}
        assert view.binary_attrs - {"b1"} == {"b2"}
        view.liked_pages.add("p1")
        assert len(view.liked_pages) == 1
        view.multi_attrs["m1"] = "x"
        assert view.multi_attrs.get("m1") == "x"
        assert view.multi_attrs.items() == [("m1", "x")]
        assert view.multi_attrs.pop("m1") == "x"
        assert len(view.multi_attrs) == 0

    def test_view_identity(self):
        store = ColumnarUserStore()
        store.new_user("u1")
        assert store.get("u1") == store.get("u1")
        assert len({store.get("u1"), store.get("u1")}) == 1


class TestPII:
    def test_add_rejects_unindexed_pii_kind_up_front(self):
        store = ColumnarUserStore()
        profile = UserProfile(user_id="u1")
        # A view's add_pii rejects unknown kinds, so smuggle the hash in
        # the way a hand-built or deserialized profile could.
        profile.pii_hashes["ssn"] = {"deadbeef"}
        with pytest.raises(PIIError,
                           match="carries unindexed PII kind 'ssn'"):
            store.add(profile)
        # Rejected up front: nothing was ingested.
        assert "u1" not in store

    def test_add_indexes_preexisting_pii(self):
        store = ColumnarUserStore()
        profile = UserProfile(
            user_id="u1",
            pii_hashes={"email": {hash_pii("email", "a@x.com")}})
        store.add(profile)
        digest = hash_pii("email", "a@x.com")
        assert store.users_matching_pii("email", digest) == {"u1"}

    def test_view_add_pii_hash_is_row_local(self):
        """Writing through the view is a store write: the digest lands
        on the row *and* in the PII index (so a custom audience uploaded
        later matches the user), and the mutation epoch moves."""
        store = ColumnarUserStore()
        view = store.new_user("u1")
        store.new_user("u2")
        digest = hash_pii("email", "a@x.com")
        epoch = store.mutation_epoch
        view.add_pii_hash("email", digest)
        assert view.has_pii_hash("email", digest)
        assert not store.get("u2").has_pii_hash("email", digest)
        assert store.users_matching_pii("email", digest) == {"u1"}
        assert store.mutation_epoch > epoch
        with pytest.raises(PIIError):
            view.add_pii_hash("ssn", digest)


class TestColumnarQueries:
    def _populated(self):
        store = ColumnarUserStore()
        for index in range(10):
            view = store.new_user(f"u-{index:02d}")
            if index % 2 == 0:
                view.set_attribute(BIN)
            if index % 3 == 0:
                store.like_page(view.user_id, "p1")
        return store

    def test_users_with_attribute(self):
        store = self._populated()
        ids = [v.user_id for v in store.users_with_attribute("b1")]
        assert ids == [f"u-{i:02d}" for i in range(0, 10, 2)]
        assert store.users_with_attribute("unknown") == []

    def test_attribute_and_page_bitsets(self):
        store = self._populated()
        rows = list(bitset.to_indices(store.attribute_bitset("b1")))
        assert rows == [0, 2, 4, 6, 8]
        assert store.rows_to_ids(store.page_bitset("p1")) == {
            "u-00", "u-03", "u-06", "u-09"}

    def test_multi_column_counts_as_attribute(self):
        store = ColumnarUserStore()
        view = store.new_user("u-0")
        view.set_attribute(MULTI, "y")
        assert store.rows_to_ids(store.attribute_bitset("m1")) == {"u-0"}

    def test_mutation_epoch_bumps(self):
        store = ColumnarUserStore()
        view = store.new_user("u1")
        before = store.mutation_epoch
        view.set_attribute(BIN)
        assert store.mutation_epoch > before

    def test_stats_shape(self):
        store = self._populated()
        stats = store.stats()
        assert stats["rows"] == 10
        assert stats["binary_attr_vocab"] == 1
        assert stats["page_vocab"] == 1
        assert stats["column_bytes"] > 0
        assert 0.0 < stats["attr_bitset_density"] <= 1.0


class TestAnyAttributeBitset:
    """A keyword audience's members in one pass per attribute word
    (``any_attribute_bitset``), against the union of one column per
    attribute and against the views' ``has_attribute``."""

    BINARY = [make_binary(f"kb{i}", f"Binary {i}", ("Cat",))
              for i in range(150)]
    MULTIS = [make_multi(f"km{i}", f"Multi {i}", ("Cat",),
                         values=("x", "y")) for i in range(3)]

    def _store(self, seed):
        rng = np.random.default_rng(seed)
        store = ColumnarUserStore()
        for index in range(int(rng.integers(1, 300))):
            view = store.new_user(f"u-{index:03d}")
            for attr in rng.choice(len(self.BINARY), size=3):
                view.set_attribute(self.BINARY[attr])
            if rng.random() < 0.3:
                view.set_attribute(self.MULTIS[rng.integers(0, 2)], "y")
        # Interned, then cleared everywhere: matches nobody.
        view.set_attribute(self.MULTIS[2], "x")
        view.multi_attrs.pop("km2")
        return store

    def _assert_matches(self, store, ids):
        got = store.any_attribute_bitset(ids)
        union = bitset.union_all([store.attribute_bitset(i) for i in ids],
                                 len(store))
        assert np.array_equal(got, union)
        views = {row for row in range(len(store))
                 if any(UserView(store, row).has_attribute(i)
                        for i in ids)}
        assert set(bitset.to_indices(got).tolist()) == views

    def test_binary_across_words(self):
        store = self._store(1)
        assert store.columns.attr_bits.shape[1] >= 3
        self._assert_matches(store, {"kb0", "kb63", "kb64", "kb130"})
        self._assert_matches(store, {f"kb{i}" for i in range(0, 150, 4)})

    def test_multi_assigned(self):
        store = self._store(2)
        self._assert_matches(store, {"km0"})
        self._assert_matches(store, {"km0", "km1", "kb5", "kb100"})

    def test_never_interned_and_no_match(self):
        store = self._store(3)
        self._assert_matches(store, {"never-seen", "kb7"})
        self._assert_matches(store, {"never-seen"})
        self._assert_matches(store, {"km2"})
        self._assert_matches(store, set())
        assert not store.any_attribute_bitset({"never-seen", "km2"}).any()

    def test_random_id_sets(self):
        ids = [a.attr_id for a in self.BINARY + self.MULTIS] + ["nope"]
        rng = np.random.default_rng(4)
        for seed in range(20):
            store = self._store(seed)
            pick = rng.choice(len(ids), size=int(rng.integers(0, 40)))
            self._assert_matches(store, {ids[i] for i in pick})


class TestStateRoundTrip:
    def test_json_round_trip(self):
        store = ColumnarUserStore()
        for index in range(80):
            view = store.new_user(f"u-{index:03d}", age=20 + index % 40,
                                  gender="female" if index % 2 else "male",
                                  zip_code=f"{10001 + index % 5:05d}")
            if index % 2:
                view.set_attribute(BIN)
            view.set_attribute(MULTI, "x" if index % 3 else "y")
            if index % 4 == 0:
                store.like_page(view.user_id, f"p{index % 7}")
        store.attach_pii("u-000", "email", "a@x.com")
        payload = json.loads(json.dumps(store.state_dump()))

        other = ColumnarUserStore()
        other.state_load(payload)
        assert len(other) == len(store)
        for view in store:
            twin = other.get(view.user_id)
            assert sorted(twin.attribute_ids()) == sorted(view.attribute_ids())
            assert twin.attribute_value("m1") == view.attribute_value("m1")
            assert set(twin.liked_pages) == set(view.liked_pages)
            assert twin.age == view.age
            assert twin.gender == view.gender
            assert twin.zip_code == view.zip_code
        digest = hash_pii("email", "a@x.com")
        assert other.users_matching_pii("email", digest) == {"u-000"}

    def test_restored_store_stays_writable(self):
        store = ColumnarUserStore()
        store.new_user("u-000").set_attribute(BIN)
        other = ColumnarUserStore()
        other.state_load(json.loads(json.dumps(store.state_dump())))
        other.new_user("u-001").set_attribute(BIN2)
        assert other.get("u-001").has_attribute("b2")
        assert len(other) == 2
