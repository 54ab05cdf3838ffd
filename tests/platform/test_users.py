"""Unit tests for user profiles and the user store they register into."""

import pytest

from repro.errors import CatalogError, PIIError
from repro.hashing import hash_pii
from repro.platform.attributes import make_binary, make_multi
from repro.platform.colstore import ColumnarUserStore
from repro.platform.users import UserProfile

BIN = make_binary("b1", "Binary", ("Cat",))
MULTI = make_multi("m1", "Multi", ("Cat",), values=("x", "y"))


def _view():
    """A fresh user's row view: the one place profile writes happen."""
    return ColumnarUserStore().new_user("u1")


class TestUserProfile:
    def test_set_binary_attribute(self):
        user = _view()
        user.set_attribute(BIN)
        assert user.has_attribute("b1")

    def test_binary_with_value_rejected(self):
        user = _view()
        with pytest.raises(CatalogError):
            user.set_attribute(BIN, "x")

    def test_set_multi_attribute(self):
        user = _view()
        user.set_attribute(MULTI, "y")
        assert user.attribute_value("m1") == "y"
        assert user.has_attribute("m1")

    def test_multi_without_value_rejected(self):
        user = _view()
        with pytest.raises(CatalogError):
            user.set_attribute(MULTI)

    def test_multi_with_bad_value_rejected(self):
        user = _view()
        with pytest.raises(CatalogError):
            user.set_attribute(MULTI, "zzz")

    def test_absent_attribute(self):
        user = UserProfile(user_id="u1")
        assert not user.has_attribute("b1")
        assert user.attribute_value("m1") is None

    def test_clear_attribute(self):
        user = _view()
        user.set_attribute(BIN)
        user.set_attribute(MULTI, "x")
        user.clear_attribute("b1")
        user.clear_attribute("m1")
        assert not user.has_attribute("b1")
        assert not user.has_attribute("m1")

    def test_add_pii_hashes_internally(self):
        user = _view()
        user.add_pii("email", "A@b.com")
        digest = hash_pii("email", "a@b.com")
        assert user.has_pii_hash("email", digest)

    def test_unknown_pii_kind_rejected(self):
        user = _view()
        with pytest.raises(PIIError):
            user.add_pii_hash("ssn", "0" * 64)


class TestUserStore:
    def test_add_and_get(self):
        store = ColumnarUserStore()
        store.add(UserProfile(user_id="u1"))
        assert store.get("u1").user_id == "u1"
        assert "u1" in store
        assert len(store) == 1

    def test_duplicate_rejected(self):
        store = ColumnarUserStore()
        store.add(UserProfile(user_id="u1"))
        with pytest.raises(CatalogError):
            store.add(UserProfile(user_id="u1"))

    def test_unknown_get_raises(self):
        with pytest.raises(CatalogError):
            ColumnarUserStore().get("ghost")

    def test_pii_index_via_attach(self):
        store = ColumnarUserStore()
        store.add(UserProfile(user_id="u1"))
        digest = store.attach_pii("u1", "phone", "617-555-0100")
        assert store.users_matching_pii("phone", digest) == {"u1"}

    def test_pii_index_unknown_hash_empty(self):
        store = ColumnarUserStore()
        assert store.users_matching_pii("email", "0" * 64) == set()

    def test_shared_pii_matches_both_users(self):
        """A household landline can map to two accounts."""
        store = ColumnarUserStore()
        store.add(UserProfile(user_id="u1"))
        store.add(UserProfile(user_id="u2"))
        store.attach_pii("u1", "phone", "617-555-0100")
        digest = store.attach_pii("u2", "phone", "617-555-0100")
        assert store.users_matching_pii("phone", digest) == {"u1", "u2"}

    def test_preexisting_pii_indexed_on_add(self):
        profile = UserProfile(
            user_id="u1",
            pii_hashes={"email": {hash_pii("email", "x@y.z")}})
        store = ColumnarUserStore()
        store.add(profile)
        digest = hash_pii("email", "x@y.z")
        assert store.users_matching_pii("email", digest) == {"u1"}

    def test_users_with_attribute(self):
        store = ColumnarUserStore()
        u1 = store.add(UserProfile(user_id="u1"))
        store.add(UserProfile(user_id="u2"))
        u1.set_attribute(BIN)
        assert [p.user_id for p in store.users_with_attribute("b1")] == ["u1"]

    def test_iteration_and_user_ids(self):
        store = ColumnarUserStore()
        store.add(UserProfile(user_id="u1"))
        store.add(UserProfile(user_id="u2"))
        assert store.user_ids() == ["u1", "u2"]
        assert [p.user_id for p in store] == ["u1", "u2"]
