"""Unit tests for audiences: creation, membership, gates, reach."""

import pytest

from repro.errors import AudienceError, AudienceTooSmallError
from repro.platform.audiences import (
    AudienceKind,
    AudienceRegistry,
    ReachEstimate,
    round_reach,
)
from repro.platform.pii import record_from_raw
from repro.platform.pixels import PixelRegistry
from repro.platform.colstore import ColumnarUserStore
from repro.platform.users import UserProfile
from repro.platform.web import Browser, Website


@pytest.fixture
def users():
    store = ColumnarUserStore()
    for index in range(30):
        profile = UserProfile(user_id=f"u{index}")
        store.add(profile)
        store.attach_pii(f"u{index}", "email", f"user{index}@x.com")
    return store


@pytest.fixture
def pixels():
    registry = PixelRegistry()
    registry.issue("px-1", "acct-1")
    return registry


@pytest.fixture
def registry(users, pixels):
    return AudienceRegistry(users=users, pixels=pixels,
                            min_custom_audience_size=20)


def _pii_records(count):
    return [record_from_raw("email", f"user{i}@x.com") for i in range(count)]


class TestRoundReach:
    def test_below_floor_reported_as_floor(self):
        estimate = round_reach(7, floor=1000)
        assert estimate.is_floor
        assert estimate.displayed == 1000
        assert str(estimate) == "below 1000"

    def test_above_floor_quantized(self):
        estimate = round_reach(1234, floor=1000, quantum=50)
        assert not estimate.is_floor
        assert estimate.displayed == 1250

    def test_exact_quantum_unchanged(self):
        assert round_reach(1500, floor=1000, quantum=50).displayed == 1500


class TestPIIAudience:
    def test_matching(self, registry):
        audience = registry.create_pii_audience(
            "aud-1", "acct-1", _pii_records(25))
        assert len(registry.members("aud-1")) == 25

    def test_nonmatching_hashes_silently_dropped(self, registry):
        records = _pii_records(5) + [
            record_from_raw("email", "stranger@nowhere.com")
        ]
        registry.create_pii_audience("aud-1", "acct-1", records)
        assert len(registry.members("aud-1")) == 5

    def test_membership_frozen_at_creation(self, registry, users):
        registry.create_pii_audience("aud-1", "acct-1", _pii_records(5))
        users.add(UserProfile(user_id="u-new"))
        users.attach_pii("u-new", "email", "user0@x.com")
        # new user shares user0's email, but the audience is frozen
        assert "u-new" not in registry.members("aud-1")

    def test_runnable_gate_blocks_small(self, registry):
        """The minimum-size gate: why the paper's 2-author validation used
        page likes instead of a custom audience."""
        registry.create_pii_audience("aud-1", "acct-1", _pii_records(5))
        with pytest.raises(AudienceTooSmallError):
            registry.check_runnable("aud-1")

    def test_runnable_gate_passes_large(self, registry):
        registry.create_pii_audience("aud-1", "acct-1", _pii_records(25))
        registry.check_runnable("aud-1")


class TestPixelAudience:
    def _fire(self, pixels, user_id):
        site = Website(domain="prov.org", owner="prov")
        site.add_page("/optin", pixel_ids=["px-1"])
        pixels.record_visit(Browser(user_id).visit(site, "/optin"))

    def test_membership_is_dynamic(self, registry, pixels):
        registry.create_pixel_audience("aud-1", "acct-1", "px-1")
        assert registry.members("aud-1") == set()
        self._fire(pixels, "u1")
        assert registry.members("aud-1") == {"u1"}

    def test_foreign_pixel_rejected(self, registry):
        with pytest.raises(AudienceError):
            registry.create_pixel_audience("aud-1", "acct-2", "px-1")


class TestPageAudience:
    def test_membership_from_likes(self, registry, users):
        registry.create_page_audience("aud-1", "acct-1", "page-1")
        users.get("u3").liked_pages.add("page-1")
        assert registry.members("aud-1") == {"u3"}

    def test_exempt_from_min_size_gate(self, registry, users):
        """Page ("connections") targeting has no minimum — the asymmetry
        the validation exploited."""
        registry.create_page_audience("aud-1", "acct-1", "page-1")
        users.get("u3").liked_pages.add("page-1")
        registry.check_runnable("aud-1")  # must not raise


class TestRegistry:
    def test_duplicate_id_rejected(self, registry):
        registry.create_page_audience("aud-1", "acct-1", "page-1")
        with pytest.raises(AudienceError):
            registry.create_page_audience("aud-1", "acct-1", "page-2")

    def test_unknown_audience_raises(self, registry):
        with pytest.raises(AudienceError):
            registry.members("ghost")

    def test_is_member_resolver(self, registry, users):
        registry.create_page_audience("aud-1", "acct-1", "page-1")
        users.get("u5").liked_pages.add("page-1")
        assert registry.is_member("aud-1", "u5")
        assert not registry.is_member("aud-1", "u6")

    def test_estimated_reach_small_is_floored(self, registry):
        registry.create_pii_audience("aud-1", "acct-1", _pii_records(25))
        estimate = registry.estimated_reach("aud-1")
        assert estimate.is_floor  # 25 < default floor of 1000

    def test_audiences_owned_by(self, registry):
        registry.create_page_audience("aud-1", "acct-1", "p")
        registry.create_page_audience("aud-2", "acct-2", "p")
        owned = registry.audiences_owned_by("acct-1")
        assert [a.audience_id for a in owned] == ["aud-1"]


class TestColumnarBitsetCache:
    """The materialized-mask cache behind reach probes and batch sweeps:
    one bitset per audience per world state, invalidated by any
    ``mutation_epoch`` / pixel ``mutation_seq`` bump."""

    @pytest.fixture
    def columnar_world(self):
        store = ColumnarUserStore()
        for index in range(40):
            store.new_user(f"cu{index}")
            if index % 4 == 0:
                store.like_page(f"cu{index}", "page-1")
        pixels = PixelRegistry()
        pixels.issue("px-1", "acct-1")
        registry = AudienceRegistry(users=store, pixels=pixels,
                                    min_custom_audience_size=5)
        registry.create_page_audience("aud-page", "acct-1", "page-1")
        registry.create_pixel_audience("aud-px", "acct-1", "px-1")
        return store, pixels, registry

    def test_repeated_probe_reuses_the_same_bitset(self, columnar_world):
        _store, _pixels, registry = columnar_world
        first = registry.member_bitset_cached("aud-page")
        assert registry.member_bitset_cached("aud-page") is first
        # The count cache rides the same mask.
        assert registry.membership_count("aud-page") == 10
        assert registry.member_bitset_cached("aud-page") is first
        assert not registry.estimated_reach("aud-page").is_floor or True
        assert registry.member_bitset_cached("aud-page") is first

    def test_user_mutation_epoch_invalidates(self, columnar_world):
        store, _pixels, registry = columnar_world
        before = registry.member_bitset_cached("aud-page")
        assert registry.membership_count("aud-page") == 10
        store.like_page("cu1", "page-1")  # bumps mutation_epoch
        after = registry.member_bitset_cached("aud-page")
        assert after is not before
        assert registry.membership_count("aud-page") == 11
        # Stable again until the next mutation.
        assert registry.member_bitset_cached("aud-page") is after

    def test_view_set_attribute_invalidates(self):
        """The binary ``set_attribute`` write path bumps the epoch too, so
        a keyword audience's cached reach sees the new attribute."""
        from repro.platform.attributes import AttributeCatalog, make_binary

        coffee = make_binary("b-coffee", "Coffee lovers", ("Food",))
        store = ColumnarUserStore()
        for index in range(10):
            view = store.new_user(f"cu{index}")
            if index < 6:
                view.set_attribute(coffee)
        registry = AudienceRegistry(
            users=store, pixels=PixelRegistry(),
            catalog=AttributeCatalog([coffee]), reach_floor=0,
            reach_quantum=1)
        registry.create_keyword_audience("aud-kw", "acct-1", ["coffee"])
        assert registry.estimated_reach("aud-kw").displayed == 6
        before = registry.member_bitset_cached("aud-kw")
        store.get("cu8").set_attribute(coffee)
        assert registry.estimated_reach("aud-kw").displayed == 7
        assert registry.member_bitset_cached("aud-kw") is not before

    def test_unrelated_mutations_still_invalidate(self, columnar_world):
        """The key is world-level, deliberately coarse: any epoch bump
        rebuilds, never serving a stale mask."""
        store, _pixels, registry = columnar_world
        before = registry.member_bitset_cached("aud-page")
        store.new_user("cu-new")  # no page like; count unchanged
        after = registry.member_bitset_cached("aud-page")
        assert after is not before
        assert registry.membership_count("aud-page") == 10

    def test_pixel_fire_invalidates(self, columnar_world):
        from repro.platform.web import Visit

        _store, pixels, registry = columnar_world
        before = registry.member_bitset_cached("aud-px")
        assert registry.membership_count("aud-px") == 0
        fired = pixels.record_visit(Visit(
            user_id="cu3", domain="shop.example", path="/",
            cookie_id=None, pixel_ids=["px-1"], visit_seq=1))
        assert fired
        after = registry.member_bitset_cached("aud-px")
        assert after is not before
        assert registry.membership_count("aud-px") == 1

    def test_count_cache_invalidates_on_page_like(self, users, pixels):
        """The count cache keys on the same epoch — store-API
        mutations invalidate it."""
        registry = AudienceRegistry(users=users, pixels=pixels,
                                    min_custom_audience_size=5)
        registry.create_page_audience("aud-1", "acct-1", "page-1")
        users.like_page("u3", "page-1")
        assert registry.membership_count("aud-1") == 1
        users.like_page("u4", "page-1")
        assert registry.membership_count("aud-1") == 2
