"""Property test: export_state / import_state round-trips exactly.

For *any* randomly generated delivery state (impressions over real ads
and users, clicks), importing it into a fresh engine and exporting
again is a fixed point: the second cycle's bytes equal the first's,
impression for impression, and the cap state the impressions imply
comes back with them. This is the
contract shard migration and crash recovery lean on — an export is a
complete, canonical description of delivery state, not an approximation
of one.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.provider import TransparencyProvider
from repro.errors import StoreError
from repro.platform.billing import BillingLedger
from repro.platform.catalog import build_us_catalog
from repro.platform.delivery import DeliveryEngine
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.platform.web import WebDirectory
from repro.workloads.competition import zero_competition
from repro.workloads.personas import (
    AVERAGE_CONSUMER,
    ESTABLISHED_PROFESSIONAL,
)
from repro.workloads.population import PopulationBuilder


@pytest.fixture(scope="module")
def world():
    """One shared world: the engines under test only need its inventory
    and audience registry, which the imports never mutate."""
    platform = AdPlatform(
        config=PlatformConfig(name="roundtrip"),
        catalog=build_us_catalog(platform_count=30, partner_count=20),
        competing_draw=zero_competition(),
    )
    web = WebDirectory()
    builder = PopulationBuilder(platform, seed=5)
    builder.spawn_mix([ESTABLISHED_PROFESSIONAL, AVERAGE_CONSUMER], 10)
    builder.finalize()
    provider = TransparencyProvider(platform, web, budget=500.0,
                                    bid_cap_cpm=10.0)
    for user_id in platform.users.user_ids():
        provider.optin.via_page_like(user_id)
    provider.launch_partner_sweep()
    return platform


def _fresh_engine(platform):
    return DeliveryEngine(
        platform.inventory,
        platform.audiences,
        BillingLedger(platform.inventory),
        zero_competition(),
        platform.users,
    )


def _canonical(state):
    return json.dumps(state, sort_keys=True)


def _state_from(platform, picks, clicks):
    """Assemble an export-shaped state dict from strategy draws."""
    ads = platform.inventory.ads()
    users = platform.users.user_ids()
    impressions = [
        {
            "kind": "impression",
            "seq": seq,
            "ad_id": ads[ad_pick % len(ads)].ad_id,
            "account_id": ads[ad_pick % len(ads)].account_id,
            "user_id": users[user_pick % len(users)],
            "price": price,
        }
        for seq, (ad_pick, user_pick, price) in enumerate(picks)
    ]
    click_rows = [
        {
            "kind": "click",
            "ad_id": impressions[pick % len(impressions)]["ad_id"],
            "user_id": impressions[pick % len(impressions)]["user_id"],
            "click_seq": click_seq,
        }
        for click_seq, pick in enumerate(clicks)
    ] if impressions else []
    return {"impressions": impressions, "clicks": click_rows}


_PICK = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # ad pick
    st.integers(min_value=0, max_value=10_000),  # user pick
    st.floats(min_value=0.0, max_value=0.02, allow_nan=False),
)


class TestRandomStateRoundTrip:
    @given(
        picks=st.lists(_PICK, max_size=30),
        clicks=st.lists(st.integers(min_value=0, max_value=10_000),
                        max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_two_cycles_are_byte_identical(self, world, picks, clicks):
        state = _state_from(world, picks, clicks)

        first = _fresh_engine(world)
        first.import_state(state)
        cycle_one = first.export_state()

        second = _fresh_engine(world)
        second.import_state(cycle_one)
        cycle_two = second.export_state()

        assert _canonical(cycle_one) == _canonical(cycle_two)
        # and the import actually took: counts, not just bytes
        assert len(second.impressions()) == len(state["impressions"])
        assert len(second.clicks()) == len(state["clicks"])

    @given(
        picks=st.lists(_PICK, min_size=1, max_size=15),
    )
    @settings(max_examples=25, deadline=None)
    def test_import_preserves_every_impression_field(self, world, picks):
        state = _state_from(world, picks, [])
        engine = _fresh_engine(world)
        engine.import_state(state)
        exported = engine.export_state()["impressions"]
        assert exported == state["impressions"]

    @given(picks=st.lists(_PICK, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_cap_state_survives_the_round_trip(self, world, picks):
        # Caps travel implicitly: each imported impression sets its
        # user's bit in the ad's shown bitset, so the second engine
        # rebuilds the same caps, reach and counts.
        state = _state_from(world, picks, [])
        first = _fresh_engine(world)
        first.import_state(state)
        second = _fresh_engine(world)
        second.import_state(first.export_state())
        for ad in world.inventory.ads():
            pairs = {row["user_id"] for row in state["impressions"]
                     if row["ad_id"] == ad.ad_id}
            for engine in (first, second):
                assert engine.unique_reach(ad.ad_id) == pairs
                assert engine.reach_count(ad.ad_id) == len(pairs)
        assert first.impression_count() == second.impression_count() \
            == len(picks)


class TestUnknownUser:
    def test_import_of_an_unknown_user_is_refused(self, world):
        # The shown bitsets are keyed by user row, so an impression
        # whose user the store does not know cannot be folded.
        state = _state_from(world, [(0, 0, 0.001)], [])
        state["impressions"][0]["user_id"] = "no-such-user"
        with pytest.raises(StoreError, match="unknown user"):
            _fresh_engine(world).import_state(state)

    def test_refused_import_journals_and_folds_nothing(self, world):
        # The whole import is checked before any record is appended, so
        # a refusal of the second impression leaves the first out of
        # the journal and out of the engine too.
        engine = _fresh_engine(world)
        engine.import_state(_state_from(world, [(2, 2, 0.003)], []))
        records = engine.store.record_count
        impressions = engine.impression_count()
        state = _state_from(world, [(0, 0, 0.001), (1, 1, 0.002)], [])
        state["impressions"][1]["user_id"] = "no-such-user"
        with pytest.raises(StoreError, match="unknown user"):
            engine.import_state(state)
        assert engine.store.record_count == records
        assert engine.impression_count() == impressions


class TestRetiredCapSection:
    def test_nonempty_extra_caps_is_refused(self, world):
        # Dumps once carried an ``extra_caps`` list that no engine ever
        # filled: an empty one (every snapshot written so far) still
        # loads, a non-empty one is foreign input and is refused.
        state = _state_from(world, [(0, 0, 0.001)], [])
        state["extra_caps"] = []
        engine = _fresh_engine(world)
        engine.state_load(state)
        assert len(engine.impressions()) == 1

        state["extra_caps"] = [[state["impressions"][0]["ad_id"],
                                state["impressions"][0]["user_id"], 1]]
        with pytest.raises(StoreError, match="extra_caps"):
            _fresh_engine(world).import_state(state)
        with pytest.raises(StoreError, match="extra_caps"):
            _fresh_engine(world).state_load(state)


class TestServedScenarioRoundTrip:
    """The same fixed point over *served* (not synthetic) state."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_served_state_round_trips(self, world, seed):
        platform = world
        engine = _fresh_engine(platform)
        users = list(platform.users)
        # deterministic mini-run shaped by the seed
        for user in users[seed % 3:]:
            for _ in range(1 + seed % 2):
                engine.serve_slot(user)
        exported = engine.export_state()

        rebuilt = _fresh_engine(platform)
        rebuilt.import_state(exported)
        assert _canonical(rebuilt.export_state()) == _canonical(exported)
        again = _fresh_engine(platform)
        again.import_state(rebuilt.export_state())
        assert _canonical(again.export_state()) == _canonical(exported)
