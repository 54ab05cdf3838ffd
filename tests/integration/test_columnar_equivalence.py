"""End-to-end equivalence: pinned report digests and deliver-iff-match.

The 2,000-user x full partner-sweep delivery tier must produce
**byte-identical** advertiser reports on every delivery path — the
per-slot reference loop, the batch sweep, compact mode — and those reports must
equal the ones the retired object user store produced, pinned below as
SHA-256 digests of the canonical report JSON. The deliver-iff-match
invariant must hold on each path.

Byte-identity is a fair demand because everything downstream of storage
is deterministic given the match sets: user registration order fixes id
assignment and delivery order, ``KeyedCompetition``/zero competition fix
auction outcomes per (user, slot), and report serialization sorts keys.
So any byte diff in the reports means something changed *who matched
what* — which is precisely the regression this test exists to catch.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.provider import TransparencyProvider
from repro.errors import StoreError
from repro.platform.catalog import build_us_catalog
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.platform.web import WebDirectory
from repro.store.audit import canonical_json, state_report
from repro.workloads.competition import zero_competition
from tests.platform.scalar_reference import saturate


#: users -> SHA-256 of the canonical report JSON the object user store
#: produced for :func:`_sweep_world` (per-slot loop, full logs).
PINNED_REPORT_DIGESTS = {
    2000: "390a019dc66021e47ba2163b6fb0cdfc72b202feb829a32c1a26619448b0c2bd",
    300: "631a09320b112655f6df594beeb7c7a8540eb75a28781bebf38f87598730c1c7",
}


def _sweep_world(users: int = 2000, compact: bool = False,
                 sweep: bool = False):
    """The scale-tier world: ``users`` users, 10 rotating partner
    attributes each, full partner sweep launched. ``sweep`` delivers
    through the provider's campaign run (the vectorized batch sweep);
    otherwise the per-slot reference loop saturates the platform."""
    platform = AdPlatform(
        config=PlatformConfig(name="coleq", compact_delivery=compact),
        catalog=build_us_catalog(614, 507),
        competing_draw=zero_competition(),
    )
    provider = TransparencyProvider(platform, WebDirectory(), budget=5000.0)
    attrs = platform.catalog.partner_attributes()
    for i in range(users):
        user = platform.register_user()
        for k in range(10):
            user.set_attribute(attrs[(i * 10 + k) % len(attrs)])
        provider.optin.via_page_like(user.user_id)
    provider.launch_partner_sweep()
    if sweep:
        provider.run_delivery()
    else:
        saturate(platform)
    return platform, provider


def _canonical_reports(platform, account_id):
    """Every ad report for the account as one canonical JSON string."""
    reports = [dataclasses.asdict(r)
               for r in platform.reports(account_id)]
    reports.sort(key=lambda r: r["ad_id"])
    return json.dumps(reports, sort_keys=True)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestScaleSweepEquivalence:
    @pytest.mark.parametrize("users", [2000, 300])
    def test_pinned_digests(self, users):
        platform, provider = _sweep_world(users=users)
        assert provider.total_impressions() == users * 11

        reports = _canonical_reports(platform, provider.account.account_id)
        assert json.loads(reports), "reports must be non-empty"
        assert _digest(reports) == PINNED_REPORT_DIGESTS[users]

        invoice = platform.invoice(provider.account.account_id)
        assert invoice.total == 0.0
        assert invoice.impressions == users * 11

    @pytest.mark.parametrize("compact", [False, True])
    def test_reports_byte_identical_scalar_vs_batch_sweep(self, compact):
        """The batch-sweep acceptance bar: the vectorized engine must
        reproduce the per-slot loop's 2,000-user reports byte for byte."""
        scalar_platform, scalar_provider = _sweep_world(compact=compact)
        batch_platform, batch_provider = _sweep_world(compact=compact,
                                                      sweep=True)

        assert batch_provider.total_impressions() == 2000 * 11

        scalar_json = _canonical_reports(
            scalar_platform, scalar_provider.account.account_id)
        batch_json = _canonical_reports(
            batch_platform, batch_provider.account.account_id)
        assert scalar_json == batch_json
        assert _digest(batch_json) == PINNED_REPORT_DIGESTS[2000]

        scalar_invoice = scalar_platform.invoice(
            scalar_provider.account.account_id)
        batch_invoice = batch_platform.invoice(
            batch_provider.account.account_id)
        assert scalar_invoice.total == batch_invoice.total
        assert scalar_invoice.impressions == batch_invoice.impressions


class TestDeliverIffMatch:
    """The paper's core premise, pinned on each storage/delivery mode."""

    @pytest.mark.parametrize("sweep", [False, True])
    def test_each_user_gets_exactly_their_treads(self, sweep):
        platform, provider = _sweep_world(users=300, sweep=sweep)
        attrs = platform.catalog.partner_attributes()
        # ad_id -> the attribute its Tread reveals (None for control).
        ad_attr = {tread.ad_id: tread.payload.attr_id
                   for tread in provider.treads if tread.launched}
        user_ids = platform.users.user_ids()
        for i in range(300):
            expected = {attrs[(i * 10 + k) % len(attrs)].attr_id
                        for k in range(10)}
            feed = platform.feed(user_ids[i])
            # 10 attribute Treads + the control ad, nothing else.
            assert len(feed) == 11
            received = {ad_attr[ad.ad_id] for ad in feed}
            assert received - {None} == expected

    def test_compact_mode_counts_match_full_mode(self):
        full_platform, full_provider = _sweep_world(users=300)
        compact_platform, compact_provider = _sweep_world(
            users=300, compact=True)

        assert compact_provider.total_impressions() == \
            full_provider.total_impressions() == 300 * 11
        assert compact_provider.total_spend() == \
            full_provider.total_spend()

        full_engine = full_platform.delivery
        compact_engine = compact_platform.delivery
        for ad in full_platform.inventory.ads_owned_by(
                full_provider.account.account_id):
            assert compact_engine.reach_count(ad.ad_id) == \
                full_engine.reach_count(ad.ad_id)
            assert compact_engine.unique_reach(ad.ad_id) == \
                full_engine.unique_reach(ad.ad_id)

        with pytest.raises(StoreError, match="compact delivery"):
            compact_engine.impressions()

    def test_compact_state_report_equals_full_mode(self):
        """The state report reads counters and ledger aggregates only,
        so a compact sweep world reports exactly what the full-logs
        world does."""
        full_platform, _ = _sweep_world(users=300, sweep=True)
        compact_platform, _ = _sweep_world(users=300, compact=True,
                                           sweep=True)
        full = canonical_json(state_report(full_platform))
        assert json.loads(full)["totals"]["impressions"] == 300 * 11
        assert canonical_json(state_report(compact_platform)) == full

    def test_second_saturation_delivers_nothing(self):
        """Frequency caps hold in compact mode: saturation is stable."""
        platform, provider = _sweep_world(users=100, compact=True)
        before = provider.total_impressions()
        provider.run_delivery()
        assert provider.total_impressions() == before
