"""E8 — deployment cost vs correlation-based auditing (section 5).

Paper: prior outside-in systems (XRay, Sunlight, AdReveal) "can also be
challenging to deploy, requiring either a large diverse population to
sign-up ... or a large number of (fake) control accounts ... to make
statistically significant claims. Our approach is complementary ... and
potentially simpler to deploy". Measured: the correlation auditor's
inference accuracy for 30 single-attribute mystery ads as the number of
control accounts grows, against Treads' exact reveal with ONE advertiser
account and zero fake accounts.
"""

from benchmarks.conftest import make_platform, record_table
from repro.analysis.tables import format_table
from repro.baselines.correlation import CorrelationAuditor
from repro.core.client import TreadClient
from repro.core.provider import TransparencyProvider
from repro.platform.ads import AdCreative
from repro.platform.web import WebDirectory

CONTROL_COUNTS = (1, 3, 10, 30, 100)
HYPOTHESIS_POOL_SIZE = 30


def run_correlation_curve():
    rows = []
    for control_count in CONTROL_COUNTS:
        platform = make_platform(name=f"e8c{control_count}",
                                 partner_count=25)
        pool = [a for a in platform.catalog.platform_attributes()
                if a.is_binary][:HYPOTHESIS_POOL_SIZE]
        auditor = CorrelationAuditor(platform, seed=41)
        auditor.create_controls(control_count, pool, set_probability=0.5)
        account = platform.create_ad_account("mystery", budget=500.0)
        campaign = platform.create_campaign(account.account_id, "m")
        truth = {}
        for attr in pool:
            ad = platform.submit_ad(
                account.account_id, campaign.campaign_id,
                AdCreative("h", f"promo {attr.attr_id}"),
                f"attr:{attr.attr_id} & country:US", bid_cap_cpm=10.0,
            )
            truth[ad.ad_id] = attr.attr_id
        platform.run_sweep()
        rows.append((
            control_count,
            auditor.accuracy(truth, pool),
            auditor.significant_inferences(truth, pool, alpha=0.05),
        ))
    return rows


def run_treads_reference():
    """Treads on the same task shape: 1 provider account, exact reveals."""
    platform = make_platform(name="e8t", partner_count=25)
    web = WebDirectory()
    pool = [a for a in platform.catalog.platform_attributes()
            if a.is_binary][:HYPOTHESIS_POOL_SIZE]
    provider = TransparencyProvider(platform, web, budget=200.0)
    users = []
    for index in range(20):
        user = platform.register_user()
        for attr in pool[index % 3::3]:
            user.set_attribute(attr)
        provider.optin.via_page_like(user.user_id)
        users.append(user)
    provider.launch_attribute_sweep(pool)
    provider.run_delivery()
    pack = provider.publish_decode_pack()
    exact = all(
        TreadClient(u.user_id, platform, pack).sync().set_attributes
        == {a.attr_id for a in pool if u.has_attribute(a.attr_id)}
        for u in users
    )
    return exact


def test_e8_baselines(benchmark):
    curve = benchmark.pedantic(run_correlation_curve, rounds=1,
                               iterations=1)
    treads_exact = run_treads_reference()
    rows = [
        (f"correlation, {k} control accounts", "noisy below significance",
         f"{accuracy:.0%} of 30 ads", f"{significant}/30")
        for k, accuracy, significant in curve
    ]
    rows.append(("Treads, 1 advertiser account, 0 fakes",
                 "exact by construction",
                 "100% exact" if treads_exact else "NOT exact",
                 "(not statistical)"))
    record_table(format_table(
        ("mechanism / deployment cost", "paper (sec 5)", "correct",
         "significant at a=0.05"),
        rows,
        title="E8  Inference accuracy vs deployment cost: correlation "
              "auditing vs Treads",
    ))
    accuracies = {k: accuracy for k, accuracy, _ in curve}
    significants = {k: significant for k, _, significant in curve}
    # the Sunlight point: with 1-3 fakes NOTHING reaches significance
    assert significants[1] == 0
    assert significants[3] == 0
    assert significants[100] >= 25
    assert accuracies[1] < 0.75           # ambiguous at 1 account
    assert accuracies[100] >= accuracies[1]
    assert accuracies[100] >= 0.9         # converges with many accounts
    assert treads_exact
