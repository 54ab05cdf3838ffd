"""Randomized lowered-program-vs-interpreted equivalence for targeting specs.

Every delivery path evaluates each candidate ad's spec through its
lowered program's packed range pass (:func:`evaluate_packed`) — the
sweep directly, each slot through the per-row candidate lists built from
it — so the *entire* deliver-iff-match contract rests on the equivalence
``test_bit(evaluate_packed(...)[i], row) == expr.matches(view)``. This
suite generates ~200 random specs (round-tripped through the compact
syntax parser, exactly as ads submit them), evaluates both forms on the
rows of a columnar store — including audience predicates, NOT/exclusion
trees, and codes the store interns only after the candidate lists were
built — and requires bit-for-bit agreement. It also checks that a spec the lowerer
refuses is delivered by ``Expr.matches``.
"""

import random

import pytest

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.platform import bitset
from repro.platform.ads import AdCreative
from repro.platform.attributes import (
    AttributeCatalog,
    make_binary,
    make_multi,
)
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
    parse,
)
from repro.workloads.competition import zero_competition

BINARY_ATTRS = [f"pc-test-{i:03d}" for i in range(8)]
MULTI_ATTRS = {f"pf-multi-{i}": [f"val{j}" for j in range(4)] for i in range(3)}
AUDIENCES = [f"aud-{i}" for i in range(4)]
PAGES = [f"page-{i}" for i in range(4)]
COUNTRIES = ["US", "DE", "BR"]
GENDERS = ["male", "female", "unknown"]
ZIPS = ["02115", "94107", "60601", "10001"]


def _resolver(audience_id: str, user_id: str) -> bool:
    """Deterministic fake audience membership (stable across processes)."""
    return (sum(map(ord, audience_id)) + sum(map(ord, user_id))) % 3 == 0


def _random_atom(rng: random.Random, audiences: bool = True):
    kind = rng.randrange(9 if audiences else 8)
    if not audiences and kind >= 6:
        kind += 1
    if kind == 0:
        return HasAttr(rng.choice(BINARY_ATTRS + list(MULTI_ATTRS)))
    if kind == 1:
        attr_id = rng.choice(list(MULTI_ATTRS))
        return AttrIs(attr_id, rng.choice(MULTI_ATTRS[attr_id]))
    if kind == 2:
        low = rng.randint(13, 60)
        return AgeBetween(low, rng.randint(low, 70))
    if kind == 3:
        return GenderIs(rng.choice(GENDERS))
    if kind == 4:
        return InCountry(rng.choice(COUNTRIES))
    if kind == 5:
        return InZip(frozenset(rng.sample(ZIPS, rng.randint(1, 3))))
    if kind == 6:
        return InAudience(rng.choice(AUDIENCES))
    if kind == 7:
        return LikesPage(rng.choice(PAGES))
    return All()


def _random_expr(rng: random.Random, depth: int, audiences: bool = True):
    if depth <= 0 or rng.random() < 0.35:
        atom = _random_atom(rng, audiences)
        # Exercise NOT at the leaves too — the paper's exclusion Treads.
        if rng.random() < 0.25:
            return Not(atom)
        return atom
    roll = rng.random()
    if roll < 0.15:
        return Not(_random_expr(rng, depth - 1, audiences))
    operands = tuple(
        _random_expr(rng, depth - 1, audiences)
        for _ in range(rng.randint(2, 3))
    )
    return And(operands) if roll < 0.60 else Or(operands)


def _random_store(rng: random.Random, users: int = 25, store=None):
    """A columnar store of random rows, plus the audience bitsets that
    mirror :func:`_resolver`. Some attributes and pages are never set,
    so specs also probe codes the store has never interned."""
    store = ColumnarUserStore() if store is None else store
    for i in range(users):
        view = store.new_user(
            f"user-{i}",
            country=rng.choice(COUNTRIES),
            age=rng.randint(13, 70),
            gender=rng.choice(GENDERS[:2]),
            zip_code=rng.choice(ZIPS[:3]),
        )
        for attr_id in rng.sample(BINARY_ATTRS[:6], rng.randint(0, 6)):
            view.binary_attrs.add(attr_id)
        for attr_id, values in list(MULTI_ATTRS.items())[:2]:
            if rng.random() < 0.5:
                view.multi_attrs[attr_id] = rng.choice(values[:3])
        for page_id in rng.sample(PAGES[:3], rng.randint(0, 3)):
            store.like_page(view.user_id, page_id)
    bits = {
        audience_id: bitset.from_indices(
            [row for row in range(len(store))
             if _resolver(audience_id, store.id_of(row))], len(store))
        for audience_id in AUDIENCES
    }
    return store, bits


@pytest.fixture(scope="module")
def world():
    return _random_store(random.Random(99))


class TestCompiledEquivalence:
    def test_randomized_specs_agree_with_interpreter(self, world):
        store, bits = world
        rng = random.Random(7)
        for case in range(200):
            spec = TargetingSpec(expr=_random_expr(rng, depth=3))
            # Round-trip through the parser: the program must match
            # what an ad submitted as text would evaluate.
            reparsed = parse(spec.to_string())
            assert reparsed.to_string() == spec.to_string()
            program = lower_spec(reparsed)
            assert program is not None
            # Byte-aligned sub-ranges, as the list blocks slice the store.
            split = 8 * rng.randint(0, len(store) // 8)
            head, = evaluate_packed([program], store.columns, 0, split,
                                    bits.__getitem__)
            tail, = evaluate_packed([program], store.columns, split,
                                    len(store), bits.__getitem__)
            matched = set(bitset.to_indices(head).tolist())
            matched |= {split + row for row in bitset.to_indices(tail)}
            for view in store:
                interpreted = reparsed.matches(view, _resolver)
                assert (view.row in matched) == interpreted, (
                    f"case {case}: lowered program disagrees with "
                    f"interpreter on {spec.to_string()} for {view.user_id}"
                )

    def test_codes_interned_after_binding(self):
        """The per-slot candidate lists never hold stale matches:
        interning a new attribute, page, or multi column between two
        reads rebuilds them — each kind on its own, so no other
        vocabulary change can mask a miss."""
        late_attr, late_page = BINARY_ATTRS[7], PAGES[3]
        late_multi = list(MULTI_ATTRS)[2]
        late_value = MULTI_ATTRS[late_multi][3]
        writes = (
            lambda store, view: view.binary_attrs.add(late_attr),
            lambda store, view: store.like_page(view.user_id, late_page),
            lambda store, view: view.multi_attrs.__setitem__(
                late_multi, late_value),
        )
        catalog = AttributeCatalog(
            [make_binary(a, a, ("test",)) for a in BINARY_ATTRS]
            + [make_multi(a, a, ("test",), values)
               for a, values in MULTI_ATTRS.items()])
        rng = random.Random(5)
        for case in range(20):
            platform = AdPlatform(config=PlatformConfig(name="late"),
                                  catalog=catalog,
                                  competing_draw=zero_competition())
            store, _bits = _random_store(rng, users=12,
                                         store=platform.users)
            account = platform.create_ad_account("adv", budget=10.0)
            campaign = platform.create_campaign(account.account_id, "c")
            ads = [
                platform.submit_ad(
                    account.account_id, campaign.campaign_id,
                    AdCreative("h", "b"),
                    TargetingSpec(expr=_random_expr(
                        rng, depth=2, audiences=False) & Or((
                            HasAttr(late_attr), LikesPage(late_page),
                            HasAttr(late_multi)))),
                    bid_cap_cpm=rng.choice([2.0, 5.0, 10.0]))
                for _ in range(4)]
            engine = platform.delivery

            def listed(view):
                indices = engine._row_candidates(view.row)
                assert indices == sorted(indices)  # priority order
                entries = engine._sweep_candidates()
                return {entries[i][0].ad_id for i in indices}

            for view in store:
                assert listed(view) == set()
            for phase, write in enumerate(writes):
                for view in store:
                    if (view.row + case) % len(writes) == phase:
                        write(store, view)
                for view in store:
                    assert listed(view) == {
                        ad.ad_id for ad in ads
                        if ad.targeting.matches(view)
                    }, (case, phase, view.user_id)


class OpaqueEvenAge(All):
    """An Expr subclass the lowerer must refuse: ``matches`` is not the
    base class's."""

    def matches(self, user, resolver=None):
        return user.age % 2 == 0


class TestCompilerMechanics:
    def test_cache_returns_same_object_for_same_spec(self):
        a = lower_spec("attr:pc-test-000 & country:US")
        b = lower_spec(parse("attr:pc-test-000 & country:US"))
        assert a is b

    def test_lower_spec_accepts_any_spec_form(self):
        spec = parse("page:page-1 | audience:aud-2")
        program = lower_spec(spec)
        assert lower_spec(spec.expr) is program
        assert lower_spec(spec.to_string()) is program

    def test_audience_predicate_uses_resolver(self, world):
        store, bits = world
        calls = []

        def resolver(audience_id):
            calls.append(audience_id)
            return bits[audience_id]

        program = lower_spec("audience:aud-0")
        row = store.row_of("user-3")
        expected = _resolver("aud-0", "user-3")
        words, = evaluate_packed([program], store.columns, 0, len(store),
                                 resolver)
        assert bitset.test_bit(words, row) == expected
        assert calls == ["aud-0"]

    @staticmethod
    def _opaque_world():
        platform = AdPlatform(
            config=PlatformConfig(name="opaque"),
            catalog=build_us_catalog(40, 25),
            competing_draw=zero_competition(),
        )
        users = [platform.register_user(age=20 + i) for i in range(6)]
        account = platform.create_ad_account("adv", budget=10.0)
        campaign = platform.create_campaign(account.account_id, "c")
        ad = platform.submit_ad(
            account.account_id, campaign.campaign_id,
            AdCreative("h", "b"), TargetingSpec(expr=OpaqueEvenAge()),
            bid_cap_cpm=10.0)
        return platform, users, ad

    def test_unlowerable_subclass_spec_delivers_by_matches(self):
        # Both delivery paths: the campaign sweep, and per-slot serving
        # through the candidate lists.
        for per_slot in (False, True):
            with use_registry(MetricsRegistry("compiletest")) as reg:
                platform, users, ad = self._opaque_world()
                assert lower_spec(ad.targeting) is None
                if per_slot:
                    platform.run_delivery(slots_per_user=2)
                else:
                    platform.run_sweep()
                if not per_slot:  # lower_spec caches the refusal
                    assert reg.counter(
                        "targeting.lower_fallbacks").value >= 1
                assert reg.counter(
                    "delivery.sweep_fallback_specs").value >= 1
            for user in users:
                delivered = [d.ad_id for d in platform.feed(user.user_id)]
                assert delivered == (
                    [ad.ad_id] if user.age % 2 == 0 else []), per_slot
