"""Property suite: the columnar store against a plain-record reference.

Hypothesis drives identical random operation sequences into a
``ColumnarUserStore`` of packed numpy columns and a reference model —
plain ``UserProfile`` records answered by scans — then asserts every
observable the platform layers read answers identically: per-user
attribute probes and set algebra, store-level inverted queries, PII
matching, and audience membership of every kind (the reference
computes each kind's membership rule directly from the records).

The property classes simply don't exist when hypothesis is absent
(some CI environments install only the runtime deps); the deterministic
``TestDeterministicEquivalence`` runs everywhere so plain ``pytest``
still exercises the same observables.
"""

from repro.hashing import hash_pii
from repro.platform.attributes import (
    AttributeCatalog,
    make_binary,
    make_multi,
)
from repro.platform.audiences import AudienceRegistry, round_reach
from repro.platform.colstore import ColumnarUserStore
from repro.platform.pii import record_from_raw
from repro.platform.pixels import PixelRegistry
from repro.platform.users import UserProfile

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI without hypothesis
    HAVE_HYPOTHESIS = False

USER_IDS = tuple(f"u-{index:03d}" for index in range(6))
BIN_NAMES = ("Salsa", "Jazz", "Soccer", "Chess", "Gardening")
BINS = tuple(make_binary(f"b{i}", name, ("Interest",))
             for i, name in enumerate(BIN_NAMES))
MULTIS = (
    make_multi("m0", "Tier", ("Demo",), values=("low", "mid", "high")),
    make_multi("m1", "Band", ("Demo",), values=("x", "y")),
)
PAGES = ("p0", "p1")
PII_VALUES = ("a@x.com", "b@x.com", "c@x.com")
ALL_ATTR_IDS = tuple(a.attr_id for a in BINS + MULTIS)
PROBE_IDS = tuple(a.attr_id for a in BINS) + PAGES


class _Reference:
    """Plain ``UserProfile`` records plus scan-based queries: the
    reference semantics the columnar store must reproduce."""

    def __init__(self):
        self.profiles = {}

    def add(self, profile):
        self.profiles[profile.user_id] = profile
        return profile

    def get(self, user_id):
        return self.profiles[user_id]

    def like_page(self, user_id, page_id):
        self.profiles[user_id].liked_pages.add(page_id)

    def attach_pii(self, user_id, kind, raw_value):
        self.profiles[user_id].pii_hashes.setdefault(kind, set()).add(
            hash_pii(kind, raw_value))

    def user_ids(self):
        return list(self.profiles)

    def users_with_attribute(self, attr_id):
        return [profile for _, profile in sorted(self.profiles.items())
                if profile.has_attribute(attr_id)]

    def users_matching_pii(self, kind, digest):
        return {user_id for user_id, profile in self.profiles.items()
                if profile.has_pii_hash(kind, digest)}


def _op_strategy():
    user = st.sampled_from(USER_IDS)
    return st.lists(
        st.one_of(
            st.tuples(st.just("set_bin"), user, st.sampled_from(BINS)),
            st.tuples(st.just("clear"), user,
                      st.sampled_from(ALL_ATTR_IDS)),
            st.tuples(st.just("set_multi"), user, st.sampled_from(MULTIS),
                      st.sampled_from(("low", "mid", "high", "x", "y"))),
            st.tuples(st.just("like"), user, st.sampled_from(PAGES)),
            st.tuples(st.just("unlike"), user, st.sampled_from(PAGES)),
            st.tuples(st.just("pii"), user, st.sampled_from(PII_VALUES)),
            st.tuples(st.just("compare"), user,
                      st.sets(st.sampled_from(PROBE_IDS))),
        ),
        max_size=40,
    )




def _set_algebra(view, probe):
    """Every comparison and operator a caller may apply to a set-like
    profile field, with the view on either side of a plain set."""
    return (
        view == probe, probe == view, view != probe, probe != view,
        view <= probe, view < probe, view >= probe, view > probe,
        probe <= view, probe < view, probe >= view, probe > view,
        view & probe, probe & view, view | probe, probe | view,
        view - probe, probe - view, view ^ probe, probe ^ view,
        view.isdisjoint(probe), bool(view), len(view), sorted(view),
    )


def _assert_set_algebra_equal(reference, columnar, user_id, probe):
    profile, view = reference.get(user_id), columnar.get(user_id)
    assert _set_algebra(profile.binary_attrs, probe) == \
        _set_algebra(view.binary_attrs, probe), (user_id, probe)
    assert _set_algebra(profile.liked_pages, probe) == \
        _set_algebra(view.liked_pages, probe), (user_id, probe)


def _build_stores(ops):
    """Apply one op sequence to both models; returns (reference,
    columnar).

    ``compare`` ops mutate nothing: they check the two models' set
    fields answer the same set algebra at that point in the sequence."""
    reference = _Reference()
    columnar = ColumnarUserStore()
    for index, user_id in enumerate(USER_IDS):
        reference.add(UserProfile(user_id=user_id, age=20 + index,
                               gender="female" if index % 2 else "male",
                               zip_code=f"{10001 + index:05d}"))
        columnar.new_user(user_id, age=20 + index,
                          gender="female" if index % 2 else "male",
                          zip_code=f"{10001 + index:05d}")
    for op in ops:
        if op[0] == "compare":
            _assert_set_algebra_equal(reference, columnar, op[1],
                                      set(op[2]))
            continue
        # Records have no mutators: the reference writes their fields,
        # the columnar side writes through its row view.
        profile, view = reference.get(op[1]), columnar.get(op[1])
        if op[0] == "set_bin":
            profile.binary_attrs.add(op[2].attr_id)
            view.set_attribute(op[2])
        elif op[0] == "clear":
            profile.binary_attrs.discard(op[2])
            profile.multi_attrs.pop(op[2], None)
            view.clear_attribute(op[2])
        elif op[0] == "set_multi":
            attribute, value = op[2], op[3]
            if value in attribute.values:
                profile.multi_attrs[attribute.attr_id] = value
                view.set_attribute(attribute, value)
        else:
            for store in (reference, columnar):
                if op[0] == "like":
                    store.like_page(op[1], op[2])
                elif op[0] == "unlike":
                    store.get(op[1]).liked_pages.discard(op[2])
                elif op[0] == "pii":
                    store.attach_pii(op[1], "email", op[2])
    return reference, columnar


def _assert_observationally_equal(reference, columnar):
    assert reference.user_ids() == columnar.user_ids()
    for user_id in USER_IDS:
        profile = reference.get(user_id)
        view = columnar.get(user_id)
        assert sorted(profile.attribute_ids()) == sorted(view.attribute_ids())
        for attr_id in ALL_ATTR_IDS:
            assert profile.has_attribute(attr_id) == \
                view.has_attribute(attr_id), (user_id, attr_id)
            assert profile.attribute_value(attr_id) == \
                view.attribute_value(attr_id), (user_id, attr_id)
        assert set(profile.liked_pages) == set(view.liked_pages)
        assert (profile.age, profile.gender, profile.zip_code) == \
            (view.age, view.gender, view.zip_code)
    for attr_id in ALL_ATTR_IDS:
        assert [p.user_id for p in reference.users_with_attribute(attr_id)] \
            == [v.user_id for v in columnar.users_with_attribute(attr_id)]
    for value in PII_VALUES:
        digest = hash_pii("email", value)
        assert reference.users_matching_pii("email", digest) == \
            columnar.users_matching_pii("email", digest)


def _catalog():
    return AttributeCatalog(attributes=list(BINS + MULTIS))


def _membership_table(members, is_member):
    out = {}
    for audience_id in ("aud-page", "aud-kw", "aud-pii", "aud-look"):
        out[audience_id] = sorted(members(audience_id))
        for user_id in USER_IDS:
            out[audience_id, user_id] = is_member(audience_id, user_id)
    return out


def _reference_memberships(reference):
    """Each audience kind's membership rule, applied to the records."""
    profiles = reference.profiles
    keyword_attrs = {attribute.attr_id
                     for phrase in (BIN_NAMES[0], BIN_NAMES[1])
                     for attribute in _catalog().search(phrase)}
    digests = {hash_pii("email", value) for value in PII_VALUES}
    pii = {user_id for user_id, profile in profiles.items()
           if any(profile.has_pii_hash("email", d) for d in digests)}
    members = {
        "aud-page": {user_id for user_id, profile in profiles.items()
                     if PAGES[0] in profile.liked_pages},
        "aud-kw": {user_id for user_id, profile in profiles.items()
                   if any(profile.has_attribute(a) for a in keyword_attrs)},
        "aud-pii": pii,
        # Seed members plus anyone sharing >= 2 binary attributes with one.
        "aud-look": pii | {
            user_id for user_id, profile in profiles.items()
            if any(len(profile.binary_attrs & profiles[seed].binary_attrs)
                   >= 2 for seed in pii)},
    }
    out = _membership_table(
        members.__getitem__,
        lambda audience_id, user_id: user_id in members[audience_id])
    for audience_id, ids in members.items():
        out[audience_id, "reach"] = str(round_reach(len(ids)))
    return out


def _audience_memberships(store):
    """Members of one audience of each kind, built over ``store``."""
    catalog = _catalog()
    registry = AudienceRegistry(
        users=store, pixels=PixelRegistry(), catalog=catalog,
        min_custom_audience_size=1)
    registry.create_page_audience("aud-page", "acct", PAGES[0])
    registry.create_keyword_audience("aud-kw", "acct",
                                     [BIN_NAMES[0], BIN_NAMES[1]])
    registry.create_pii_audience(
        "aud-pii", "acct",
        [record_from_raw("email", v) for v in PII_VALUES])
    registry.create_lookalike_audience("aud-look", "acct", "aud-pii",
                                       similarity_threshold=2)
    out = _membership_table(registry.members, registry.is_member)
    for audience_id in ("aud-page", "aud-kw", "aud-pii", "aud-look"):
        out[audience_id, "reach"] = str(
            registry.estimated_reach(audience_id))
    return out


if HAVE_HYPOTHESIS:
    class TestPropertyEquivalence:
        @settings(max_examples=80, deadline=None)
        @given(ops=_op_strategy())
        def test_random_ops_observationally_equal(self, ops):
            reference, columnar = _build_stores(ops)
            _assert_observationally_equal(reference, columnar)

        @settings(max_examples=40, deadline=None)
        @given(ops=_op_strategy())
        def test_audience_membership_equal(self, ops):
            reference, columnar = _build_stores(ops)
            assert _reference_memberships(reference) == \
                _audience_memberships(columnar)


class TestDeterministicEquivalence:
    """No-hypothesis fallback pinning the same seam on a fixed script."""

    OPS = [
        ("set_bin", "u-000", BINS[0]),
        ("set_bin", "u-000", BINS[1]),
        ("set_bin", "u-001", BINS[0]),
        ("set_multi", "u-002", MULTIS[0], "mid"),
        ("set_multi", "u-002", MULTIS[0], "high"),  # overwrite
        ("like", "u-003", PAGES[0]),
        ("like", "u-000", PAGES[0]),
        ("unlike", "u-003", PAGES[0]),
        ("pii", "u-004", PII_VALUES[0]),
        ("pii", "u-005", PII_VALUES[0]),  # shared digest, two users
        ("clear", "u-000", "b1"),
        ("clear", "u-002", "m0"),
        ("compare", "u-000", {"b0", "p0"}),
        ("compare", "u-000", {"b0", "b2", "p0", "p1"}),
        ("compare", "u-001", set()),
    ]

    def test_fixed_script(self):
        reference, columnar = _build_stores(self.OPS)
        _assert_observationally_equal(reference, columnar)
        assert _reference_memberships(reference) == \
            _audience_memberships(columnar)
