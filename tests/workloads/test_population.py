"""Tests for population generation and the broker pipeline."""

import hashlib
import json

import pytest

from repro.hashing import hash_pii
from repro.platform.attributes import Attribute, AttributeSource
from repro.platform.catalog import build_us_catalog
from repro.platform.platform import AdPlatform, PlatformConfig

from repro.workloads.personas import (
    AVERAGE_CONSUMER,
    ESTABLISHED_PROFESSIONAL,
    RECENT_ARRIVAL_GRAD_STUDENT,
)
from repro.workloads.population import (
    PopulationBuilder,
    ground_truth_partner_attrs,
)


class TestSpawn:
    def test_demographics_within_persona_ranges(self, platform):
        builder = PopulationBuilder(platform, seed=1)
        users = builder.spawn(ESTABLISHED_PROFESSIONAL, 10)
        for user in users:
            low, high = ESTABLISHED_PROFESSIONAL.age_range
            assert low <= user.age <= high
            assert user.gender in ESTABLISHED_PROFESSIONAL.genders

    def test_platform_attribute_counts_in_range(self, platform):
        builder = PopulationBuilder(platform, seed=1)
        users = builder.spawn(AVERAGE_CONSUMER, 10)
        multi_count = len(platform.catalog.multi_attributes())
        for user in users:
            low, high = AVERAGE_CONSUMER.platform_attr_range
            binaries = len(user.binary_attrs)
            # small test catalog may cap below the persona's upper bound
            pool = len([a for a in platform.catalog.platform_attributes()
                        if a.is_binary])
            assert min(low, pool) <= binaries <= min(high, pool)
            assert len(user.multi_attrs) == multi_count

    def test_pii_attached_and_indexed(self, platform):
        builder = PopulationBuilder(platform, seed=1)
        user = builder.spawn(ESTABLISHED_PROFESSIONAL, 1)[0]
        assert "email" in user.pii_hashes
        assert "phone" in user.pii_hashes

    def test_persona_ground_truth_recorded(self, platform):
        builder = PopulationBuilder(platform, seed=1)
        user = builder.spawn(RECENT_ARRIVAL_GRAD_STUDENT, 1)[0]
        assert builder.persona_of[user.user_id] == \
            "recent_arrival_grad_student"

    def test_reproducible_with_same_seed(self, full_platform):
        from repro.workloads.competition import zero_competition

        def build():
            platform = AdPlatform(
                config=PlatformConfig(name="repro"),
                catalog=build_us_catalog(40, 25),
                competing_draw=zero_competition(),
            )
            builder = PopulationBuilder(platform, seed=7)
            users = builder.spawn(AVERAGE_CONSUMER, 5)
            builder.finalize()
            return [(u.age, sorted(u.binary_attrs)) for u in users]

        assert build() == build()


class TestBrokerPipeline:
    def test_established_professional_gets_partner_attrs(self, platform):
        builder = PopulationBuilder(platform, seed=3)
        user = builder.spawn(ESTABLISHED_PROFESSIONAL, 1)[0]
        assert not any(a.startswith("pc-") for a in user.binary_attrs)
        builder.finalize()
        partner_attrs = {a for a in user.binary_attrs if a.startswith("pc-")}
        low, high = ESTABLISHED_PROFESSIONAL.partner_attr_range
        assert partner_attrs  # definitely covered (coverage=1.0)

    def test_recent_arrival_gets_none(self, platform):
        """The paper's key asymmetry, reproduced by construction."""
        builder = PopulationBuilder(platform, seed=3)
        user = builder.spawn(RECENT_ARRIVAL_GRAD_STUDENT, 1)[0]
        builder.finalize()
        assert not any(a.startswith("pc-") for a in user.binary_attrs)

    def test_exclusive_families_single_pick(self, full_platform):
        """A user gets at most one net-worth band, one job role, etc."""
        builder = PopulationBuilder(full_platform, seed=5)
        users = builder.spawn(ESTABLISHED_PROFESSIONAL, 10)
        builder.finalize()
        for user in users:
            for family in ("pc-networth", "pc-jobrole", "pc-hometype"):
                picks = [a for a in user.binary_attrs
                         if a.startswith(family)]
                assert len(picks) <= 1

    def test_spawn_mix(self, platform):
        builder = PopulationBuilder(platform, seed=2)
        users = builder.spawn_mix(
            [ESTABLISHED_PROFESSIONAL, RECENT_ARRIVAL_GRAD_STUDENT],
            count=20,
        )
        assert len(users) == 20
        personas = set(builder.persona_of.values())
        assert personas <= {"established_professional",
                            "recent_arrival_grad_student"}


class TestGroundTruth:
    def test_partner_only(self, platform):
        builder = PopulationBuilder(platform, seed=3)
        user = builder.spawn(ESTABLISHED_PROFESSIONAL, 1)[0]
        builder.finalize()
        truth = ground_truth_partner_attrs(platform, [user.user_id])
        assert all(a.startswith("pc-") for a in truth[user.user_id])
        assert truth[user.user_id] == {
            a for a in user.binary_attrs if a.startswith("pc-")
        }


def _population_digest(platform) -> str:
    """SHA-256 over every user's row fields, in row order."""
    rows = []
    for user_id in platform.users.user_ids():
        user = platform.users.get(user_id)
        rows.append([
            user.user_id, user.country, user.age, user.gender,
            user.zip_code, sorted(user.binary_attrs),
            sorted(user.multi_attrs.items()),
            sorted((kind, sorted(hashes))
                   for kind, hashes in user.pii_hashes.items()),
            sorted(user.liked_pages),
        ])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class TestGatewayWorldPinned:
    """The benchmark's HTTP world is a pure function of its manifest;
    pin the population digest so a refactor cannot silently change it
    (any RNG-draw reordering in the builder shows up here)."""

    def test_seed_42_150_user_population_digest(self):
        from repro.gateway.world import WorldManifest, build_world

        platform = build_world(WorldManifest(seed=42, users=150))
        assert _population_digest(platform) == (
            "a9a19b0efdb506dc6e09a3cebd8acbe9e6b39186"
            "d4e0f6c6cfc4ce7f3cffe930")


class TestStreamPinned:
    """The streaming path (``repro populate``) pinned the same way: three
    personas, chunks that split the count unevenly, broker ingest run."""

    def test_seed_9_1200_user_stream_digest(self):
        platform = AdPlatform(config=PlatformConfig(name="stream"),
                              catalog=build_us_catalog())
        builder = PopulationBuilder(platform, seed=9)
        chunks = list(builder.spawn_stream(
            [AVERAGE_CONSUMER, ESTABLISHED_PROFESSIONAL,
             RECENT_ARRIVAL_GRAD_STUDENT], 1200, chunk_size=500))
        assert [len(chunk) for chunk in chunks] == [500, 500, 200]
        builder.finalize()
        assert _population_digest(platform) == (
            "1a001792fb23418a60d9cae7b8aa2e456c8ea460"
            "e98896f4418738e6f85c75bf")


class TestPoolsPerCall:
    def test_catalog_edits_between_calls_reach_the_next_call(self, platform):
        """Attribute pools are read once per spawn call, never kept: a
        partner attribute removed between calls is never drawn again, and
        one added in the persona's family is drawn."""
        families = ESTABLISHED_PROFESSIONAL.partner_families
        builder = PopulationBuilder(platform, seed=4)
        builder.spawn(ESTABLISHED_PROFESSIONAL, 5)
        broker = platform.brokers.broker(builder.broker_name)
        first_records = len(broker.records)
        removed = platform.catalog.remove("pc-credit-000")
        assert removed.attr_id.startswith(families)
        added = Attribute("pc-credit-new", "Credit: new",
                          AttributeSource.PARTNER, broker="Experian")
        platform.catalog.add(added)
        builder.spawn(ESTABLISHED_PROFESSIONAL, 20)
        drawn = [attr_id for record in broker.records[first_records:]
                 for attr_id, _ in record.attributes]
        assert len(broker.records) - first_records == 20
        assert removed.attr_id not in drawn
        assert added.attr_id in drawn


def _partner_attrs(user):
    return {a for a in user.binary_attrs if a.startswith("pc-")}


class TestPhonePerUser:
    def test_broker_record_never_reaches_the_user_10000_rows_back(
            self, platform):
        """Users 10,000 rows apart keep distinct phones, so a profiled
        user's broker record does not land on an unprofiled one."""
        builder = PopulationBuilder(platform, seed=3)
        student = builder.spawn(RECENT_ARRIVAL_GRAD_STUDENT, 1)[0]
        for _ in range(9_999):
            platform.register_user()
        professional = builder.spawn(ESTABLISHED_PROFESSIONAL, 1)[0]
        assert student.user_id.endswith("-000000")
        assert professional.user_id.endswith("-010000")
        assert student.pii_hashes["phone"] != \
            professional.pii_hashes["phone"]
        # Phones below 10,000 users keep their earlier values.
        assert student.pii_hashes["phone"] == \
            {hash_pii("phone", "+16175550000")}
        builder.finalize()
        assert _partner_attrs(professional)
        assert not _partner_attrs(student)


class TestIncrementalIngest:
    """``finalize()`` joins only the broker records staged since the
    last call."""

    def test_second_finalize_sees_no_records(self, platform):
        builder = PopulationBuilder(platform, seed=3)
        builder.spawn(ESTABLISHED_PROFESSIONAL, 4)
        first = builder.finalize()
        assert sum(report.records_seen for report in first) == 4
        second = builder.finalize()
        assert sum(report.records_seen for report in second) == 0

    def test_removed_drawn_attribute_does_not_break_finalize(self, platform):
        builder = PopulationBuilder(platform, seed=3)
        user = builder.spawn(ESTABLISHED_PROFESSIONAL, 1)[0]
        builder.finalize()
        drawn = sorted(_partner_attrs(user))[0]
        platform.catalog.remove(drawn)
        reports = builder.finalize()
        assert sum(report.records_seen for report in reports) == 0

    def test_record_added_between_calls_is_ingested(self, platform):
        builder = PopulationBuilder(platform, seed=3)
        early = builder.spawn(ESTABLISHED_PROFESSIONAL, 1)[0]
        builder.finalize()
        late = builder.spawn(ESTABLISHED_PROFESSIONAL, 1)[0]
        assert not _partner_attrs(late)
        reports = builder.finalize()
        assert sum(report.records_seen for report in reports) == 1
        assert sum(report.records_matched for report in reports) == 1
        assert _partner_attrs(late)
        assert _partner_attrs(early)
