"""Fixtures for the serving-runtime suite.

Every test here wants the same kind of world: a seeded persona-mix
population with a full Tread sweep launched, so the candidate lists have
real ads and the audience registry real members. ``make_world`` is a
factory (not a prebuilt fixture) because the equivalence tests need
*several* identically-seeded worlds — one per shard count — that must
not share any mutable state.
"""

from __future__ import annotations

import pytest

from repro.core.provider import TransparencyProvider
from repro.platform.catalog import build_us_catalog
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.platform.web import WebDirectory
from repro.workloads.competition import zero_competition
from repro.workloads.personas import (
    AVERAGE_CONSUMER,
    ESTABLISHED_PROFESSIONAL,
    RECENT_ARRIVAL_GRAD_STUDENT,
)
from repro.workloads.population import PopulationBuilder


@pytest.fixture
def make_world():
    """Factory: identically-seeded platforms with a launched sweep.

    The platform's own delivery engine gets zero ambient competition
    unless ``competing_draw`` names a market (deterministic
    single-engine reference); the serving runtime's shards bring their
    own :class:`KeyedCompetition` or share the platform's, so tests
    choose per-path competition explicitly.
    """

    def build(seed: int = 11, users: int = 40, budget: float = 5000.0,
              competing_draw=None) -> AdPlatform:
        platform = AdPlatform(
            config=PlatformConfig(name="serve-test"),
            catalog=build_us_catalog(platform_count=40, partner_count=25),
            competing_draw=(competing_draw if competing_draw is not None
                            else zero_competition()),
        )
        web = WebDirectory()
        builder = PopulationBuilder(platform, seed=seed)
        builder.spawn_mix(
            [ESTABLISHED_PROFESSIONAL, AVERAGE_CONSUMER,
             RECENT_ARRIVAL_GRAD_STUDENT],
            users,
        )
        builder.finalize()
        provider = TransparencyProvider(platform, web, budget=budget,
                                        bid_cap_cpm=10.0)
        for user_id in platform.users.user_ids():
            provider.optin.via_page_like(user_id)
        provider.launch_partner_sweep()
        return platform

    return build
