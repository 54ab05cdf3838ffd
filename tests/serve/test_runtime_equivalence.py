"""The tentpole guarantee: sharding does not change delivery.

Three layers of equivalence, each against a stronger reference:

1. Shard-count invariance — identical worlds served through 1, 4, and
   8 shards produce byte-identical aggregate reports (JSON-serialized,
   sorted keys), with real keyed lognormal competition in play.
2. Single-engine agreement — with competition turned off on both
   paths, the sharded runtime reproduces exactly what the platform's
   own synchronous ``run_delivery`` does: same per-ad impressions,
   same reach sets, same per-user feeds.
3. Replay determinism — the same world and request sequence served
   twice through the runtime gives the same report (the
   workers-per-shard=1 contract).

Every layer runs on both backends: the process backend moves each
shard's engine into a subprocess behind the IPC codec, and these tests
are the proof that the wire does not change delivery — thread and
process runs of the same world are byte-identical too.
"""

from __future__ import annotations

import json

import pytest

from repro.serve import (
    AdRequest,
    KeyedCompetition,
    RuntimeConfig,
    ServingRuntime,
)

SEED = 23
ROUNDS = 3
SLOTS = 2


def _request_sequence(platform):
    """A fixed, shard-agnostic request order: rounds over sorted users."""
    return [
        AdRequest(user_id=user_id, slots=SLOTS)
        for _ in range(ROUNDS)
        for user_id in sorted(platform.users.user_ids())
    ]


def _serve_through(platform, num_shards, median_cpm=2.0,
                   backend="thread"):
    runtime = ServingRuntime(
        platform,
        RuntimeConfig(num_shards=num_shards, queue_capacity=4096,
                      backend=backend),
        competition=KeyedCompetition(seed=7, median_cpm=median_cpm),
    )
    with runtime:
        results = runtime.serve_and_wait(_request_sequence(platform))
    assert all(result.ok for result in results)
    return runtime


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestShardCountInvariance:
    def test_1_4_8_shards_byte_identical(self, make_world, backend):
        reports = {}
        for num_shards in (1, 4, 8):
            runtime = _serve_through(make_world(seed=SEED), num_shards,
                                     backend=backend)
            reports[num_shards] = json.dumps(
                runtime.router.aggregate_report(), sort_keys=True
            )
        assert reports[1] == reports[4]
        assert reports[1] == reports[8]
        assert json.loads(reports[1]), \
            "vacuous equivalence: nothing was delivered"

    def test_feeds_identical_across_shard_counts(self, make_world,
                                                 backend):
        runtimes = {
            num_shards: _serve_through(make_world(seed=SEED), num_shards,
                                       backend=backend)
            for num_shards in (1, 4)
        }
        user_ids = sorted(
            runtimes[1].platform.users.user_ids()
        )
        for user_id in user_ids:
            feeds = {
                n: [d.ad_id for d in rt.router.feed(user_id)]
                for n, rt in runtimes.items()
            }
            assert feeds[1] == feeds[4]

    def test_replay_same_world_same_report(self, make_world, backend):
        first = _serve_through(make_world(seed=SEED), 4, backend=backend)
        second = _serve_through(make_world(seed=SEED), 4,
                                backend=backend)
        assert json.dumps(first.router.aggregate_report(),
                          sort_keys=True) \
            == json.dumps(second.router.aggregate_report(),
                          sort_keys=True)


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestSingleEngineAgreement:
    """No competition on either path -> sharded == synchronous engine."""

    @pytest.fixture
    def pair(self, make_world, backend):
        served = make_world(seed=SEED)
        runtime = _serve_through(served, 4, median_cpm=0.0,
                                 backend=backend)
        reference = make_world(seed=SEED)
        for _ in range(ROUNDS):
            reference.run_delivery(slots_per_user=SLOTS)
        return runtime, reference

    def test_per_ad_impressions_and_reach_agree(self, pair):
        runtime, reference = pair
        engine = reference.delivery
        ad_ids = {imp.ad_id for imp in engine.impressions()}
        assert ad_ids, "reference run delivered nothing"
        assert ad_ids == set(runtime.router.aggregate_report())
        for ad_id in ad_ids:
            assert runtime.router.impressions_for_ad(ad_id) \
                == engine.impression_count_for_ad(ad_id)
            assert runtime.router.unique_reach(ad_id) \
                == engine.unique_reach(ad_id)

    def test_per_user_feeds_agree(self, pair):
        runtime, reference = pair
        for user_id in reference.users.user_ids():
            assert sorted(d.ad_id for d in runtime.router.feed(user_id)) \
                == sorted(d.ad_id
                          for d in reference.delivery.feed(user_id))

    def test_total_impressions_agree(self, pair):
        runtime, reference = pair
        assert runtime.router.total_impressions() \
            == len(reference.delivery.impressions())


class TestBackendAgreement:
    """Thread and process backends serve the same world identically."""

    def test_thread_process_byte_identical(self, make_world):
        reports = {
            backend: json.dumps(
                _serve_through(make_world(seed=SEED), 4,
                               backend=backend)
                .router.aggregate_report(),
                sort_keys=True,
            )
            for backend in ("thread", "process")
        }
        assert reports["thread"] == reports["process"]
        assert json.loads(reports["thread"]), \
            "vacuous equivalence: nothing was delivered"
