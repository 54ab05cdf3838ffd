"""Crash recovery: kill a shard mid-run, recover, finish identically.

The acceptance contract for the journaled state layer: a shard that
dies mid-run and is rebuilt from its snapshot + journal suffix must
finish the run with reports *byte-identical* to an uninterrupted,
identically-seeded run — same impressions, same feeds, same caps, same
slot counters (hence same keyed competition), and the same charges
(nothing lost, nothing double-billed).
"""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro.serve import (
    AdRequest,
    KeyedCompetition,
    RuntimeConfig,
    ServeStatus,
    ServingRuntime,
    ShardRouter,
    journal_store_factory,
)
from repro.store import JournalStore
from repro.store.audit import canonical_json, state_report


def _serve_round(router: ShardRouter, platform, slots: int = 3) -> None:
    for user in platform.users:
        shard = router.shard_for(user.user_id)
        base = shard.claim_slots(user.user_id, slots)
        shard.serve_user_slots(user, base, slots)


def _close(router: ShardRouter) -> None:
    for shard in router.shards:
        shard.store.close()


def _spends(router: ShardRouter) -> dict:
    out: dict = {}
    for shard in router.shards:
        for account_id in shard.ledger.charged_accounts():
            out[account_id] = round(
                out.get(account_id, 0.0)
                + shard.ledger.spend_for_account(account_id), 10)
    return out


class TestShardCrashRecovery:
    @pytest.mark.parametrize("num_shards", [1, 8])
    def test_killed_shard_finishes_byte_identical(
            self, make_world, tmp_path, num_shards):
        seed = 11
        # -- reference: uninterrupted, in-memory ------------------------
        ref_platform = make_world(seed=seed)
        reference = ShardRouter(ref_platform, num_shards=num_shards,
                                competition=KeyedCompetition(seed=7))
        for _ in range(4):
            _serve_round(reference, ref_platform)

        # -- crashed: journaled, killed after round 3, recovered --------
        platform = make_world(seed=seed)
        router = ShardRouter(
            platform, num_shards=num_shards,
            competition=KeyedCompetition(seed=7),
            store_factory=journal_store_factory(str(tmp_path)),
        )
        _serve_round(router, platform)
        _serve_round(router, platform)
        router.checkpoint_shards(directory=str(tmp_path))
        _serve_round(router, platform)  # lands in the journal suffix

        victim = num_shards // 2
        expected_export = router.shards[victim].engine.export_state()
        expected_slots = dict(router.shards[victim].slot_seq)
        router.shards[victim].store.close()  # the "crash"
        recovered = router.recover_shard(victim, str(tmp_path))

        # recovery alone reproduced the pre-crash state exactly
        assert recovered.engine.export_state() == expected_export
        assert recovered.slot_seq == expected_slots

        _serve_round(router, platform)  # finish the run post-recovery

        # -- byte-identical end states ----------------------------------
        assert (canonical_json(state_report(router))
                == canonical_json(state_report(reference)))
        assert router.aggregate_report() == reference.aggregate_report()
        _close(router)

    @pytest.mark.parametrize("num_shards", [1, 8])
    def test_no_lost_or_double_charges(self, make_world, tmp_path,
                                       num_shards):
        seed = 23
        ref_platform = make_world(seed=seed)
        reference = ShardRouter(ref_platform, num_shards=num_shards,
                                competition=KeyedCompetition(seed=9))
        for _ in range(3):
            _serve_round(reference, ref_platform)

        platform = make_world(seed=seed)
        router = ShardRouter(
            platform, num_shards=num_shards,
            competition=KeyedCompetition(seed=9),
            store_factory=journal_store_factory(str(tmp_path)),
        )
        _serve_round(router, platform)
        router.checkpoint_shards(directory=str(tmp_path))
        _serve_round(router, platform)

        victim = 0
        router.shards[victim].store.close()
        router.recover_shard(victim, str(tmp_path))
        _serve_round(router, platform)

        assert _spends(router) == _spends(reference)
        # budgets on the recovered shard match the reference shard's:
        # every journaled charge debited exactly once
        ref_shard = reference.shards[victim]
        rec_shard = router.shards[victim]
        ref_budgets = {a.account_id: round(a.budget, 10) for a in
                       ref_shard.ledger._inventory.local_accounts()
                       .values() if a.budget != a.budget or True}
        rec_charged = rec_shard.ledger.charged_accounts()
        for account_id in rec_charged:
            assert round(
                rec_shard.ledger._inventory.account(account_id).budget,
                10,
            ) == ref_budgets[account_id]
        _close(router)

    def test_recovery_without_snapshot_replays_whole_journal(
            self, make_world, tmp_path):
        platform = make_world(seed=5)
        router = ShardRouter(
            platform, num_shards=2,
            competition=KeyedCompetition(seed=3),
            store_factory=journal_store_factory(str(tmp_path)),
        )
        _serve_round(router, platform)
        _serve_round(router, platform)
        expected = router.shards[1].engine.export_state()
        expected_slots = dict(router.shards[1].slot_seq)

        router.shards[1].store.close()
        recovered = router.recover_shard(1, str(tmp_path))
        assert recovered.engine.export_state() == expected
        assert recovered.slot_seq == expected_slots
        _close(router)

    def test_full_journal_replay_onto_fresh_shards_matches_live(
            self, make_world, tmp_path):
        """The replay() identity at shard level (the CLI ``replay``
        semantic): fresh world + full journals == live end state."""
        from repro.serve.sharding import shard_journal_path

        seed = 17
        platform = make_world(seed=seed)
        router = ShardRouter(
            platform, num_shards=4,
            competition=KeyedCompetition(seed=5),
            store_factory=journal_store_factory(str(tmp_path)),
        )
        for _ in range(3):
            _serve_round(router, platform)
        live = canonical_json(state_report(router))
        # Group commit buffers journal lines; hand off cleanly before
        # another process (here: the rebuilt router) reads the files.
        _close(router)

        rebuilt_platform = make_world(seed=seed)
        rebuilt = ShardRouter(rebuilt_platform, num_shards=4,
                              competition=KeyedCompetition(seed=5))
        for index, shard in enumerate(rebuilt.shards):
            records = JournalStore.read(
                shard_journal_path(str(tmp_path), index, 4))
            assert records, "every shard should have journaled work"
            shard.store.replay(records)
        assert canonical_json(state_report(rebuilt)) == live


def _drive(runtime, platform, repeat, slots=2):
    """Submit ``repeat`` rounds over every user; all must be SERVED."""
    futures = []
    for _ in range(repeat):
        for uid in platform.users.user_ids():
            futures.append(runtime.submit(AdRequest(uid, slots=slots)))
    for future in futures:
        assert future.result(timeout=30).ok
    return len(futures)


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestRuntimeRecovery:
    def test_runtime_checkpoint_recover_and_resume(self, make_world,
                                                   tmp_path, backend):
        seed = 11
        ref_platform = make_world(seed=seed)
        reference = ServingRuntime(
            ref_platform,
            RuntimeConfig(num_shards=3, queue_capacity=4096,
                          backend=backend),
            competition=KeyedCompetition(seed=13),
        )
        with reference:
            _drive(reference, ref_platform, 2)
            _drive(reference, ref_platform, 1)

        platform = make_world(seed=seed)
        runtime = ServingRuntime(
            platform,
            RuntimeConfig(num_shards=3, queue_capacity=4096,
                          journal_dir=str(tmp_path), backend=backend),
            competition=KeyedCompetition(seed=13),
        )
        with runtime:
            _drive(runtime, platform, 2)
            runtime.checkpoint("mid-run")
        # crash shard 1 while stopped; recover from disk
        runtime.router.shards[1].store.close()
        runtime.recover_shard(1)
        with runtime:
            _drive(runtime, platform, 1)

        assert (canonical_json(state_report(runtime.router))
                == canonical_json(state_report(reference.router)))
        assert (runtime.router.aggregate_report()
                == reference.router.aggregate_report())
        _close(runtime.router)

    def test_recover_requires_journal_dir(self, make_world, backend):
        from repro.errors import StoreError

        runtime = ServingRuntime(make_world(users=5),
                                 RuntimeConfig(num_shards=1,
                                               backend=backend))
        with pytest.raises(StoreError, match="journal_dir"):
            runtime.recover_shard(0)

    def test_recover_requires_stopped_runtime(self, make_world,
                                              tmp_path, backend):
        runtime = ServingRuntime(
            make_world(users=5),
            RuntimeConfig(num_shards=1, journal_dir=str(tmp_path),
                          backend=backend),
        )
        with runtime:
            with pytest.raises(RuntimeError, match="stop"):
                runtime.recover_shard(0)
        _close(runtime.router)

    def test_acknowledged_impressions_are_on_disk(self, make_world,
                                                  tmp_path, backend):
        """An ack means the journal is committed: every ad in a SERVED
        response already has its impression record in the shard's
        journal file when the result resolves — before any stop(),
        checkpoint or close could flush it."""
        from repro.serve.sharding import shard_journal_path
        from repro.store import ImpressionRecorded

        platform = make_world(users=40)
        runtime = ServingRuntime(
            platform,
            RuntimeConfig(num_shards=2, journal_dir=str(tmp_path),
                          backend=backend),
            competition=KeyedCompetition(seed=13),
        )
        with runtime:
            results = runtime.serve_and_wait(
                [AdRequest(uid) for uid in platform.users.user_ids()])
            on_disk = set()
            for index in range(2):
                for record in JournalStore.read(
                        shard_journal_path(str(tmp_path), index, 2)):
                    if isinstance(record, ImpressionRecorded):
                        on_disk.add((record.ad_id, record.user_id))
        acknowledged = {(ad_id, result.request.user_id)
                        for result in results
                        if result.status is ServeStatus.SERVED
                        for ad_id in result.response.ad_ids}
        assert acknowledged, "the run served nothing"
        assert acknowledged <= on_disk, (
            f"{len(acknowledged - on_disk)} of {len(acknowledged)} "
            f"acknowledged impressions missing from the journals")
        _close(runtime.router)


class TestThreadTransportContention:
    def test_journals_fold_to_live_state_under_contention(
            self, make_world, tmp_path):
        """On the thread backend a shard's journal takes slot claims
        from admission (the loop thread) while the shard's worker
        thread appends impressions and commits. With more shards than
        cores, two submitting threads and a tiny switch interval, the
        journals must still fold back to exactly the live state."""
        import sys
        import threading

        from repro.serve.sharding import shard_journal_path

        platform = make_world(seed=17)
        runtime = ServingRuntime(
            platform,
            RuntimeConfig(num_shards=4, queue_capacity=4096,
                          journal_dir=str(tmp_path)),
            competition=KeyedCompetition(seed=5),
        )
        requests = [AdRequest(uid, slots=2)
                    for uid in platform.users.user_ids()] * 2
        results: list = []

        def submit_all() -> None:
            results.extend(runtime.serve_and_wait(requests, timeout=60))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with runtime:
                submitters = [threading.Thread(target=submit_all)
                              for _ in range(2)]
                for thread in submitters:
                    thread.start()
                for thread in submitters:
                    thread.join(timeout=120)
                assert not any(t.is_alive() for t in submitters)
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 2 * len(requests)
        assert all(result.ok for result in results)
        live = canonical_json(state_report(runtime.router))
        live_slots = [dict(s.slot_seq) for s in runtime.router.shards]
        _close(runtime.router)

        rebuilt = ShardRouter(make_world(seed=17), num_shards=4,
                              competition=KeyedCompetition(seed=5))
        for index, shard in enumerate(rebuilt.shards):
            shard.store.replay(JournalStore.read(
                shard_journal_path(str(tmp_path), index, 4)))
        assert canonical_json(state_report(rebuilt)) == live
        assert [s.slot_seq for s in rebuilt.shards] == live_slots


class TestWorkerSigkill:
    """kill -9 of a shard worker process: fail fast, recover fully."""

    def test_killed_worker_fails_fast_and_isolates(self, make_world,
                                                   tmp_path):
        platform = make_world(users=20)
        runtime = ServingRuntime(
            platform,
            RuntimeConfig(num_shards=2, backend="process",
                          journal_dir=str(tmp_path)),
            competition=KeyedCompetition(seed=13),
        )
        with runtime:
            uids = platform.users.user_ids()
            _drive(runtime, platform, 1, slots=1)
            victim = 0
            victim_uid = next(
                u for u in uids
                if runtime.router.shard_for(u).index == victim)
            other_uid = next(
                u for u in uids
                if runtime.router.shard_for(u).index != victim)
            process = runtime._clients[victim].process
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10)
            # requests to the dead shard resolve as ERROR, not a hang
            result = runtime.submit(
                AdRequest(victim_uid, slots=1)).result(timeout=30)
            assert result.status is ServeStatus.ERROR
            # the other shard is unaffected
            assert runtime.submit(
                AdRequest(other_uid, slots=1)).result(timeout=30).ok
        # stop() above skipped the dead worker's merge-back cleanly

    def test_sigkill_recover_resume_byte_identical(self, make_world,
                                                   tmp_path):
        """Round A -> drain -> SIGKILL one worker -> stop -> recover
        from its per-batch-flushed journal -> round B == an
        uninterrupted run. Nothing acknowledged is lost; nothing is
        double-charged."""
        seed = 11
        ref_platform = make_world(seed=seed)
        reference = ServingRuntime(
            ref_platform,
            RuntimeConfig(num_shards=3, queue_capacity=4096,
                          backend="process"),
            competition=KeyedCompetition(seed=13),
        )
        with reference:
            _drive(reference, ref_platform, 2)
            _drive(reference, ref_platform, 1)

        platform = make_world(seed=seed)
        runtime = ServingRuntime(
            platform,
            RuntimeConfig(num_shards=3, queue_capacity=4096,
                          backend="process", journal_dir=str(tmp_path)),
            competition=KeyedCompetition(seed=13),
        )
        victim = 1
        with runtime:
            _drive(runtime, platform, 2)
            assert runtime.drain()
            # every acknowledged batch is journal-flushed, so a hard
            # kill of the idle worker loses nothing
            process = runtime._clients[victim].process
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10)
        runtime.recover_shard(victim)
        with runtime:
            _drive(runtime, platform, 1)

        assert (canonical_json(state_report(runtime.router))
                == canonical_json(state_report(reference.router)))
        assert (runtime.router.aggregate_report()
                == reference.router.aggregate_report())
        assert _spends(runtime.router) == _spends(reference.router)


class TestJournaledEquivalence:
    def test_journaled_and_memory_runs_are_identical(self, make_world,
                                                     tmp_path):
        """Journaling is an observer: turning it on cannot change a
        single delivery decision."""
        seed = 31
        mem_platform = make_world(seed=seed)
        memory = ShardRouter(mem_platform, num_shards=4,
                             competition=KeyedCompetition(seed=7))
        jr_platform = make_world(seed=seed)
        journaled = ShardRouter(
            jr_platform, num_shards=4,
            competition=KeyedCompetition(seed=7),
            store_factory=journal_store_factory(str(tmp_path)),
        )
        for _ in range(3):
            _serve_round(memory, mem_platform)
            _serve_round(journaled, jr_platform)
        assert (canonical_json(state_report(memory))
                == canonical_json(state_report(journaled)))
        _close(journaled)
        # and the journal bytes themselves are valid JSON records
        total = 0
        for index in range(4):
            text = (tmp_path / f"shard-{index}-of-4.journal.jsonl"
                    ).read_text(encoding="utf-8")
            for line in text.splitlines():
                if line.strip():
                    total += len(json.loads(line))
        assert total > 0


class TestSnapshotBillingSection:
    def test_billing_section_holds_no_per_impression_list(
            self, make_world):
        # A shard snapshot carries each impression once, in the delivery
        # section; billing keeps one row per ad and per account.
        platform = make_world(seed=11)
        router = ShardRouter(platform, num_shards=2,
                             competition=KeyedCompetition(seed=7))
        _serve_round(router, platform)
        for snapshot in router.checkpoint_shards():
            billing = snapshot.state["billing"]
            impressions = snapshot.state["delivery"]["impressions"]
            assert impressions, "the round should have delivered"
            assert set(billing) == {"ads", "accounts", "budgets"}
            assert len(billing["ads"]) == \
                len({row["ad_id"] for row in impressions})
            assert sum(row[3] for row in billing["ads"]) == \
                len(impressions)
        _close(router)


class TestColumnarCheckpointBundle:
    """User-column blocks travel with the checkpoint bundle."""

    def test_columnar_bundle_round_trip(self, make_world, tmp_path):
        from repro.platform.catalog import build_us_catalog
        from repro.platform.platform import AdPlatform, PlatformConfig
        from repro.serve.sharding import users_columns_path

        platform = make_world(seed=17)
        router = ShardRouter(platform, num_shards=2,
                             competition=KeyedCompetition(seed=7))
        _serve_round(router, platform)
        router.checkpoint_shards(directory=str(tmp_path))
        assert os.path.exists(users_columns_path(str(tmp_path)))

        # A fresh, unpopulated columnar world rehydrates the columns.
        fresh = AdPlatform(
            config=PlatformConfig(name="serve-test"),
            catalog=build_us_catalog(platform_count=40, partner_count=25),
        )
        fresh_router = ShardRouter(fresh, num_shards=2)
        fresh_router.restore_user_columns(str(tmp_path))
        assert fresh.users.user_ids() == platform.users.user_ids()
        for original in platform.users:
            twin = fresh.users.get(original.user_id)
            assert sorted(twin.attribute_ids()) == \
                sorted(original.attribute_ids())
            assert set(twin.liked_pages) == set(original.liked_pages)

    def test_bundle_without_columns_file_is_refused(self, make_world,
                                                    tmp_path):
        from repro.errors import StoreError
        from repro.serve.sharding import users_columns_path

        platform = make_world(seed=17)
        router = ShardRouter(platform, num_shards=2,
                             competition=KeyedCompetition(seed=7))
        router.checkpoint_shards(directory=str(tmp_path))
        os.unlink(users_columns_path(str(tmp_path)))
        with pytest.raises(StoreError, match="no users-columns"):
            router.restore_user_columns(str(tmp_path))
