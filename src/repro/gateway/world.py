"""Deterministic gateway worlds: manifest, build, and crash recovery.

The gateway's durability story rests on one idea borrowed from the
``repro checkpoint`` pipeline: the *world* (users, catalog, provider
sweep) is a pure function of a small manifest, so only the manifest and
the journals need to survive a crash. Restarting rebuilds the identical
world from the manifest, recovers every shard from its write-ahead
journal, and replays the tenancy journal through
:class:`~repro.gateway.tenancy.TenantRegistry` — whose records carry
the platform ids they were granted, letting replay *verify* it landed
on the same world it left.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

from repro.core.provider import TransparencyProvider
from repro.platform.platform import AdPlatform, PlatformConfig
from repro.platform.web import WebDirectory
from repro.serve import (
    KeyedCompetition,
    RuntimeConfig,
    ServingRuntime,
    shard_journal_path,
)
from repro.store import JournalStore
from repro.workloads.personas import (
    AVERAGE_CONSUMER,
    ESTABLISHED_PROFESSIONAL,
    RECENT_ARRIVAL_GRAD_STUDENT,
)
from repro.workloads.population import PopulationBuilder

MANIFEST_FILENAME = "manifest.json"

#: The tenancy journal (org/campaign/audience change records).
TENANCY_JOURNAL = "gateway.jsonl"


@dataclass(frozen=True)
class WorldManifest:
    """Everything needed to rebuild a gateway world byte-identically."""

    seed: int = 42
    users: int = 150
    shards: int = 4
    backend: str = "thread"
    queue_capacity: int = 256
    deadline_ms: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "WorldManifest":
        # Older manifests carry "workers": 1 (the retired threads-per-
        # shard knob, always 1 in a manifest); drop it on load.
        fields = {key: value for key, value in data.items()
                  if key != "workers"}
        return WorldManifest(**fields)


def manifest_path(journal_dir: str) -> str:
    return os.path.join(journal_dir, MANIFEST_FILENAME)


def tenancy_journal_path(journal_dir: str) -> str:
    return os.path.join(journal_dir, TENANCY_JOURNAL)


def save_manifest(journal_dir: str, manifest: WorldManifest) -> None:
    os.makedirs(journal_dir, exist_ok=True)
    tmp = manifest_path(journal_dir) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as stream:
        json.dump(manifest.to_dict(), stream, indent=2, sort_keys=True)
        stream.write("\n")
    os.replace(tmp, manifest_path(journal_dir))


def load_manifest(journal_dir: str) -> Optional[WorldManifest]:
    path = manifest_path(journal_dir)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as stream:
        return WorldManifest.from_dict(json.load(stream))


def build_world(manifest: WorldManifest) -> AdPlatform:
    """The serving world, mirrored from the CLI's ``serve`` builder:
    a seeded persona-mix population with a full Tread sweep. Pure in
    the manifest — two builds from equal manifests are identical,
    including every id the platform's ``IdFactory`` hands out."""
    platform = AdPlatform(config=PlatformConfig(name="gateway"))
    web = WebDirectory()
    builder = PopulationBuilder(platform, seed=manifest.seed)
    builder.spawn_mix(
        [ESTABLISHED_PROFESSIONAL, AVERAGE_CONSUMER,
         RECENT_ARRIVAL_GRAD_STUDENT],
        manifest.users,
    )
    builder.finalize()
    provider = TransparencyProvider(platform, web, budget=10_000.0,
                                    bid_cap_cpm=10.0)
    for user_id in platform.users.user_ids():
        provider.optin.via_page_like(user_id)
    provider.launch_partner_sweep()
    return platform


def build_runtime(platform: AdPlatform, manifest: WorldManifest,
                  journal_dir: Optional[str] = None,
                  telemetry_interval_s: Optional[float] = None
                  ) -> ServingRuntime:
    return ServingRuntime(
        platform,
        RuntimeConfig(
            num_shards=manifest.shards,
            queue_capacity=manifest.queue_capacity,
            backend=manifest.backend,
            journal_dir=journal_dir,
            default_deadline_s=(manifest.deadline_ms / 1000.0
                                if manifest.deadline_ms is not None
                                else None),
            telemetry_interval_s=telemetry_interval_s,
        ),
        competition=KeyedCompetition(seed=manifest.seed),
    )


def existing_shard_journals(journal_dir: str,
                            manifest: WorldManifest) -> List[int]:
    """Shard indices with a journal on disk (a prior run to recover)."""
    present: List[int] = []
    for index in range(manifest.shards):
        if os.path.exists(shard_journal_path(journal_dir, index,
                                             manifest.shards)):
            present.append(index)
    return present


def recover_runtime_shards(runtime: ServingRuntime, journal_dir: str,
                           manifest: WorldManifest,
                           indices: Optional[List[int]] = None
                           ) -> Tuple[int, ...]:
    """Fold every on-disk shard journal back into a stopped runtime.

    On the thread backend each recovered shard's journal is reopened
    for append (serving resumes right where the dead gateway stopped);
    on the process backend the recovered shadow seeds the next worker
    spawn. Returns the recovered shard indices. Pass ``indices`` (from
    :func:`existing_shard_journals` *before* the runtime was built)
    when the runtime's own construction may have created fresh journal
    files — those need no recovery.
    """
    if indices is None:
        indices = existing_shard_journals(journal_dir, manifest)
    recovered = []
    for index in indices:
        if runtime.config.backend != "process":
            # The freshly built router already opened this shard's
            # journal for append; recover_shard reopens it, so release
            # the stale handle first.
            runtime.router.shards[index].store.close()
        runtime.recover_shard(index)
        recovered.append(index)
    return tuple(recovered)


def open_tenancy_store(journal_dir: str) -> JournalStore:
    """The tenancy WAL: flush-per-append, so every mutation is pushed
    to the OS before its HTTP 2xx goes out."""
    return JournalStore(tenancy_journal_path(journal_dir), flush_every=1)
