"""`repro.store` — the journaled state layer.

Typed change records, an append-only write-ahead journal with in-memory
and on-disk (JSONL) backends, versioned snapshots, and deterministic
replay. Every mutable-state owner in the platform (delivery engine,
billing ledger, audience registry, shard slot counters) routes its
writes through a :class:`StateStore`; see ``docs/state.md``.
"""

from repro.store.records import (
    AudienceCreated,
    AudienceDelta,
    CampaignCreated,
    CampaignPaused,
    ChangeRecord,
    ChargeRecorded,
    ClickRecorded,
    ImpressionRecorded,
    OrgCreated,
    RECORD_TYPES,
    SlotClaimed,
    decode_line,
    encode_line,
    record_from_dict,
    record_to_dict,
)
from repro.store.snapshot import SNAPSHOT_VERSION, Snapshot
from repro.store.store import (
    JournalStore,
    MemoryStore,
    StateOwner,
    StateStore,
    open_store,
)

__all__ = [
    "AudienceCreated",
    "AudienceDelta",
    "CampaignCreated",
    "CampaignPaused",
    "ChangeRecord",
    "ChargeRecorded",
    "ClickRecorded",
    "ImpressionRecorded",
    "JournalStore",
    "OrgCreated",
    "MemoryStore",
    "RECORD_TYPES",
    "SNAPSHOT_VERSION",
    "SlotClaimed",
    "Snapshot",
    "StateOwner",
    "StateStore",
    "decode_line",
    "encode_line",
    "open_store",
    "record_from_dict",
    "record_to_dict",
]
