"""repro.serve — sharded, concurrent ad serving with admission control.

The simulator's delivery engine answers "who sees what" one synchronous
call at a time; this package wraps it in the shape of a real serving
system: typed requests with deadlines (:mod:`repro.serve.requests`),
users consistently hashed onto shard-owned engines
(:mod:`repro.serve.sharding`), worker pools with bounded queues,
micro-batching and load shedding (:mod:`repro.serve.runtime`), an
optional process-per-shard backend that moves each shard's engine into
a subprocess behind a length-prefixed socket protocol driven from an
event loop (:mod:`repro.serve.ipc`), and an open-loop load generator
to measure it honestly (:mod:`repro.serve.loadgen`). Delivery
semantics are unchanged — a fixed request sequence produces
byte-identical reports for any shard count — so everything the paper's
analyses say about reach and delivery still holds when served this
way.
"""

from repro.serve.ipc import FrameDecoder, Framer, ShardChannel, WorkerLost
from repro.serve.loadgen import (
    LoadConfig,
    LoadGenerator,
    LoadReport,
    build_schedule,
)
from repro.serve.requests import (
    AdRequest,
    AdResponse,
    ServeResult,
    ServeStatus,
    ServeTally,
)
from repro.serve.runtime import BACKENDS, RuntimeConfig, ServingRuntime
from repro.serve.sharding import (
    KeyedCompetition,
    Shard,
    ShardRouter,
    journal_store_factory,
    shard_index,
    shard_journal_path,
    shard_snapshot_path,
)

__all__ = [
    "AdRequest",
    "AdResponse",
    "BACKENDS",
    "FrameDecoder",
    "Framer",
    "KeyedCompetition",
    "LoadConfig",
    "LoadGenerator",
    "LoadReport",
    "RuntimeConfig",
    "ServeResult",
    "ServeStatus",
    "ServeTally",
    "ServingRuntime",
    "Shard",
    "ShardRouter",
    "ShardChannel",
    "WorkerLost",
    "build_schedule",
    "journal_store_factory",
    "shard_index",
    "shard_journal_path",
    "shard_snapshot_path",
]
