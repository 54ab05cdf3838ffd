"""The state store: journal + snapshot/restore/replay coordinator.

A :class:`StateStore` is the write-ahead journal that every mutable
state owner (delivery engine, billing ledger, audience registry, shard
slot counters) routes its changes through, plus the coordinator that
turns those owners' dumps into versioned snapshots and folds journals
back onto them.

Owners implement the :class:`StateOwner` protocol and call
:meth:`StateStore.attach` at construction. The contract splits the two
mutation paths cleanly:

* **Live path** — the owner builds a change record, calls
  ``store.append(record)``, then applies it to its own structures
  (emitting obs metrics as a side effect of being live).
* **Replay path** — the *store* dispatches each journal record to the
  owner's ``apply_record``, which mutates state but never re-journals
  and never re-emits obs signals. Replaying a journal twice, or onto a
  restored snapshot, therefore cannot double-count anything.

Two backends: :class:`MemoryStore` (a list; zero durability, zero
overhead) and :class:`JournalStore` (append-only JSONL file — the
journaled backend whose overhead the scale bench bounds at <= 15%).
"""

from __future__ import annotations

import logging
import os
import threading
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import StoreError
from repro.obs import tracing as _tracing
from repro.obs.metrics import registry as obs_registry
from repro.store.records import ChangeRecord, decode_line, encode_line
from repro.store.snapshot import SNAPSHOT_VERSION, Snapshot

_log = logging.getLogger(__name__)

try:  # pragma: no cover - 3.8+ always has Protocol
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


@runtime_checkable
class StateOwner(Protocol):
    """What a mutable-state owner exposes to the store.

    ``store_name`` keys the owner's section in snapshots; it must be
    unique per store. ``handled_kinds`` routes journal records back to
    the owner during :meth:`StateStore.replay`.
    """

    @property
    def store_name(self) -> str: ...

    @property
    def handled_kinds(self) -> Tuple[str, ...]: ...

    def state_dump(self) -> Dict[str, object]:
        """Full JSON-safe dump of the owner's mutable state."""
        ...

    def state_load(self, state: Dict[str, object]) -> None:
        """Replace the owner's mutable state with a prior dump."""
        ...

    def apply_record(self, record: ChangeRecord) -> None:
        """Fold one journal record in, without journaling or obs."""
        ...


class StateStore:
    """Base store: owner registry + checkpoint/restore/replay logic.

    Subclasses implement the journal itself (:meth:`append`,
    :meth:`records`, :attr:`record_count`); everything that coordinates
    owners lives here so both backends share one code path.
    """

    #: True when appended records are dropped (:class:`NullStore`) —
    #: bulk writers may then skip building them.
    discards_records = False

    def __init__(self) -> None:
        self._owners: Dict[str, StateOwner] = {}
        self._by_kind: Dict[str, StateOwner] = {}
        reg = obs_registry()
        self._obs_appended = reg.counter("store.records_appended")
        self._obs_checkpoints = reg.counter("store.checkpoints_taken")
        self._obs_restores = reg.counter("store.restores")
        self._obs_replayed = reg.counter("store.records_replayed")

    # -- owner registry ----------------------------------------------------

    def attach(self, owner: StateOwner) -> None:
        """Register a state owner. Name and record-kind claims must be
        unique — a clash means two owners would fight over the same
        snapshot section or journal records."""
        name = owner.store_name
        if name in self._owners:
            raise StoreError(f"a state owner named {name!r} is already "
                             f"attached to this store")
        for kind in owner.handled_kinds:
            claimed = self._by_kind.get(kind)
            if claimed is not None:
                raise StoreError(
                    f"record kind {kind!r} is already handled by "
                    f"owner {claimed.store_name!r}")
        self._owners[name] = owner
        for kind in owner.handled_kinds:
            self._by_kind[kind] = owner

    def owners(self) -> Tuple[StateOwner, ...]:
        return tuple(self._owners.values())

    # -- journal interface (backend-specific) ------------------------------

    def append(self, record: ChangeRecord) -> None:
        """Durably journal one change record (live path)."""
        raise NotImplementedError

    def records(self) -> List[ChangeRecord]:
        """The full journal, in append order."""
        raise NotImplementedError

    @property
    def record_count(self) -> int:
        """Number of records journaled so far."""
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered journal writes to the backing medium."""

    def close(self) -> None:
        """Flush and release the backing medium."""
        self.flush()

    # -- snapshot / restore / replay ---------------------------------------

    def checkpoint(self, label: str = "") -> Snapshot:
        """Dump every attached owner at the current journal position."""
        with _tracing.tracer().span("store.checkpoint", label=label):
            self.flush()
            state = {
                name: owner.state_dump()
                for name, owner in self._owners.items()
            }
            self._obs_checkpoints.inc()
            return Snapshot(
                version=SNAPSHOT_VERSION,
                journal_seq=self.record_count,
                state=state,
                label=label,
            )

    def restore(self, snapshot: Snapshot) -> None:
        """Load a snapshot into the attached owners.

        Every snapshot section must have a matching attached owner and
        vice versa — a partial restore would leave the owners mutually
        inconsistent, so a mismatch is an error, not a skip.
        """
        with _tracing.tracer().span("store.restore", label=snapshot.label):
            missing = sorted(set(snapshot.state) - set(self._owners))
            extra = sorted(set(self._owners) - set(snapshot.state))
            if missing or extra:
                raise StoreError(
                    f"snapshot/owner mismatch: snapshot-only sections "
                    f"{missing}, unattached-in-snapshot owners {extra}")
            for name, owner in self._owners.items():
                owner.state_load(dict(snapshot.state[name]))
            self._obs_restores.inc()

    def replay(self, records: Iterable[ChangeRecord]) -> int:
        """Fold journal records onto the attached owners, in order.

        Dispatches each record to the owner claiming its kind via
        ``apply_record`` — the no-journal, no-obs path — and returns
        how many records were applied. Records whose kind no attached
        owner claims are an error: silently skipping them would make
        "replay reproduced the end state" a lie.
        """
        with _tracing.tracer().span("store.replay"):
            applied = 0
            for record in records:
                owner = self._by_kind.get(record.kind)
                if owner is None:
                    raise StoreError(
                        f"no attached owner handles record kind "
                        f"{record.kind!r}")
                owner.apply_record(record)
                applied += 1
            if applied:
                self._obs_replayed.inc(applied)
            return applied


class MemoryStore(StateStore):
    """In-memory backend: the journal is a Python list.

    The default for simulations and tests — same coordination logic as
    the journaled backend, no I/O. State survives as long as the
    process does.
    """

    def __init__(self) -> None:
        super().__init__()
        self._records: List[ChangeRecord] = []

    def append(self, record: ChangeRecord) -> None:
        self._records.append(record)
        self._obs_appended.inc()

    def records(self) -> List[ChangeRecord]:
        return list(self._records)

    @property
    def record_count(self) -> int:
        return len(self._records)


class NullStore(StateStore):
    """Journal-discarding backend for bounded-memory scale runs.

    ``append`` counts the record and drops it. At the million-user tier
    a full sweep emits ~11M ``ImpressionRecorded`` records; a
    :class:`MemoryStore` would hold them all, which is exactly the
    per-impression state the compact delivery mode exists to avoid.
    Owners still attach and checkpoints still work (they dump owner
    state, not the journal) — only replay-from-journal is off the
    table, so :meth:`records` raises instead of returning an empty
    list that would make "replay reproduced the end state" a lie.

    ``discards_records`` advertises the drop to bulk producers: the
    batch sweep checks it and calls :meth:`note_discarded` with a whole
    round's impression count instead of materializing record objects
    that would be thrown away one by one.
    """

    discards_records = True

    def __init__(self) -> None:
        super().__init__()
        self._count = 0

    def append(self, record: ChangeRecord) -> None:
        self._count += 1
        self._obs_appended.inc()

    def note_discarded(self, count: int) -> None:
        """Account for ``count`` records that were never materialized.

        Keeps :attr:`record_count` and the ``store.records_appended``
        counter identical to ``count`` individual :meth:`append` calls.
        """
        if count < 0:
            raise ValueError("discarded record count cannot be negative")
        self._count += count
        self._obs_appended.inc(count)

    def records(self) -> List[ChangeRecord]:
        raise StoreError("null store discards journal records; "
                         "replay is unavailable")

    @property
    def record_count(self) -> int:
        return self._count


class JournalStore(StateStore):
    """Append-only JSONL write-ahead journal on disk.

    Each ``append`` encodes the record to one JSON line in append
    order; writes are **group-committed** — pushed to the OS every
    ``flush_every`` records rather than one syscall per append, the
    amortization that keeps the journaled backend inside its <= 15%
    overhead budget on the scale bench tier. Checkpoints, ``records()``,
    and ``close()`` always flush first, so snapshots and recovery reads
    never see a journal behind the in-memory state. ``fsync=True``
    switches to write-through + per-append fsync for durability against
    machine (not just process) crashes, at a heavy cost.

    Appends are serialized by a lock: the serving runtime's admission
    thread and shard worker can share one shard's store.
    """

    def __init__(self, path: str, fsync: bool = False,
                 flush_every: int = 64) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        super().__init__()
        self.path = path
        self._fsync = fsync
        self._flush_every = 1 if fsync else flush_every
        self._buffer: List[ChangeRecord] = []
        self._lock = threading.Lock()
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._count = 0
        if os.path.exists(path):
            _truncate_torn_tail(path)
            with open(path, "r", encoding="utf-8") as fh:
                self._count = sum(1 for line in fh if line.strip())
        self._fh = open(path, "a", encoding="utf-8")
        self._obs_bytes = obs_registry().counter("store.journal_bytes")

    def append(self, record: ChangeRecord) -> None:
        with self._lock:
            self._buffer.append(record)
            self._count += 1
            if len(self._buffer) >= self._flush_every:
                self._commit_locked()
        self._obs_appended.inc()

    def _commit_locked(self) -> None:
        """Encode buffered records as one batch, write, and push to the
        OS. Caller holds the lock.

        Encoding happens here, not in ``append``: records are frozen
        dataclasses so deferring is safe, and a tight batch loop keeps
        the encoder's tables cache-warm instead of paying a cold encode
        in the middle of every serving slot."""
        if self._buffer:
            batch = "".join([encode_line(r) for r in self._buffer])
            self._buffer.clear()
            self._fh.write(batch)
            self._obs_bytes.inc(len(batch))
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())

    def records(self) -> List[ChangeRecord]:
        self.flush()
        return JournalStore.read(self.path)

    @property
    def record_count(self) -> int:
        return self._count

    def flush(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._commit_locked()

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._commit_locked()
                self._fh.close()

    @staticmethod
    def read(path: str) -> List[ChangeRecord]:
        """Decode a journal file (usable without opening a store —
        recovery reads the dead shard's journal this way).

        Tolerates a **torn tail**: if the final non-blank line is
        unterminated or fails to decode — the signature of a writer
        killed mid-append — it is dropped with a warning instead of
        failing the whole recovery. The dropped suffix was never
        acknowledged (acks happen after flush writes the full line), so
        dropping it loses nothing a caller was promised. Corruption
        anywhere *before* the final line still raises
        :class:`~repro.errors.StoreError`: that is damage, not a torn
        write.
        """
        if not os.path.exists(path):
            return []
        out: List[ChangeRecord] = []
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
        for index, line in enumerate(lines):
            is_last = index == len(lines) - 1
            if is_last and not line.endswith("\n"):
                _log.warning(
                    "journal %s: dropping unterminated final line "
                    "(torn write, %d bytes)", path, len(line))
                break
            try:
                out.append(decode_line(line))
            except StoreError:
                if is_last:
                    _log.warning(
                        "journal %s: dropping undecodable final line "
                        "(torn write, %d bytes)", path, len(line))
                    break
                raise
        return out


def _truncate_torn_tail(path: str) -> None:
    """Chop an unterminated final line off a journal before reopening
    it for append.

    A writer killed mid-flush can leave a partial last line with no
    trailing newline; appending to it would weld the next record onto
    the garbage and corrupt *two* records. The partial line was never
    acknowledged (acks follow the flush that writes the newline), so
    truncating back to the last newline is lossless for every accepted
    write.
    """
    with open(path, "r+b") as fh:
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        if size == 0:
            return
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        data = fh.read()
        keep = data.rfind(b"\n") + 1
        _log.warning(
            "journal %s: truncating torn final line before reopen "
            "(%d bytes dropped)", path, size - keep)
        fh.truncate(keep)


def open_store(path: Optional[str] = None, fsync: bool = False) -> StateStore:
    """Convenience factory: a :class:`JournalStore` when given a path,
    else a :class:`MemoryStore`."""
    if path is None:
        return MemoryStore()
    return JournalStore(path, fsync=fsync)
