"""Typed change records: the journal's vocabulary.

Every mutation of platform state — an impression entering a feed, a
click, a budget charge, an audience coming into existence, a serving
slot being claimed — is described by exactly
one frozen record type from this module. The records are the unit of
everything the state layer does: live mutation appends them to a
:class:`~repro.store.store.StateStore`, snapshots serialize them,
``replay()`` folds them back, and shard migration ships them between
engines. ``docs/state.md`` documents the catalog and is diffed against
:data:`RECORD_TYPES` by ``tests/store/test_docs_sync.py``.

Two of these double as the platform's own log entry types:
:class:`ImpressionRecorded` *is* ``repro.platform.delivery.Impression``
and :class:`ClickRecorded` *is* ``Click`` (re-exported under the old
names), so journaling an impression costs no second object.

Wire format: one JSON object per record, ``{"kind": ..., <fields>}``,
compact separators, one record per line (JSONL). Tuples round-trip as
JSON arrays; :func:`decode_record` converts them back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Callable, ClassVar, Dict, Tuple, Type

from repro.errors import StoreError


@dataclass(frozen=True)
class ChangeRecord:
    """Base class for journal records. Subclasses set ``kind``."""

    kind: ClassVar[str] = ""


@dataclass(frozen=True)
class ImpressionRecorded(ChangeRecord):
    """One delivered impression (also the delivery engine's log entry).

    Folding it rebuilds the impression log, the per-ad reporting views,
    the user's feed entry (the creative is re-read from the shared ad
    inventory), and the user's bit in the ad's shown bitset (the
    frequency cap for ``(ad_id, user_id)``).
    """

    kind: ClassVar[str] = "impression"

    seq: int
    ad_id: str
    account_id: str
    user_id: str
    price: float


@dataclass(frozen=True)
class ClickRecorded(ChangeRecord):
    """One ad click (also the delivery engine's click-log entry)."""

    kind: ClassVar[str] = "click"

    ad_id: str
    user_id: str
    click_seq: int


@dataclass(frozen=True)
class ChargeRecorded(ChangeRecord):
    """One billed impression: ``amount`` left ``account_id``'s budget."""

    kind: ClassVar[str] = "charge"

    ad_id: str
    account_id: str
    amount: float
    impression_seq: int


@dataclass(frozen=True)
class AudienceDelta(ChangeRecord):
    """An audience coming into existence (config + frozen membership).

    Carries everything needed to rebuild the audience without the
    original creation context: dynamic kinds (pixel, page, keyword,
    lookalike) store their resolution config, PII audiences store the
    matched member ids frozen at upload time. Folding an identical
    delta onto a registry that already holds the audience is a no-op
    (replays are idempotent); a conflicting payload for the same id is
    an error.
    """

    kind: ClassVar[str] = "audience_delta"

    audience_id: str
    owner_account_id: str
    audience_kind: str
    name: str = ""
    member_ids: Tuple[str, ...] = ()
    pixel_id: str = ""
    page_id: str = ""
    phrases: Tuple[str, ...] = ()
    seed_audience_id: str = ""
    similarity_threshold: int = 0


@dataclass(frozen=True)
class SlotClaimed(ChangeRecord):
    """A user's next ``slots`` serving-slot indices were claimed.

    Serve-layer record: slot indices key the order-independent
    competing bids (:class:`repro.workloads.competition.KeyedCompetition`),
    so a recovered shard must resume each user's slot counter exactly
    where the dead shard left it — otherwise post-recovery auctions see
    different competition than an uninterrupted run.
    """

    kind: ClassVar[str] = "slot_claim"

    user_id: str
    slots: int


@dataclass(frozen=True)
class OrgCreated(ChangeRecord):
    """A gateway tenant org came into existence.

    Gateway-tenancy record: carries the platform ad-account id the org
    was given, so replaying the gateway journal onto a freshly rebuilt
    world re-creates the account and verifies the id sequence matches.
    """

    kind: ClassVar[str] = "org_created"

    org_id: str
    name: str
    account_id: str
    budget: float


@dataclass(frozen=True)
class CampaignCreated(ChangeRecord):
    """A campaign was created under a gateway org."""

    kind: ClassVar[str] = "campaign_created"

    org_id: str
    campaign_id: str
    name: str


@dataclass(frozen=True)
class CampaignPaused(ChangeRecord):
    """Every ad in a gateway org's campaign was paused."""

    kind: ClassVar[str] = "campaign_paused"

    org_id: str
    campaign_id: str


@dataclass(frozen=True)
class AudienceCreated(ChangeRecord):
    """A keyword audience was created through the gateway API.

    Distinct from :class:`AudienceDelta` (the engine-side membership
    snapshot): this is the *tenancy* fact — which org asked for which
    phrases — and replaying it re-runs the platform's audience build.
    """

    kind: ClassVar[str] = "audience_created"

    org_id: str
    audience_id: str
    name: str
    phrases: Tuple[str, ...] = ()


#: kind -> record class; the authoritative catalog (docs-sync enforced).
RECORD_TYPES: Dict[str, Type[ChangeRecord]] = {
    cls.kind: cls
    for cls in (
        ImpressionRecorded,
        ClickRecorded,
        ChargeRecorded,
        AudienceDelta,
        SlotClaimed,
        OrgCreated,
        CampaignCreated,
        CampaignPaused,
        AudienceCreated,
    )
}

#: Per-class field-name tuples, resolved once (record_to_dict hot path).
_FIELDS: Dict[Type[ChangeRecord], Tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls))
    for cls in RECORD_TYPES.values()
}

#: One shared compact encoder: ``json.dumps(..., separators=...)``
#: builds a fresh JSONEncoder per call, which is most of the encode
#: cost on the journal's append path.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode

#: Per-class line prefix '{"kind":"<kind>",' — lets encode_line emit
#: kind-first without building a merged dict per record.
_PREFIXES: Dict[Type[ChangeRecord], str] = {
    cls: '{"kind":%s,' % _ENCODE(kind)
    for kind, cls in RECORD_TYPES.items()
}

# Hand-rolled encoders for the kinds delivery emits on every single
# impression — these dominate the journal's append cost, and skipping
# the generic dict walk is ~3x faster. ``_esc`` is the same C string
# escaper json.dumps uses and ``float.__repr__`` is json's float
# formatter, so the output is byte-identical to the generic path
# (pinned by a test). Rare kinds (audience deltas, cap fixups) stay on
# the generic encoder.
_esc = json.encoder.encode_basestring_ascii
_float = float.__repr__


def _encode_impression(r: "ImpressionRecorded") -> str:
    return (f'{{"kind":"impression","seq":{r.seq},"ad_id":{_esc(r.ad_id)},'
            f'"account_id":{_esc(r.account_id)},"user_id":{_esc(r.user_id)},'
            f'"price":{_float(r.price)}}}\n')


def _encode_click(r: "ClickRecorded") -> str:
    return (f'{{"kind":"click","ad_id":{_esc(r.ad_id)},'
            f'"user_id":{_esc(r.user_id)},"click_seq":{r.click_seq}}}\n')


def _encode_charge(r: "ChargeRecorded") -> str:
    return (f'{{"kind":"charge","ad_id":{_esc(r.ad_id)},'
            f'"account_id":{_esc(r.account_id)},"amount":{_float(r.amount)},'
            f'"impression_seq":{r.impression_seq}}}\n')


def _encode_slot_claim(r: "SlotClaimed") -> str:
    return f'{{"kind":"slot_claim","user_id":{_esc(r.user_id)},"slots":{r.slots}}}\n'


_FAST_ENCODERS: Dict[Type[ChangeRecord], Callable[[Any], str]] = {
    ImpressionRecorded: _encode_impression,
    ClickRecorded: _encode_click,
    ChargeRecorded: _encode_charge,
    SlotClaimed: _encode_slot_claim,
}


def record_to_dict(record: ChangeRecord) -> Dict[str, Any]:
    """JSON-safe dict form, ``kind`` first. Tuples stay tuples (json
    serializes them as arrays)."""
    names = _FIELDS.get(type(record))
    if names is None:
        raise StoreError(
            f"unregistered record type {type(record).__name__}"
        )
    out: Dict[str, Any] = {"kind": record.kind}
    for name in names:
        out[name] = getattr(record, name)
    return out


def record_from_dict(data: Dict[str, Any]) -> ChangeRecord:
    """Rebuild a record from its dict form (inverse of
    :func:`record_to_dict`); JSON arrays become tuples."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    cls = RECORD_TYPES.get(kind)  # type: ignore[arg-type]
    if cls is None:
        raise StoreError(f"unknown record kind {kind!r}")
    for key, value in payload.items():
        if isinstance(value, list):
            payload[key] = tuple(value)
    try:
        return cls(**payload)
    except TypeError as exc:
        raise StoreError(f"malformed {kind!r} record: {exc}") from None


def encode_line(record: ChangeRecord) -> str:
    """One JSONL line (newline included) for the journal.

    Per-impression kinds take a hand-rolled formatter; everything else
    encodes the dataclass ``__dict__`` (declaration order, matching
    :func:`record_to_dict`) behind a precomputed ``kind`` prefix. Both
    paths produce identical bytes.
    """
    fast = _FAST_ENCODERS.get(type(record))
    if fast is not None:
        return fast(record)
    prefix = _PREFIXES.get(type(record))
    if prefix is None:
        raise StoreError(
            f"unregistered record type {type(record).__name__}"
        )
    body = _ENCODE(record.__dict__)
    if body == "{}":  # no fields beyond kind (not the case today)
        return prefix[:-1] + "}\n"
    return prefix + body[1:] + "\n"


def decode_line(line: str) -> ChangeRecord:
    """Parse one journal line back into its record."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise StoreError(f"corrupt journal line: {exc}") from None
    if not isinstance(data, dict):
        raise StoreError("corrupt journal line: not a JSON object")
    return record_from_dict(data)
