"""Simulation trace export/import (JSON Lines).

Benchmarks and examples sometimes need to hand a run's raw events to
external tooling (plotting, spreadsheets, diffing two configurations).
A trace is a list of flat JSON records — impressions, clicks, charges,
pixel events, and web-log entries — with a header line carrying run
metadata. Everything here is plain data the respective parties could
log anyway; no platform-internal secrets are added (the impression and
click logs are platform-internal and marked as such in their records).

The as-it-happened log merges in, too: the state store's change
records (``platform.store.records()``, via :func:`merge_event_stream`)
interleave with the snapshot records, tagged with their own visibility,
so one trace file can carry both the post-hoc state dump and the
journal of every impression and click in commit order.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.platform.platform import AdPlatform
from repro.platform.web import Website
from repro.store.records import ChangeRecord, record_to_dict

_SCHEMA_VERSION = 1


@dataclass
class Trace:
    """An in-memory trace: a header plus flat event records."""

    header: Dict[str, object] = field(default_factory=dict)
    events: List[Dict[str, object]] = field(default_factory=list)

    def of_kind(self, kind: str) -> List[Dict[str, object]]:
        return [e for e in self.events if e.get("kind") == kind]

    def __len__(self) -> int:
        return len(self.events)


def capture_trace(platform: AdPlatform,
                  websites: Optional[List[Website]] = None) -> Trace:
    """Snapshot a platform's (and optionally some websites') event logs."""
    trace = Trace(header={
        "schema": _SCHEMA_VERSION,
        "platform": platform.name,
        "users": len(platform.users),
        "ads": len(platform.inventory.ads()),
    })
    impressions = platform.delivery.impressions()
    for impression in impressions:
        trace.events.append({
            "kind": "impression",
            "visibility": "platform-internal",
            "seq": impression.seq,
            "ad_id": impression.ad_id,
            "account_id": impression.account_id,
            "user_id": impression.user_id,
            "price": impression.price,
        })
    for click in platform.delivery.clicks():
        trace.events.append({
            "kind": "click",
            "visibility": "platform-internal",
            "ad_id": click.ad_id,
            "user_id": click.user_id,
            "click_seq": click.click_seq,
        })
    # Every delivered impression is billed at its price: the ledger
    # keeps aggregates only, so each charge is read off its impression.
    for impression in impressions:
        trace.events.append({
            "kind": "charge",
            "visibility": "advertiser",
            "ad_id": impression.ad_id,
            "account_id": impression.account_id,
            "amount": impression.price,
            "impression_seq": impression.seq,
        })
    for website in websites or []:
        for entry in website.access_log:
            trace.events.append({
                "kind": "web_visit",
                "visibility": "site-owner",
                "domain": website.domain,
                "path": entry.path,
                "cookie_id": entry.cookie_id,
                "visit_seq": entry.visit_seq,
            })
    return trace


def merge_event_stream(
    trace: Trace,
    records: Iterable[Union[ChangeRecord, Dict[str, object]]],
) -> Trace:
    """Fold a change-record stream into a captured trace (in place).

    ``records`` may be typed :class:`~repro.store.records.ChangeRecord`
    objects (e.g. ``platform.store.records()``) or already-flat dicts
    (e.g. the parsed lines of a journal file). Each lands as one trace
    record under its own kind, tagged ``"visibility": "journal"`` so
    downstream tooling can separate the commit-order log from the
    snapshot records (journal records are platform-internal: they carry
    user ids). Returns the trace for chaining.
    """
    for entry in records:
        record = record_to_dict(entry) if isinstance(entry, ChangeRecord) \
            else dict(entry)
        record.setdefault("visibility", "journal")
        if record.get("kind") == "header":
            raise ValueError("event stream cannot carry a header record")
        trace.events.append(record)
    return trace


def dump_jsonl(trace: Trace) -> str:
    """Serialize a trace to a JSONL string (header first)."""
    buffer = io.StringIO()
    buffer.write(json.dumps({"kind": "header", **trace.header}))
    buffer.write("\n")
    for event in trace.events:
        buffer.write(json.dumps(event))
        buffer.write("\n")
    return buffer.getvalue()


def load_jsonl(text: str) -> Trace:
    """Parse a JSONL trace string back into a :class:`Trace`.

    Raises :class:`ValueError` on a missing/invalid header or schema
    mismatch, so silently-corrupt traces fail loudly.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty trace")
    header = json.loads(lines[0])
    if header.get("kind") != "header":
        raise ValueError("trace must start with a header record")
    if header.get("schema") != _SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trace schema {header.get('schema')!r}"
        )
    header.pop("kind")
    trace = Trace(header=header)
    for line in lines[1:]:
        trace.events.append(json.loads(line))
    return trace


def spend_by_day_of_seq(trace: Trace, seqs_per_day: int = 1000) -> Dict[int, float]:
    """Example downstream analysis: bucket charges by impression seq."""
    if seqs_per_day <= 0:
        raise ValueError("seqs_per_day must be positive")
    buckets: Dict[int, float] = {}
    for event in trace.of_kind("charge"):
        bucket = int(event["impression_seq"]) // seqs_per_day
        buckets[bucket] = buckets.get(bucket, 0.0) + float(event["amount"])
    return buckets
