"""Data brokers and the partner-category pipeline.

Partner categories are targeting attributes "obtained through partnerships
with third parties" (paper section 2.1): data brokers such as Acxiom and
Oracle Data Cloud compile consumer records offline (public records,
purchase data, warranty cards, ...) keyed by PII, and the platform joins
those records onto its user profiles by matching PII.

The pipeline matters for the paper's validation result: one author had
broker records (long US residence → rich offline footprint → eleven partner
attributes), the other — a recent arrival — had none, and therefore
received only the control ad. The simulator reproduces exactly this: a
:class:`DataBroker` holds :class:`BrokerRecord` rows keyed by hashed PII;
:func:`ingest_broker_feed` matches them onto platform users and sets the
corresponding partner attributes.

Footnote 2 of the paper notes Facebook later shut partner categories down;
:func:`shutdown_partner_categories` models that switch so the effect on
Treads coverage can be measured (benchmark E12 ablation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import CatalogError
from repro.hashing import hash_pii
from repro.platform.attributes import AttributeCatalog, AttributeSource
from repro.platform.colstore import ColumnarUserStore


@dataclass(frozen=True)
class BrokerRecord:
    """One consumer record held by a data broker.

    ``pii`` carries ``(kind, digest)`` pairs identifying the consumer;
    ``attributes`` maps partner attribute ids to an optional value (None
    for binary attributes).
    """

    record_id: str
    pii: Tuple[Tuple[str, str], ...]
    attributes: Tuple[Tuple[str, Optional[str]], ...]


@dataclass
class DataBroker:
    """A data broker: a named bag of consumer records.

    Records are appended by workload generation;
    :meth:`BrokerNetwork.ingest_all` joins the new ones onto users.
    """

    name: str
    records: List[BrokerRecord] = field(default_factory=list)

    def add_record(
        self,
        record_id: str,
        raw_pii: Iterable[Tuple[str, str]],
        attributes: Iterable[Tuple[str, Optional[str]]],
    ) -> BrokerRecord:
        """Add a record from raw PII (hashed internally)."""
        hashed = tuple(
            (kind, hash_pii(kind, value)) for kind, value in raw_pii
        )
        record = BrokerRecord(
            record_id=record_id,
            pii=hashed,
            attributes=tuple(attributes),
        )
        self.records.append(record)
        return record


@dataclass
class IngestReport:
    """Outcome of one broker-feed ingest run."""

    broker: str
    records_seen: int = 0
    records_matched: int = 0
    attributes_set: int = 0
    unmatched_record_ids: List[str] = field(default_factory=list)

    @property
    def match_rate(self) -> float:
        if self.records_seen == 0:
            return 0.0
        return self.records_matched / self.records_seen


def ingest_broker_feed(
    broker: DataBroker,
    users: ColumnarUserStore,
    catalog: AttributeCatalog,
) -> IngestReport:
    """Join one broker's records onto platform users by hashed PII.

    A record matches a user when *any* of its hashed PII values appears on
    the user's profile (platforms match greedily to maximise audience
    sizes). Matched records set their partner attributes on the user's
    profile. Attributes whose id is not a PARTNER attribute in the catalog
    are rejected loudly — brokers cannot inject platform-computed
    attributes.
    """
    report = IngestReport(broker=broker.name)
    for record in broker.records:
        _ingest_record(broker.name, record, users, catalog, report)
    return report


def _ingest_record(
    broker_name: str,
    record: BrokerRecord,
    users: ColumnarUserStore,
    catalog: AttributeCatalog,
    report: IngestReport,
) -> None:
    """Join one record onto every user sharing any of its PII values,
    tallied into ``report``."""
    report.records_seen += 1
    matched_users: Set[str] = set()
    for kind, digest in record.pii:
        matched_users |= users.users_matching_pii(kind, digest)
    if not matched_users:
        report.unmatched_record_ids.append(record.record_id)
        return
    report.records_matched += 1
    views = [users.get(user_id) for user_id in matched_users]
    for attr_id, value in record.attributes:
        attribute = catalog.get(attr_id)
        if attribute.source is not AttributeSource.PARTNER:
            raise CatalogError(
                f"broker {broker_name!r} tried to set non-partner "
                f"attribute {attr_id!r}"
            )
        for view in views:
            view.set_attribute(attribute, value)
        report.attributes_set += len(views)


class BrokerNetwork:
    """All brokers feeding one platform, plus the shutdown switch."""

    def __init__(self) -> None:
        self._brokers: Dict[str, DataBroker] = {}
        # Per broker, how many of its records are already joined.
        self._ingested: Dict[str, int] = {}
        self.partner_categories_active = True

    def broker(self, name: str) -> DataBroker:
        """Get-or-create a broker by name."""
        if name not in self._brokers:
            self._brokers[name] = DataBroker(name=name)
        return self._brokers[name]

    def brokers(self) -> List[DataBroker]:
        return list(self._brokers.values())

    def ingest_all(
        self, users: ColumnarUserStore, catalog: AttributeCatalog
    ) -> List[IngestReport]:
        """Join every broker's pending records — those added since the
        last call — onto user profiles; one report per broker.

        Each record counts as joined once it has been applied, so a
        record that raises stays pending and raises again next call.
        """
        reports = []
        for name, broker in self._brokers.items():
            report = IngestReport(broker=name)
            reports.append(report)
            done = self._ingested.get(name, 0)
            for record in broker.records[done:]:
                _ingest_record(name, record, users, catalog, report)
                done += 1
                self._ingested[name] = done
        return reports


def shutdown_partner_categories(
    catalog: AttributeCatalog,
    users: ColumnarUserStore,
    network: BrokerNetwork,
    scrub_profiles: bool = False,
) -> List[str]:
    """Model Facebook's 2018 partner-category shutdown (paper footnote 2).

    Removes all PARTNER attributes from the advertiser-facing catalog and
    flips the network's active flag. The paper notes it is "unclear whether
    Facebook continues to internally retain attributes sourced from data
    brokers" — so by default user profiles keep the data (``scrub_profiles
    =False``), and only the *targeting surface* disappears; pass True to
    model a full scrub. Returns the removed attribute ids.
    """
    removed = [a.attr_id for a in catalog.attributes if a.is_partner]
    for attr_id in removed:
        catalog.remove(attr_id)
    if scrub_profiles:
        for profile in users:
            for attr_id in removed:
                profile.clear_attribute(attr_id)
    network.partner_categories_active = False
    return removed
