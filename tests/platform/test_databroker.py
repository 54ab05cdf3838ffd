"""Unit tests for brokers, ingest matching, and the shutdown switch."""

import dataclasses

import pytest

from repro.errors import CatalogError
from repro.platform.attributes import AttributeCatalog, make_binary
from repro.platform.attributes import AttributeSource
from repro.platform.databroker import (
    BrokerNetwork,
    DataBroker,
    ingest_broker_feed,
    shutdown_partner_categories,
)
from repro.platform.colstore import ColumnarUserStore
from repro.platform.users import UserProfile


def _catalog():
    return AttributeCatalog(attributes=[
        make_binary("pc-networth-006", "Net worth: $1M - $2M",
                    ("Financial",), source=AttributeSource.PARTNER,
                    broker="Acxiom"),
        make_binary("pc-travel-000", "Frequent flyer", ("Travel",),
                    source=AttributeSource.PARTNER, broker="Epsilon"),
        make_binary("pf-interest-000", "Interested in: Jazz",
                    ("Interests",)),
    ])


def _store_with_user(email="a@b.com"):
    store = ColumnarUserStore()
    store.add(UserProfile(user_id="u1"))
    store.attach_pii("u1", "email", email)
    return store


class TestIngest:
    def test_matching_record_sets_attributes(self):
        store = _store_with_user()
        broker = DataBroker(name="Acxiom")
        broker.add_record(
            "r1", raw_pii=[("email", "a@b.com")],
            attributes=[("pc-networth-006", None)],
        )
        report = ingest_broker_feed(broker, store, _catalog())
        assert report.records_matched == 1
        assert report.attributes_set == 1
        assert store.get("u1").has_attribute("pc-networth-006")

    def test_unmatched_record_reported(self):
        store = _store_with_user()
        broker = DataBroker(name="Acxiom")
        broker.add_record(
            "r1", raw_pii=[("email", "stranger@nowhere.com")],
            attributes=[("pc-networth-006", None)],
        )
        report = ingest_broker_feed(broker, store, _catalog())
        assert report.records_matched == 0
        assert report.unmatched_record_ids == ["r1"]
        assert not store.get("u1").has_attribute("pc-networth-006")

    def test_any_pii_matches(self):
        """Brokers match greedily on any of the record's PII values."""
        store = _store_with_user()
        store.attach_pii("u1", "phone", "6175550100")
        broker = DataBroker(name="Acxiom")
        broker.add_record(
            "r1",
            raw_pii=[("email", "other@x.com"), ("phone", "617-555-0100")],
            attributes=[("pc-travel-000", None)],
        )
        report = ingest_broker_feed(broker, store, _catalog())
        assert report.records_matched == 1

    def test_broker_cannot_set_platform_attribute(self):
        store = _store_with_user()
        broker = DataBroker(name="Acxiom")
        broker.add_record(
            "r1", raw_pii=[("email", "a@b.com")],
            attributes=[("pf-interest-000", None)],
        )
        with pytest.raises(CatalogError):
            ingest_broker_feed(broker, store, _catalog())

    def test_match_rate(self):
        store = _store_with_user()
        broker = DataBroker(name="Acxiom")
        broker.add_record("r1", [("email", "a@b.com")],
                          [("pc-travel-000", None)])
        broker.add_record("r2", [("email", "nobody@x.com")],
                          [("pc-travel-000", None)])
        report = ingest_broker_feed(broker, store, _catalog())
        assert report.match_rate == 0.5

    def test_empty_broker_zero_rate(self):
        report = ingest_broker_feed(
            DataBroker(name="Empty"), ColumnarUserStore(), _catalog()
        )
        assert report.match_rate == 0.0


class TestBrokerNetwork:
    def test_broker_get_or_create(self):
        network = BrokerNetwork()
        assert network.broker("Acxiom") is network.broker("Acxiom")
        assert len(network.brokers()) == 1

    def test_ingest_all(self):
        store = _store_with_user()
        network = BrokerNetwork()
        network.broker("Acxiom").add_record(
            "r1", [("email", "a@b.com")], [("pc-networth-006", None)])
        network.broker("Epsilon").add_record(
            "r2", [("email", "a@b.com")], [("pc-travel-000", None)])
        reports = network.ingest_all(store, _catalog())
        assert len(reports) == 2
        assert store.get("u1").has_attribute("pc-travel-000")


    def test_raising_record_stays_pending(self):
        """Records before a bad one are joined once; the bad one raises
        on every call until it is fixed."""
        store = _store_with_user()
        network = BrokerNetwork()
        broker = network.broker("Acxiom")
        broker.add_record("r1", [("email", "a@b.com")],
                          [("pc-networth-006", None)])
        broker.add_record("r2", [("email", "a@b.com")],
                          [("pf-interest-000", None)])
        for _ in range(2):
            with pytest.raises(CatalogError):
                network.ingest_all(store, _catalog())
        broker.records[1] = dataclasses.replace(
            broker.records[1], attributes=(("pc-travel-000", None),))
        report, = network.ingest_all(store, _catalog())
        assert report.records_seen == 1
        assert store.get("u1").has_attribute("pc-travel-000")


class TestShutdown:
    """Paper footnote 2: partner categories shut down in 2018."""

    def test_removes_partner_attrs_from_catalog(self):
        catalog = _catalog()
        removed = shutdown_partner_categories(
            catalog, ColumnarUserStore(), BrokerNetwork()
        )
        assert sorted(removed) == ["pc-networth-006", "pc-travel-000"]
        assert len(catalog.partner_attributes()) == 0
        assert "pf-interest-000" in catalog  # platform attrs survive

    def test_profiles_retained_by_default(self):
        """"It is unclear whether Facebook continues to internally retain
        attributes sourced from data brokers" — default: retained."""
        catalog = _catalog()
        store = _store_with_user()
        store.get("u1").set_attribute(catalog.get("pc-networth-006"))
        shutdown_partner_categories(catalog, store, BrokerNetwork())
        assert store.get("u1").has_attribute("pc-networth-006")

    def test_scrub_profiles_option(self):
        catalog = _catalog()
        store = _store_with_user()
        store.get("u1").set_attribute(catalog.get("pc-networth-006"))
        shutdown_partner_categories(
            catalog, store, BrokerNetwork(), scrub_profiles=True
        )
        assert not store.get("u1").has_attribute("pc-networth-006")

    def test_network_flag_flipped(self):
        network = BrokerNetwork()
        shutdown_partner_categories(_catalog(), ColumnarUserStore(), network)
        assert not network.partner_categories_active
