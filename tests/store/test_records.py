"""The record codec: dict/JSONL round-trips and corruption handling."""

import json

import pytest

from repro.errors import StoreError
from repro.store import (
    RECORD_TYPES,
    AudienceCreated,
    AudienceDelta,
    CampaignCreated,
    CampaignPaused,
    ChargeRecorded,
    ClickRecorded,
    ImpressionRecorded,
    OrgCreated,
    SlotClaimed,
)
from repro.store.records import (
    decode_line,
    encode_line,
    record_from_dict,
    record_to_dict,
)

SAMPLES = [
    ImpressionRecorded(seq=3, ad_id="ad-1", account_id="acct-1",
                       user_id="u-1", price=0.002),
    ClickRecorded(ad_id="ad-1", user_id="u-1", click_seq=0),
    ChargeRecorded(ad_id="ad-1", account_id="acct-1", amount=0.002,
                   impression_seq=3),
    AudienceDelta(audience_id="aud-1", owner_account_id="acct-1",
                  audience_kind="pii", name="uploaded",
                  member_ids=("u-1", "u-2")),
    SlotClaimed(user_id="u-1", slots=3),
    OrgCreated(org_id="org-1", name="acme", account_id="acct-9",
               budget=500.0),
    CampaignCreated(org_id="org-1", campaign_id="camp-1", name="spring"),
    CampaignPaused(org_id="org-1", campaign_id="camp-1"),
    AudienceCreated(org_id="org-1", audience_id="aud-7", name="runners",
                    phrases=("running", "marathon")),
]


class TestCatalog:
    def test_every_kind_registered_once(self):
        kinds = [cls.kind for cls in RECORD_TYPES.values()]
        assert sorted(kinds) == sorted(set(kinds))
        assert set(RECORD_TYPES) == {
            "impression", "click", "charge", "audience_delta",
            "slot_claim", "org_created", "campaign_created",
            "campaign_paused", "audience_created",
        }

    def test_samples_cover_every_kind(self):
        assert {type(r).kind for r in SAMPLES} == set(RECORD_TYPES)


class TestRoundTrip:
    @pytest.mark.parametrize("record", SAMPLES,
                             ids=[type(r).kind for r in SAMPLES])
    def test_dict_round_trip(self, record):
        assert record_from_dict(record_to_dict(record)) == record

    @pytest.mark.parametrize("record", SAMPLES,
                             ids=[type(r).kind for r in SAMPLES])
    def test_line_round_trip(self, record):
        line = encode_line(record)
        assert line.endswith("\n")
        assert decode_line(line) == record

    def test_kind_is_first_key_on_the_wire(self):
        line = encode_line(SAMPLES[0])
        assert line.startswith('{"kind":"impression"')

    @pytest.mark.parametrize("record", SAMPLES,
                             ids=[type(r).kind for r in SAMPLES])
    def test_encode_matches_generic_json(self, record):
        # encode_line has hand-rolled fast paths for the hot kinds;
        # they must stay byte-identical to the generic encoder.
        expected = json.dumps(record_to_dict(record),
                              separators=(",", ":")) + "\n"
        assert encode_line(record) == expected

    def test_fast_path_escapes_strings(self):
        hostile = ImpressionRecorded(seq=1, ad_id='ad-"quoted"\\',
                                     account_id="acct-\n", user_id="u\t1",
                                     price=1.5)
        assert decode_line(encode_line(hostile)) == hostile

    def test_tuples_survive_as_tuples(self):
        delta = record_from_dict(
            json.loads(encode_line(
                next(r for r in SAMPLES if isinstance(r, AudienceDelta))))
        )
        assert isinstance(delta, AudienceDelta)
        assert delta.member_ids == ("u-1", "u-2")


class TestCorruption:
    def test_unknown_kind(self):
        with pytest.raises(StoreError, match="unknown record kind"):
            record_from_dict({"kind": "tectonic_shift"})

    def test_missing_kind(self):
        with pytest.raises(StoreError, match="unknown record kind"):
            record_from_dict({"ad_id": "ad-1"})

    def test_malformed_fields(self):
        with pytest.raises(StoreError, match="malformed"):
            record_from_dict({"kind": "click", "ad_id": "ad-1"})

    def test_extra_fields_rejected(self):
        payload = record_to_dict(SAMPLES[1])
        payload["surprise"] = 1
        with pytest.raises(StoreError, match="malformed"):
            record_from_dict(payload)

    def test_corrupt_json_line(self):
        with pytest.raises(StoreError, match="corrupt journal line"):
            decode_line("{not json")

    def test_non_object_line(self):
        with pytest.raises(StoreError, match="not a JSON object"):
            decode_line("[1, 2, 3]")

    def test_unregistered_record_type(self):
        class Rogue:
            kind = "rogue"

        with pytest.raises(StoreError, match="unregistered"):
            record_to_dict(Rogue())
