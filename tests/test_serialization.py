"""Tests for trace JSON (de)serialisation."""

import json

import pytest
from hypothesis import given, settings

from repro.events.serialization import (
    MAX_TRACE_BYTES,
    PayloadTooLargeError,
    SchemaVersionError,
    dumps,
    load,
    loads,
    save,
    trace_from_dict,
    trace_to_dict,
)
from repro.events.trace import TraceError
from repro.simulation.workloads import random_trace

from .strategies import traces


class TestRoundTrip:
    def test_simple_round_trip(self):
        tr = random_trace(3, events_per_node=8, msg_prob=0.4, seed=5)
        assert loads(dumps(tr)) == tr

    @settings(max_examples=40, deadline=None)
    @given(tr=traces())
    def test_property_round_trip(self, tr):
        assert trace_from_dict(trace_to_dict(tr)) == tr

    def test_file_round_trip(self, tmp_path):
        tr = random_trace(2, events_per_node=5, seed=1)
        path = tmp_path / "trace.json"
        save(tr, str(path), indent=2)
        assert load(str(path)) == tr

    def test_metadata_preserved(self):
        from repro.events.builder import TraceBuilder

        b = TraceBuilder(1)
        b.internal(0, label="boot", time=2.5, payload={"a": [1, 2]})
        tr = b.build()
        back = loads(dumps(tr))
        ev = back.event((0, 1))
        assert ev.label == "boot"
        assert ev.time == 2.5
        assert ev.payload == {"a": [1, 2]}

    def test_unserialisable_payload_dropped(self):
        from repro.events.builder import TraceBuilder

        b = TraceBuilder(1)
        b.internal(0, payload=object())
        back = loads(dumps(b.build()))
        assert back.event((0, 1)).payload is None


class TestMalformedInput:
    def test_bad_version(self):
        with pytest.raises(TraceError, match="version"):
            trace_from_dict({"version": 99})

    def test_missing_fields(self):
        with pytest.raises(TraceError, match="malformed"):
            trace_from_dict({"version": 1})

    def test_node_count_mismatch(self):
        with pytest.raises(TraceError, match="event lists"):
            trace_from_dict(
                {"version": 1, "num_nodes": 2, "events": [[]], "messages": []}
            )

    def test_unknown_kind(self):
        data = {
            "version": 1,
            "num_nodes": 1,
            "events": [[{"kind": "quantum"}]],
            "messages": [],
        }
        with pytest.raises(TraceError, match="unknown event kind"):
            trace_from_dict(data)

    def test_malformed_message(self):
        data = {
            "version": 1,
            "num_nodes": 1,
            "events": [[{"kind": "send"}]],
            "messages": [[[0, 1]]],
        }
        with pytest.raises(TraceError, match="malformed message"):
            trace_from_dict(data)

    def test_non_object_event_record(self):
        data = {"version": 1, "num_nodes": 1, "events": [[1]], "messages": []}
        with pytest.raises(TraceError, match="malformed event record"):
            trace_from_dict(data)

    def test_non_integer_num_nodes(self):
        data = {"version": 1, "num_nodes": "x", "events": [], "messages": []}
        with pytest.raises(TraceError, match="malformed"):
            trace_from_dict(data)

    def test_non_integer_message_endpoint(self):
        data = {
            "version": 1,
            "num_nodes": 2,
            "events": [[{"kind": "send"}], [{"kind": "recv"}]],
            "messages": [[[0, 1], ["b", 1]]],
        }
        with pytest.raises(TraceError, match="malformed message"):
            trace_from_dict(data)

    def test_inconsistent_message_becomes_trace_error(self):
        data = {
            "version": 1,
            "num_nodes": 1,
            "events": [[{"kind": "send"}]],
            "messages": [[[0, 1], [0, 9]]],
        }
        with pytest.raises(TraceError):
            trace_from_dict(data)

    def test_json_structure(self):
        tr = random_trace(2, events_per_node=3, seed=0)
        data = json.loads(dumps(tr))
        assert data["version"] == 1
        assert data["num_nodes"] == 2
        assert len(data["events"]) == 2


class TestLoadsGuard:
    """The wire-facing ``loads`` guard: size ceiling + typed errors."""

    def test_round_trip_under_limit(self):
        tr = random_trace(3, events_per_node=6, msg_prob=0.4, seed=9)
        text = dumps(tr)
        assert loads(text, max_bytes=len(text)) == tr
        assert loads(text, max_bytes=MAX_TRACE_BYTES) == tr

    def test_oversized_payload_rejected_before_parsing(self):
        tr = random_trace(2, events_per_node=4, seed=3)
        text = dumps(tr)
        with pytest.raises(PayloadTooLargeError, match="byte"):
            loads(text, max_bytes=len(text) - 1)
        # even syntactically invalid JSON is rejected at the size gate,
        # proving the check runs before the parser
        with pytest.raises(PayloadTooLargeError):
            loads("{" * 100, max_bytes=10)

    def test_size_counts_encoded_bytes_for_str(self):
        # one multi-byte character: 1 code point, 3 UTF-8 bytes
        payload = '"€"'
        with pytest.raises(PayloadTooLargeError):
            loads(payload, max_bytes=len(payload))  # 3 < 5 bytes

    def test_bytes_input_round_trip(self):
        tr = random_trace(2, events_per_node=5, msg_prob=0.5, seed=7)
        raw = dumps(tr).encode("utf-8")
        assert loads(raw, max_bytes=len(raw)) == tr

    def test_schema_version_typed_error(self):
        with pytest.raises(SchemaVersionError, match="version"):
            loads('{"version": 99}')

    def test_malformed_json_is_trace_error(self):
        with pytest.raises(TraceError, match="malformed"):
            loads("{not json")

    def test_non_object_payload_is_trace_error(self):
        with pytest.raises(TraceError, match="JSON object"):
            loads("[1, 2, 3]")
        with pytest.raises(TraceError, match="JSON object"):
            loads("42")

    def test_typed_errors_are_trace_errors(self):
        # callers may catch the broad TraceError and still distinguish
        assert issubclass(PayloadTooLargeError, TraceError)
        assert issubclass(SchemaVersionError, TraceError)
