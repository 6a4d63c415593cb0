"""Tests for trace JSON (de)serialisation."""

import dataclasses
import gc
import json
import os
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.events.event import Event
from repro.events.trace import Trace, TraceError
from repro.simulation.workloads import random_trace

from .strategies import traces


def _relabel(tr: Trace, labels, payloads) -> Trace:
    """``tr`` with drawn labels and JSON payloads on its events."""
    it_labels, it_payloads = iter(labels), iter(payloads)
    return Trace(
        [
            [
                dataclasses.replace(
                    ev, label=next(it_labels, None), payload=next(it_payloads, None)
                )
                for ev in tr.events_of(i)
            ]
            for i in range(tr.num_nodes)
        ],
        tr.messages,
    )


class TestRoundTrip:
    def test_simple_round_trip(self):
        tr = random_trace(3, events_per_node=8, msg_prob=0.4, seed=5)
        assert loads(dumps(tr)) == tr

    @settings(max_examples=60, deadline=None)
    @given(
        tr=traces(),
        labels=st.lists(st.sampled_from([None, "a", "b", "€"]), max_size=40),
        payloads=st.lists(
            st.none() | st.integers() | st.lists(st.text(max_size=3), max_size=2),
            max_size=40,
        ),
    )
    def test_property_round_trip(self, tr, labels, payloads):
        tr = _relabel(tr, labels, payloads)
        back = trace_from_dict(trace_to_dict(tr))
        assert back == tr and tr == back
        assert hash(back) == hash(tr)
        assert back.num_nodes == tr.num_nodes
        assert back.total_events == tr.total_events
        assert list(back.iter_ids()) == list(tr.iter_ids())
        for node in range(tr.num_nodes):
            assert back.num_real(node) == tr.num_real(node)
            assert back.node_columns(node) == tr.node_columns(node)
            assert back.events_of(node) == tr.events_of(node)
            assert [ev.payload for ev in back.events_of(node)] == [
                ev.payload for ev in tr.events_of(node)
            ]
        assert list(back.iter_events()) == list(tr.iter_events())
        for eid in tr.iter_ids():
            assert back.event(eid) == tr.event(eid)
            assert back.send_of(eid) == tr.send_of(eid)
            assert back.recv_of(eid) == tr.recv_of(eid)
        assert set(back.messages) == set(tr.messages)

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

    @pytest.mark.parametrize("version", [True, 1.0, "1", None])
    def test_version_must_be_the_int_one(self, version):
        # True == 1 == 1.0, but only the int 1 names this schema
        data = {"version": version, "num_nodes": 0, "events": [], "messages": []}
        with pytest.raises(SchemaVersionError, match="version"):
            trace_from_dict(data)
        with pytest.raises(SchemaVersionError, match="version"):
            loads(json.dumps(data))

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

    @pytest.mark.parametrize("kind", ["bottom", "top"])
    def test_dummy_kind_rejected(self, kind):
        data = {"version": 1, "num_nodes": 1, "events": [[{"kind": kind}]],
                "messages": []}
        with pytest.raises(TraceError, match="dummy"):
            trace_from_dict(data)

    @pytest.mark.parametrize("pairs, fragment", [
        ([[[0, 1], [1, 1]], [[0, 1], [1, 2]]], "sends two"),
        ([[[0, 1], [1, 1]], [[0, 2], [1, 1]]], "receives two"),
        ([[[1, 1], [0, 3]]], "not a SEND"),
        ([[[0, 1], [0, 2]]], "not a RECV"),
        ([[[1, 3], [1, 1]]], "self-message"),
        ([[[0, 1], [3, 1]]], "no such node"),
        ([[[0, 1], [1, 9]]], "no such event"),
    ])
    def test_inconsistent_messages_on_column_path(self, pairs, fragment):
        data = {
            "version": 1,
            "num_nodes": 2,
            "events": [
                [{"kind": "send"}, {"kind": "send"}, {"kind": "recv"}],
                [{"kind": "recv"}, {"kind": "recv"}, {"kind": "send"}],
            ],
            "messages": pairs,
        }
        with pytest.raises(TraceError, match=fragment):
            trace_from_dict(data)

    @pytest.mark.parametrize("num_nodes", [2.9, 2.0, True, "2", None])
    def test_num_nodes_must_be_int(self, num_nodes):
        data = {"version": 1, "num_nodes": num_nodes, "events": [[], []],
                "messages": []}
        with pytest.raises(TraceError, match="malformed"):
            trace_from_dict(data)

    @pytest.mark.parametrize("endpoint", [1.7, 1.0, True, "1", None])
    def test_message_endpoint_must_be_int(self, endpoint):
        data = {
            "version": 1,
            "num_nodes": 2,
            "events": [[{"kind": "send"}], [{"kind": "recv"}]],
            "messages": [[[0, 1], [endpoint, 1]]],
        }
        with pytest.raises(TraceError, match="malformed message"):
            trace_from_dict(data)

    @pytest.mark.parametrize("record", [
        {"label": 5}, {"label": ["a"]}, {"label": True},
        {"time": "noon"}, {"time": True}, {"time": [1]},
    ])
    def test_label_and_time_types_checked(self, record):
        data = {"version": 1, "num_nodes": 1, "events": [[{}, record]],
                "messages": []}
        with pytest.raises(TraceError, match="malformed"):
            trace_from_dict(data)

    def test_accepted_field_types(self):
        data = {
            "version": 1,
            "num_nodes": 1,
            "events": [[{"time": 3}, {"time": 2.5, "label": "x"},
                        {"label": None, "time": None, "payload": [True]}]],
            "messages": [],
        }
        tr = trace_from_dict(data)
        assert [ev.time for ev in tr.events_of(0)] == [3, 2.5, None]
        assert tr.event((0, 3)).payload == [True]

    @pytest.mark.parametrize("field, value", [
        ("events", 3), ("events", {"0": []}), ("events", [3]),
        ("events", [{"kind": "send"}]), ("messages", 3), ("messages", "ab"),
        ("messages", [3]), ("messages", [[0, 1]]), ("messages", [[[0, 1], [0]]]),
        ("events", [[{"kind": ["send"]}]]), ("events", [[{"kind": None}]]),
    ])
    def test_wrong_shapes_are_trace_errors(self, field, value):
        data = {"version": 1, "num_nodes": 1, "events": [[{"kind": "send"}]],
                "messages": []}
        data[field] = value
        with pytest.raises(TraceError):
            trace_from_dict(data)

    @settings(max_examples=200, deadline=None)
    @given(
        num_nodes=st.one_of(st.integers(0, 3), st.floats(), st.text(max_size=2)),
        events=st.recursive(
            st.none() | st.booleans() | st.integers(-2, 4) | st.floats()
            | st.sampled_from(["send", "recv", "internal", "top", "x"]),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(
                st.sampled_from(["kind", "label", "time", "payload"]), inner,
                max_size=4,
            ),
            max_leaves=12,
        ),
        messages=st.recursive(
            st.none() | st.integers(-1, 3) | st.text(max_size=2),
            lambda inner: st.lists(inner, max_size=3),
            max_leaves=10,
        ),
    )
    def test_arbitrary_json_loads_or_raises_trace_error(
        self, num_nodes, events, messages
    ):
        data = {"version": 1, "num_nodes": num_nodes, "events": events,
                "messages": messages}
        try:
            tr = loads(json.dumps(data))
        except TraceError:
            return
        assert isinstance(tr, Trace)
        assert loads(dumps(tr)) == tr

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

    def test_size_limit_is_exact_with_multibyte_text(self):
        tr = random_trace(2, events_per_node=3, seed=4)
        relabelled = Trace(
            [[dataclasses.replace(ev, label="€😀" * ev.index) for ev in tr.events_of(i)]
             for i in range(tr.num_nodes)],
            tr.messages,
        )
        text = dumps(relabelled, ensure_ascii=False)
        size = len(text.encode("utf-8"))
        assert len(text) < size < 4 * len(text)  # the band that must encode
        assert loads(text, max_bytes=size) == relabelled
        with pytest.raises(PayloadTooLargeError):
            loads(text, max_bytes=size - 1)
        # the bounds that decide on the length alone
        assert loads(text, max_bytes=4 * len(text)) == relabelled
        with pytest.raises(PayloadTooLargeError):
            loads(text, max_bytes=len(text) - 1)

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
        with pytest.raises(TraceError, match="malformed"):
            loads(b'{"version": 1, "x": "\xff"}')  # not UTF-8

    def test_non_object_payload_is_trace_error(self):
        with pytest.raises(TraceError, match="JSON object"):
            loads("[1, 2, 3]")
        with pytest.raises(TraceError, match="JSON object"):
            loads("42")

    def test_typed_errors_are_trace_errors(self):
        # callers may catch the broad TraceError and still distinguish
        assert issubclass(PayloadTooLargeError, TraceError)
        assert issubclass(SchemaVersionError, TraceError)


class TestColumnarLoad:
    """``loads`` fills columns and builds each node's events once, on demand."""

    def test_events_are_built_once_per_node(self, monkeypatch):
        back = loads(dumps(random_trace(3, events_per_node=5, msg_prob=0.4, seed=2)))
        built = []
        init = Event.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[:2])
            init(self, *args, **kwargs)

        monkeypatch.setattr(Event, "__init__", counting_init)
        assert back.total_events == 15 and list(back.iter_ids())[-1] == (2, 5)
        assert built == []
        first = back.events_of(1)
        assert back.events_of(1) is first
        assert back.event((1, 3)) is first[2]
        assert len(built) == 5
        list(back.iter_events())
        assert len(built) == 15

    def test_event_built_trace_keeps_its_tuples(self):
        tr = random_trace(2, events_per_node=4, seed=6)
        given_events = [tr.events_of(i) for i in range(2)]
        again = Trace(given_events, tr.messages)
        assert all(again.events_of(i) is given_events[i] for i in range(2))

    def test_payload_does_not_affect_equality(self):
        tr = random_trace(2, events_per_node=3, seed=1)
        other = _relabel(tr, [], [{"k": 1}] * 6)
        assert other == tr and hash(other) == hash(tr)
        assert other.node_columns(0) != tr.node_columns(0)


def _reference(text):
    """What ``loads`` gives by decoding the whole document at once."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise TraceError(f"malformed trace payload: {exc}") from exc
    return trace_from_dict(data)


def _outcome(decode, arg):
    """The decoded trace with its payloads and messages, or the error."""
    try:
        tr = decode(arg)
    except Exception as exc:  # compared by type and text below
        return type(exc), str(exc)
    return tr, tr.messages, [tr.node_columns(i) for i in range(tr.num_nodes)]


#: (indent, item separator, key separator) of a rendered document.
_LAYOUTS = [
    (None, ", ", ": "), (None, ",", ":"), (2, ",", ": "), ("\t", " ,\r\n", " :\t"),
]

#: Fragments that assemble into near-JSON: mostly malformed, sometimes a trace.
_TOKENS = [
    "{", "}", "[", "]", ",", ":", " ", "\n", '"version"', '"num_nodes"',
    '"events"', '"messages"', "1", "0", "1.0", "true", "null", "[]", "[[]]",
    '{"kind": "send"}', '"x"', "\ufeff", "\t", "\x0c",
]


@st.composite
def trace_documents(draw):
    """Trace JSON as ``loads`` may meet it: any layout, key order or
    repeated ``events`` key, a BOM, trailing data, a cut or lost
    character, as ``str`` or encoded ``bytes``."""
    tr = draw(traces())
    if draw(st.booleans()):
        tr = _relabel(tr, draw(st.lists(st.sampled_from([None, "a", "€"]), max_size=20)),
                      draw(st.lists(st.none() | st.integers(), max_size=20)))
    data = trace_to_dict(tr)
    data["version"] = draw(st.sampled_from([1, 1, 1, 1.0, True, 2]))
    pairs = draw(st.permutations(list(data.items())))
    if draw(st.booleans()):  # a repeated key: the last one wins
        other = draw(st.sampled_from([data["events"], [], [[{"kind": "quantum"}]], 3]))
        pairs.insert(draw(st.integers(0, len(pairs))), ("events", other))
    indent, item, key = draw(st.sampled_from(_LAYOUTS))
    text = "{" + item.join(
        json.dumps(k) + key + json.dumps(v, indent=indent, separators=(item, key))
        for k, v in pairs
    ) + "}"
    text = (draw(st.sampled_from(["", " \n", "\ufeff"])) + text
            + draw(st.sampled_from(["", "\r\n\t", " 0", "{}"])))
    edit = draw(st.sampled_from(["none", "none", "truncate", "delete"]))
    if edit != "none":
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + (text[at + 1:] if edit == "delete" else "")
    encoding = draw(st.sampled_from([None, None, "utf-8", "utf-8-sig", "utf-16", "utf-32"]))
    return text if encoding is None else text.encode(encoding)


class TestNodeAtATimeDecode:
    """``loads`` decodes one node at a time and answers as ``json.loads`` +
    ``trace_from_dict`` would, for every input."""

    @settings(max_examples=300, deadline=None)
    @given(doc=trace_documents())
    def test_documents_match_the_reference(self, doc):
        assert _outcome(loads, doc) == _outcome(_reference, doc)
        fd, path = tempfile.mkstemp(suffix=".json")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(doc if isinstance(doc, bytes) else doc.encode("utf-8"))
            raw = doc if isinstance(doc, bytes) else doc.encode("utf-8")
            assert _outcome(load, path) == _outcome(loads, raw)
        finally:
            os.unlink(path)

    @settings(max_examples=300, deadline=None)
    @given(doc=st.text() | st.binary()
           | st.lists(st.sampled_from(_TOKENS), max_size=40).map("".join))
    def test_arbitrary_input_matches_the_reference(self, doc):
        assert _outcome(loads, doc) == _outcome(_reference, doc)

    def test_file_that_is_not_json_or_utf8_is_trace_error(self, tmp_path):
        path = tmp_path / "bad.json"
        for raw in (dumps(random_trace(2, events_per_node=3, seed=0))[:20].encode(),
                    b'{"version": 1, "x": "\xff"}'):
            path.write_bytes(raw)
            with pytest.raises(TraceError, match="malformed trace payload"):
                load(str(path))

    def test_parse_scratch_is_one_node(self):
        # tracemalloc counts Python allocations, so the bound is deterministic
        text = dumps(random_trace(32, events_per_node=500, seed=0))

        def scratch(decode):
            gc.collect()
            tracemalloc.start()
            try:
                trace = decode(text)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert trace.total_events == 32 * 500
            return peak - retained

        assert scratch(loads) <= 0.25 * scratch(_reference)
