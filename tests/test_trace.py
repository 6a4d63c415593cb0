"""Unit tests for Trace construction and validation."""

import pytest

from repro.events.event import Event, EventKind
from repro.events.trace import Message, Trace, TraceError


def _ev(node, index, kind=EventKind.INTERNAL):
    return Event(node=node, index=index, kind=kind)


class TestTraceValidation:
    def test_empty_trace(self):
        tr = Trace([[], []])
        assert tr.num_nodes == 2
        assert tr.total_events == 0

    def test_wrong_node_rejected(self):
        with pytest.raises(TraceError, match="claims node"):
            Trace([[_ev(1, 1)]])

    def test_wrong_index_rejected(self):
        with pytest.raises(TraceError, match="must have index"):
            Trace([[_ev(0, 2)]])

    def test_dummy_event_rejected(self):
        with pytest.raises(TraceError, match="dummy"):
            Trace([[Event(0, 1, kind=EventKind.BOTTOM)]])

    def test_kind_must_be_a_real_event_kind(self):
        for kind in (EventKind.TOP, "send"):
            with pytest.raises(TraceError):
                Trace([[Event(0, 1, kind=kind)]])

    def test_message_endpoints_must_exist(self):
        events = [[_ev(0, 1, EventKind.SEND)], []]
        with pytest.raises(TraceError, match="no such event"):
            Trace(events, [Message((0, 1), (1, 1))])
        with pytest.raises(TraceError, match="no such node"):
            Trace(events, [Message((0, 1), (7, 1))])

    def test_message_kind_checked(self):
        events = [[_ev(0, 1)], [_ev(1, 1, EventKind.RECV)]]
        with pytest.raises(TraceError, match="not a SEND"):
            Trace(events, [Message((0, 1), (1, 1))])
        events = [[_ev(0, 1, EventKind.SEND)], [_ev(1, 1)]]
        with pytest.raises(TraceError, match="not a RECV"):
            Trace(events, [Message((0, 1), (1, 1))])

    def test_double_send_rejected(self):
        events = [
            [_ev(0, 1, EventKind.SEND)],
            [_ev(1, 1, EventKind.RECV), _ev(1, 2, EventKind.RECV)],
        ]
        msgs = [Message((0, 1), (1, 1)), Message((0, 1), (1, 2))]
        with pytest.raises(TraceError, match="sends two"):
            Trace(events, msgs)

    def test_double_recv_rejected(self):
        events = [
            [_ev(0, 1, EventKind.SEND), _ev(0, 2, EventKind.SEND)],
            [_ev(1, 1, EventKind.RECV)],
        ]
        msgs = [Message((0, 1), (1, 1)), Message((0, 2), (1, 1))]
        with pytest.raises(TraceError, match="receives two"):
            Trace(events, msgs)

    def test_backwards_self_message_rejected(self):
        events = [[_ev(0, 1, EventKind.RECV), _ev(0, 2, EventKind.SEND)]]
        with pytest.raises(TraceError, match="self-message"):
            Trace(events, [Message((0, 2), (0, 1))])

    def test_forwards_self_message_allowed(self):
        events = [[_ev(0, 1, EventKind.SEND), _ev(0, 2, EventKind.RECV)]]
        tr = Trace(events, [Message((0, 1), (0, 2))])
        assert tr.send_of((0, 2)) == (0, 1)


class TestTraceAccessors:
    @pytest.fixture
    def trace(self):
        events = [
            [_ev(0, 1, EventKind.SEND), _ev(0, 2)],
            [_ev(1, 1, EventKind.RECV)],
        ]
        return Trace(events, [Message((0, 1), (1, 1))])

    def test_counts(self, trace):
        assert trace.num_nodes == 2
        assert trace.num_real(0) == 2
        assert trace.num_real(1) == 1
        assert trace.total_events == 3

    def test_event_lookup(self, trace):
        assert trace.event((0, 2)).index == 2
        with pytest.raises(KeyError):
            trace.event((0, 3))
        with pytest.raises(KeyError):
            trace.event((5, 1))
        with pytest.raises(KeyError):
            trace.event((0, 0))

    def test_message_lookup(self, trace):
        assert trace.recv_of((0, 1)) == (1, 1)
        assert trace.send_of((1, 1)) == (0, 1)
        assert trace.recv_of((0, 2)) is None
        assert trace.send_of((0, 2)) is None

    def test_iteration(self, trace):
        assert [e.eid for e in trace.iter_events()] == [(0, 1), (0, 2), (1, 1)]
        assert list(trace.iter_ids()) == [(0, 1), (0, 2), (1, 1)]

    def test_equality_and_hash(self, trace):
        events = [
            [_ev(0, 1, EventKind.SEND), _ev(0, 2)],
            [_ev(1, 1, EventKind.RECV)],
        ]
        same = Trace(events, [Message((0, 1), (1, 1))])
        assert trace == same
        assert hash(trace) == hash(same)
        different = Trace(events, [])  # note: kind mismatch ok without msg
        assert trace != different

    def test_unreceived_send_allowed(self):
        tr = Trace([[_ev(0, 1, EventKind.SEND)]])
        assert tr.recv_of((0, 1)) is None
