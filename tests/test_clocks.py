"""Tests for forward and reverse vector clocks (Definitions 13 and 14).

The ground truth is the transitive closure of the covering digraph
(networkx): ``T(e)[i]`` must equal the number of node-``i`` events
``≼ e``, and ``T^R(e)[i]`` the number ``≽ e`` — checked exhaustively on
fixed posets and property-based on random ones.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.builder import TraceBuilder
from repro.events.clocks import (
    CyclicTraceError,
    anchor_schedule,
    compute_forward_clocks,
    compute_reverse_clocks,
    message_dependencies,
)
from repro.events.event import Event, EventKind
from repro.events.poset import Execution
from repro.events.trace import Message, Trace

from .strategies import closure_counts, executions


def assert_matches_closure(ex: Execution) -> None:
    fwd, rev = closure_counts(ex)
    for eid in ex.iter_ids():
        assert list(ex.clock(eid)) == fwd[eid], eid
        assert list(ex.rclock(eid)) == rev[eid], eid


def ops_trace(num_nodes: int, ops) -> Trace:
    """A trace from ``(node, action, aux)`` ops, one event per op.

    ``action`` 1 sends to node ``aux % num_nodes`` (self-sends
    allowed), 2 delivers in-flight message ``aux`` (modulo the count)
    addressed to ``node`` (an internal event if there is none), anything
    else is an internal event.  The trace of a prefix of ``ops`` is an
    append-only prefix of the trace of ``ops``; nodes may stay empty.
    """
    b = TraceBuilder(num_nodes)
    in_flight: list[list] = [[] for _ in range(num_nodes)]
    for node, action, aux in ops:
        if action == 1:
            in_flight[aux % num_nodes].append(b.send(node))
        elif action == 2 and in_flight[node]:
            b.recv(node, in_flight[node].pop(aux % len(in_flight[node])))
        else:
            b.internal(node)
    return b.build()


@st.composite
def grown_traces(draw, max_nodes: int = 4, max_ops: int = 40):
    """``(prefix, full)``: a random trace and an append-only prefix of it."""
    num_nodes = draw(st.integers(1, max_nodes))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1), st.integers(0, 2), st.integers(0, 7)
            ),
            max_size=max_ops,
        )
    )
    cut = draw(st.integers(0, len(ops)))
    return ops_trace(num_nodes, ops[:cut]), ops_trace(num_nodes, ops)


def cyclic_trace() -> Trace:
    """Each node receives (at index 2) what the other sends at index 3."""
    kinds = (EventKind.INTERNAL, EventKind.RECV, EventKind.SEND)
    events = [
        [Event(node, j, kind=kind) for j, kind in enumerate(kinds, 1)]
        for node in (0, 1)
    ]
    return Trace(events, [Message((0, 3), (1, 2)), Message((1, 3), (0, 2))])


class TestForwardClocks:
    def test_single_chain(self, chain_exec):
        for j in range(1, 4):
            assert list(chain_exec.clock((0, j))) == [j]

    def test_message_exec(self, message_exec):
        # b2 = (1,2) receives from a2 = (0,2)
        assert list(message_exec.clock((1, 2))) == [2, 2]
        assert list(message_exec.clock((1, 1))) == [0, 1]
        assert list(message_exec.clock((0, 3))) == [3, 0]

    def test_diamond(self, diamond_exec):
        # (3,2) has everything except (3,3) in its past
        assert list(diamond_exec.clock((3, 2))) == [2, 2, 2, 2]
        # (3,1) received from (1,2), whose past on node 0 is only (0,1)
        assert list(diamond_exec.clock((3, 1))) == [1, 2, 0, 1]

    def test_matrices_read_only(self, message_exec):
        with pytest.raises(ValueError):
            message_exec.clock_matrix(0)[0, 0] = 99

    @settings(max_examples=60, deadline=None)
    @given(ex=executions())
    def test_matches_transitive_closure(self, ex):
        fwd, _rev = closure_counts(ex)
        for eid in ex.iter_ids():
            assert list(ex.clock(eid)) == fwd[eid], eid


class TestReverseClocks:
    def test_single_chain(self, chain_exec):
        assert list(chain_exec.rclock((0, 1))) == [3]
        assert list(chain_exec.rclock((0, 3))) == [1]

    def test_message_exec(self, message_exec):
        # a2 = (0,2): future on node 1 is b2, b3
        assert list(message_exec.rclock((0, 2))) == [2, 2]
        # b3 = (1,3): nothing after it except itself
        assert list(message_exec.rclock((1, 3))) == [0, 1]

    @settings(max_examples=60, deadline=None)
    @given(ex=executions())
    def test_matches_transitive_closure(self, ex):
        _fwd, rev = closure_counts(ex)
        for eid in ex.iter_ids():
            assert list(ex.rclock(eid)) == rev[eid], eid

    @settings(max_examples=40, deadline=None)
    @given(ex=executions())
    def test_duality_with_forward(self, ex):
        """e ≼ e'  ⟺  e' counts in T^R(e) at its node."""
        ids = list(ex.iter_ids())
        for a in ids:
            for b in ids:
                fwd_says = bool(ex.clock(b)[a[0]] >= a[1])
                k = ex.num_real(b[0])
                rev_says = bool(k - ex.rclock(a)[b[0]] < b[1])
                assert fwd_says == rev_says, (a, b)


class TestCycleDetection:
    def test_two_message_cycle(self):
        # (0,1) sends to (1,1); (1,... ) — build a crossing that cycles:
        # recv on node 0 of a message sent by node 1 *after* node 1
        # received from node 0's later send.
        events = [
            [Event(0, 1, kind=EventKind.RECV), Event(0, 2, kind=EventKind.SEND)],
            [Event(1, 1, kind=EventKind.RECV), Event(1, 2, kind=EventKind.SEND)],
        ]
        msgs = [Message((0, 2), (1, 1)), Message((1, 2), (0, 1))]
        trace = Trace(events, msgs)
        with pytest.raises(CyclicTraceError):
            Execution(trace)

    def test_error_mentions_stuck_events(self):
        events = [
            [Event(0, 1, kind=EventKind.RECV), Event(0, 2, kind=EventKind.SEND)],
            [Event(1, 1, kind=EventKind.RECV), Event(1, 2, kind=EventKind.SEND)],
        ]
        msgs = [Message((0, 2), (1, 1)), Message((1, 2), (0, 1))]
        with pytest.raises(CyclicTraceError, match="stuck"):
            compute_forward_clocks(Trace(events, msgs))

    def test_stuck_ids_name_the_blocked_anchors(self):
        # the internal events before each blocked receive are not stuck
        trace = cyclic_trace()
        stuck = re.escape("events stuck at [(0, 2), (1, 2)]")
        with pytest.raises(CyclicTraceError, match=stuck):
            compute_forward_clocks(trace)
        with pytest.raises(CyclicTraceError, match=stuck):
            list(anchor_schedule(2, message_dependencies(trace)))
        # the reverse pass names time-reversed indices
        with pytest.raises(CyclicTraceError, match=re.escape("[(0, 1), (1, 1)]")):
            compute_reverse_clocks(trace)


class TestAnchoredPass:
    """Edge cases of the anchor-only work-list and the per-node fill."""

    def test_node_with_zero_events(self):
        b = TraceBuilder(3)
        m = b.send(0)   # (0,1)
        b.internal(0)   # (0,2)
        b.recv(2, m)    # (2,1)
        b.internal(2)   # (2,2)
        ex = b.execute()
        assert ex.num_real(1) == 0
        assert ex.forward_table.data.shape == (4, 3)
        assert list(ex.clock((2, 2))) == [1, 0, 2]
        assert list(ex.rclock((0, 1))) == [2, 0, 2]
        assert_matches_closure(ex)

    def test_no_messages(self):
        b = TraceBuilder(3)
        for node in (0, 0, 1, 2, 2, 2):
            b.internal(node)
        ex = b.execute()
        assert list(ex.clock((2, 3))) == [0, 0, 3]
        assert list(ex.rclock((2, 1))) == [0, 0, 3]
        assert_matches_closure(ex)

    def test_receive_is_first_event_of_its_node(self):
        b = TraceBuilder(2)
        b.internal(0)   # (0,1)
        m = b.send(0)   # (0,2)
        b.recv(1, m)    # (1,1)
        b.internal(1)   # (1,2)
        ex = b.execute()
        assert list(ex.clock((1, 1))) == [2, 1]
        assert list(ex.clock((1, 2))) == [2, 2]
        assert list(ex.rclock((0, 1))) == [2, 2]
        assert_matches_closure(ex)

    def test_self_message(self):
        b = TraceBuilder(2)
        own = b.send(0)     # (0,1)
        other = b.send(1)   # (1,1)
        b.recv(0, other)    # (0,2)
        b.recv(0, own)      # (0,3): receives its own node's send
        b.internal(0)       # (0,4)
        ex = b.execute()
        assert list(ex.clock((0, 3))) == [3, 1]
        assert list(ex.clock((0, 4))) == [4, 1]
        assert list(ex.rclock((0, 1))) == [4, 0]
        assert_matches_closure(ex)

    def test_chain_of_receives_on_one_node(self):
        b = TraceBuilder(4)
        handles = [b.send(node) for node in (1, 2, 3)]  # (1,1) (2,1) (3,1)
        b.internal(2)                                    # (2,2)
        for h in reversed(handles):
            b.recv(0, h)                                 # (0,1) (0,2) (0,3)
        b.internal(0)                                    # (0,4)
        ex = b.execute()
        assert [list(ex.clock((0, j))) for j in range(1, 5)] == [
            [1, 0, 0, 1], [2, 0, 1, 1], [3, 1, 1, 1], [4, 1, 1, 1],
        ]
        assert list(ex.rclock((2, 1))) == [3, 0, 2, 0]
        assert_matches_closure(ex)

    @settings(max_examples=60, deadline=None)
    @given(pair=grown_traces())
    def test_tables_match_transitive_closure(self, pair):
        """Both tables match the closure on a trace and on a prefix of
        it, and appending events changes no forward timestamp: the
        prefix's forward rows are the first rows of the full trace's."""
        prefix, full = pair
        assert_matches_closure(Execution(prefix))
        assert_matches_closure(Execution(full))
        grown = compute_forward_clocks(full)
        for node, rows in enumerate(compute_forward_clocks(prefix)):
            assert (grown[node][: len(rows)] == rows).all(), node


class TestClockFunctions:
    def test_forward_shapes(self, message_exec):
        mats = compute_forward_clocks(message_exec.trace)
        assert [m.shape for m in mats] == [(3, 2), (3, 2)]

    def test_reverse_shapes(self, message_exec):
        mats = compute_reverse_clocks(message_exec.trace)
        assert [m.shape for m in mats] == [(3, 2), (3, 2)]

    def test_empty_node_ok(self):
        b = TraceBuilder(3)
        b.internal(0)
        ex = b.execute()
        assert list(ex.clock((0, 1))) == [1, 0, 0]
        assert ex.num_real(1) == 0

    def test_own_component_is_index(self, medium_exec):
        for eid in medium_exec.iter_ids():
            assert medium_exec.clock(eid)[eid[0]] == eid[1]
            # reverse: own component counts self + local successors
            k = medium_exec.num_real(eid[0])
            assert medium_exec.rclock(eid)[eid[0]] == k - eid[1] + 1
