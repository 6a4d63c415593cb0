"""Columnar recording: the builder and the live monitor keep event columns.

* :meth:`TraceBuilder.build` equals the :class:`Trace` built from the
  same :class:`Event` and :class:`Message` objects, on random
  internal/send/recv sequences (self-messages and out-of-order
  deliveries included); the same sequence fed to an
  :class:`OnlineMonitor` finalises, with zero clock passes, into the
  clocks a fresh :class:`Execution` computes.
* What recording keeps per event, measured with ``tracemalloc``: the
  builder alone, and a log-backed :class:`MonitorCore` replaying a
  decoded 8-node frame stream.
"""

from __future__ import annotations

import gc
import json
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.builder import TraceBuilder
from repro.events.clocks import clock_pass_counts, reset_clock_pass_counts
from repro.events.event import Event, EventKind
from repro.events.poset import Execution
from repro.events.trace import Message, Trace, causal_schedule
from repro.monitor.online import OnlineMonitor
from repro.service.core import MonitorCore
from repro.service.log import EventLog
from repro.simulation.workloads import random_trace

LABELS = (None, "a", "b", "w12")


@st.composite
def _recordings(draw):
    num_nodes = draw(st.integers(1, 4))
    ops = draw(st.lists(
        st.tuples(
            st.integers(0, num_nodes - 1),  # node
            st.integers(0, 2),  # internal / send / deliver
            st.integers(0, 7),  # destination or in-flight pick
            st.sampled_from(LABELS),
            st.booleans(),  # timed
        ),
        max_size=40,
    ))
    return num_nodes, ops


def _record(num_nodes, ops):
    """Feed ``ops`` to a builder and a monitor; also return the trace
    built from hand-made events and messages."""
    b = TraceBuilder(num_nodes)
    mon = OnlineMonitor(num_nodes)
    events: list[list[Event]] = [[] for _ in range(num_nodes)]
    messages: list[Message] = []
    in_flight = []  # (destination, handle)

    def append(node, kind, label, time, payload):
        events[node].append(
            Event(node, len(events[node]) + 1, kind, label, time, payload)
        )
        return events[node][-1].eid

    for step, (node, action, aux, label, timed) in enumerate(ops):
        time = float(step) if timed else None
        payload = {"step": step} if step % 3 == 0 else None
        waiting = [i for i, (dst, _h) in enumerate(in_flight) if dst == node]
        if action == 1:
            handle = b.send(node, label=label, time=time, payload=payload)
            assert mon.send(node, label=label, time=time) == handle
            in_flight.append((aux % num_nodes, handle))
            assert append(node, EventKind.SEND, label, time, payload) == handle.send
        elif action == 2 and waiting:
            _dst, handle = in_flight.pop(waiting[aux % len(waiting)])
            eid = b.recv(node, handle, label=label, time=time, payload=payload)
            assert mon.recv(node, handle, label=label, time=time) == eid
            assert append(node, EventKind.RECV, label, time, payload) == eid
            messages.append(Message(send=handle.send, recv=eid))
        else:
            eid = b.internal(node, label=label, time=time, payload=payload)
            assert mon.internal(node, label=label, time=time) == eid
            assert append(node, EventKind.INTERNAL, label, time, payload) == eid
    for node in range(num_nodes):  # every node records at least one event
        if not events[node]:
            b.internal(node)
            mon.internal(node)
            append(node, EventKind.INTERNAL, None, None, None)
    return b, mon, Trace(events, messages)


@settings(max_examples=150, deadline=None)
@given(_recordings())
def test_columns_match_event_built_trace(recording):
    b, mon, ref = _record(*recording)
    built = b.build()
    assert built == ref
    assert set(built.messages) == set(ref.messages)
    for node in range(ref.num_nodes):
        assert built.node_columns(node) == ref.node_columns(node)
        assert built.events_of(node) == ref.events_of(node)
    received = {msg.send for msg in ref.messages}
    for ev in ref.iter_events():
        assert b.is_send(ev.eid) == (ev.kind is EventKind.SEND)
        assert b.is_received(ev.eid) == (ev.eid in received)

    reset_clock_pass_counts()
    ex = mon.to_execution()
    rows = {eid: ex.clock(eid).tolist() for eid in ex.iter_ids()}
    assert ex.trace == ref
    assert clock_pass_counts() == {"forward": 0, "reverse": 0}
    oracle = Execution(ref)
    assert rows == {eid: oracle.clock(eid).tolist() for eid in oracle.iter_ids()}


def test_is_send_reads_unknown_ids_as_false():
    b = TraceBuilder(2)
    h = b.send(0)
    b.internal(1)
    assert b.is_send(h.send)
    for eid in [(0, 0), (0, 2), (1, 1), (2, 1), (-1, 1)]:
        assert not b.is_send(eid)
        assert not b.is_received(eid)
    b.recv(1, h)
    assert b.is_received(h.send)


def test_labels_are_interned_once_per_builder():
    b = TraceBuilder(2)
    for i in range(4):
        b.internal(i % 2, label="".join(["w", "12"]))  # a fresh string each time
    labels = b.build().node_columns(0).labels + b.build().node_columns(1).labels
    assert all(label is labels[0] for label in labels)


def test_recv_of_unknown_send_records_nothing():
    b = TraceBuilder(2)
    b.internal(0)
    h = b.send(0)
    for bad in [TraceBuilder(2).send(1), type(h)(send=(0, 1)), type(h)(send=(3, 1))]:
        try:
            b.recv(1, bad)
        except ValueError as exc:
            assert "no such send event" in str(exc)
        else:  # pragma: no cover - the assertion message
            raise AssertionError(f"recv of {bad} accepted")
    assert b.count(1) == 0 and not b.is_received(h.send)


def _traced(run):
    """``run()``'s result, and the bytes still allocated after it while
    that result is alive."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = run()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return kept, grown


def test_builder_keeps_at_most_48_bytes_per_event():
    """50,000 events on 8 nodes, a third sends and about a third
    receives; the labels and times are the caller's objects, so what
    is measured is the builder's own storage."""
    n = 50_000
    rng = np.random.default_rng(3)
    nodes = rng.integers(0, 8, n).tolist()
    actions = rng.integers(0, 3, n).tolist()
    dests = rng.integers(0, 8, n).tolist()
    labels = [f"w{i}" for i in range(200)]
    times = [float(i) for i in range(n)]

    def run():
        b = TraceBuilder(8)
        in_flight: list[list] = [[] for _ in range(8)]
        for i in range(n):
            node, label, time = nodes[i], labels[i // 250], times[i]
            if actions[i] == 1:
                in_flight[dests[i]].append(b.send(node, label=label, time=time))
            elif actions[i] == 2 and in_flight[node]:
                b.recv(node, in_flight[node].pop(0), label=label, time=time)
            else:
                b.internal(node, label=label, time=time)
        return b

    _builder, grown = _traced(run)
    assert grown <= 48 * n, f"{grown / n:.1f} B kept per event"


def test_log_backed_core_keeps_at_most_180_bytes_per_event(tmp_path):
    """An 8-node stream of 24,000 events, each decoded from its JSON
    frame as the server decodes it, tagged into 250-event windows that
    close as they fill: the clock row, the recorded columns, the log's
    line offsets and its bounded tail."""
    trace = random_trace(8, events_per_node=3_000, msg_prob=0.3, seed=5)
    lines = []
    window_sizes: dict[str, int] = {}
    for step, (node, ev, send) in enumerate(causal_schedule(trace)):
        window = f"w{step // 250}"
        window_sizes[window] = window_sizes.get(window, 0) + 1
        frame = {"type": "event", "node": node, "kind": ev.kind.value,
                 "label": f"l{step % 97}", "time": ev.time, "interval": window}
        if send is not None:
            frame["send"] = list(send)
        lines.append(json.dumps(frame))
    n = len(lines)

    def run():
        core = MonitorCore(8, log=EventLog(str(tmp_path / "ingest.jsonl")))
        for step, line in enumerate(lines):
            core.submit_event(json.loads(line), session=1)
            window = f"w{step // 250}"
            if (step + 1) % 250 == 0 or step + 1 == n:
                core.submit_close(window, window_sizes[window], session=1)
        assert core.pending() == 0
        core.log.sync()
        return core

    core, grown = _traced(run)
    core.log.close()
    assert grown <= 180 * n, f"{grown / n:.1f} B kept per event"
