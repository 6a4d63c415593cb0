"""Tests for the online (streaming) monitor.

The key property: for closed, disjoint intervals, the past-only online
evaluation agrees with the offline linear engine on every relation —
on random streams and on all 32 family members.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.linear import LinearEvaluator
from repro.core.relations import BASE_RELATIONS, FAMILY32
from repro.monitor.online import OnlineMonitor
from repro.monitor.predicates import Atom
from repro.service.core import MonitorCore


def replay_into_monitor(trace):
    """Feed a recorded trace into a fresh OnlineMonitor (stream replay).

    Events are replayed node-major in a causally valid global order:
    repeatedly advance nodes whose next event is enabled.
    """
    om = OnlineMonitor(trace.num_nodes)
    pos = [0] * trace.num_nodes
    handles = {}
    progressed = True
    while progressed:
        progressed = False
        for node in range(trace.num_nodes):
            while pos[node] < trace.num_real(node):
                ev = trace.events_of(node)[pos[node]]
                send = trace.send_of(ev.eid)
                if send is not None and send not in handles:
                    break  # wait for the send to be replayed
                if ev.kind.name == "SEND":
                    handles[ev.eid] = om.send(node, label=ev.label, time=ev.time)
                elif ev.kind.name == "RECV" and send is not None:
                    om.recv(node, handles[send], label=ev.label, time=ev.time)
                else:
                    om.internal(node, label=ev.label, time=ev.time)
                pos[node] += 1
                progressed = True
    assert pos == [trace.num_real(i) for i in range(trace.num_nodes)]
    return om


class TestIngestion:
    def test_clock_matches_offline(self, message_exec):
        om = replay_into_monitor(message_exec.trace)
        for eid in message_exec.iter_ids():
            assert list(om.clock(eid)) == list(message_exec.clock(eid))

    def test_precedes_matches_offline(self, message_exec):
        om = replay_into_monitor(message_exec.trace)
        ids = list(message_exec.iter_ids())
        for a in ids:
            for b in ids:
                assert om.precedes(a, b) == message_exec.precedes(a, b)

    def test_receive_before_send_rejected(self):
        from repro.events.builder import MessageHandle

        om = OnlineMonitor(2)
        with pytest.raises(ValueError, match="before its send"):
            om.recv(1, MessageHandle(send=(0, 1)))

    def test_receive_of_a_non_send_rejected(self):
        """A handle naming an observed internal event, a node outside the
        monitor or a message already received is refused at ``recv`` and
        records nothing, so the finalised trace stays valid."""
        from repro.events.builder import MessageHandle

        om = OnlineMonitor(2)
        om.internal(0)
        h = om.send(0)
        om.recv(1, h)
        for send, match in [
            ((0, 1), "not a send"), ((0, 0), "not a send"),
            ((5, 1), "no such node"), ((-1, 1), "no such node"),
            (h.send, "already received"),
        ]:
            with pytest.raises(ValueError, match=match):
                om.recv(1, MessageHandle(send=send), interval="Y")
        assert [om.count(n) for n in (0, 1)] == [2, 1]
        assert "Y" not in om._intervals
        assert om.to_execution().trace.send_of((1, 1)) == h.send

    def test_event_into_closed_interval_records_nothing(self):
        om = OnlineMonitor(1)
        om.internal(0, interval="X")
        om.close("X")
        with pytest.raises(ValueError, match="already closed"):
            om.internal(0, interval="X")
        assert om.count(0) == 1
        assert om.to_execution().trace.total_events == 1

    def test_to_execution(self, message_exec):
        om = replay_into_monitor(message_exec.trace)
        assert om.to_execution().trace == message_exec.trace


class TestIntervals:
    def test_tagging_and_close(self):
        om = OnlineMonitor(2)
        om.internal(0, interval="X")
        om.internal(1, interval="X")
        iv = om.interval("X")
        assert iv.count == 2
        assert iv.node_set == (0, 1)
        om.close("X")
        with pytest.raises(ValueError, match="already closed"):
            om.internal(0, interval="X")

    def test_close_empty_rejected(self):
        om = OnlineMonitor(1)
        om.interval("X")
        with pytest.raises(ValueError, match="empty"):
            om.close("X")

    def test_holds_same_interval_rejected(self):
        om = OnlineMonitor(1)
        om.internal(0, interval="X")
        om.internal(0, interval="X")
        om.close("X")
        with pytest.raises(ValueError, match="share atomic events"):
            om.holds("R1", "X", "X")

    def test_holds_requires_closed(self):
        om = OnlineMonitor(2)
        om.internal(0, interval="X")
        om.internal(1, interval="Y")
        om.close("X")
        with pytest.raises(ValueError, match="not closed"):
            om.holds("R4", "X", "Y")


class TestOnlineOfflineAgreement:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(2, 5),
        k=st.integers(3, 10),
    )
    def test_all_relations_agree(self, seed, nodes, k):
        from repro.simulation.workloads import random_trace
        from repro.nonatomic.selection import random_disjoint_pair

        trace = random_trace(nodes, events_per_node=k, msg_prob=0.4, seed=seed)
        om = replay_into_monitor(trace)
        ex = om.to_execution()
        rng = np.random.default_rng(seed)
        try:
            x, y = random_disjoint_pair(ex, rng, events_per_node=2)
        except ValueError:
            return
        # register the same intervals online
        for eid in sorted(x.ids):
            om.interval("X").add(eid)
        for eid in sorted(y.ids):
            om.interval("Y").add(eid)
        om.close("X")
        om.close("Y")
        lin = LinearEvaluator(ex)
        for rel in BASE_RELATIONS:
            assert om.holds(rel, "X", "Y") == lin.evaluate(rel, x, y), rel
        for spec in FAMILY32:
            assert om.holds(spec, "X", "Y") == lin.evaluate_spec(
                spec, x, y
            ), spec

    def test_string_specs(self, message_exec):
        om = replay_into_monitor(message_exec.trace)
        om.interval("X").add((0, 1))
        om.interval("Y").add((1, 2))
        om.close("X")
        om.close("Y")
        assert om.holds("R1", "X", "Y")
        assert om.holds("R1(U,L)", "X", "Y")


class TestWatches:
    def test_watch_fires_on_close(self):
        om = OnlineMonitor(2)
        om.watch("ordering", "R1(X, Y)")
        h = om.send(0, interval="X")
        om.recv(1, h, interval="Y")
        assert om.close("X") == []
        fired = om.close("Y")
        assert len(fired) == 1
        assert fired[0].name == "ordering"
        assert fired[0].passed

    def test_watch_negative_result(self):
        om = OnlineMonitor(2)
        om.watch("impossible", "R1(Y, X)")
        h = om.send(0, interval="X")
        om.recv(1, h, interval="Y")
        om.close("X")
        fired = om.close("Y")
        assert not fired[0].passed

    def test_watch_waits_for_all_names(self):
        om = OnlineMonitor(3)
        om.watch("w", "R4(A, B) and R4(B, C)")
        om.internal(0, interval="A")
        om.internal(1, interval="B")
        om.internal(2, interval="C")
        assert om.close("A") == []
        assert om.close("B") == []
        assert len(om.close("C")) == 1

    def test_notifications_accumulate(self):
        om = OnlineMonitor(2)
        om.watch("w1", "R4(X, Y)")
        om.watch("w2", "not R4(Y, X)")
        h = om.send(0, interval="X")
        om.recv(1, h, interval="Y")
        om.close("X")
        om.close("Y")
        assert {n.name for n in om.notifications} == {"w1", "w2"}

    def test_same_interval_atom_rejected(self):
        """``R1(a, a)`` would read the irreflexive ``≺`` as ``⪯`` and
        pass; like the offline analyzer, the monitor refuses it."""
        om = OnlineMonitor(1)
        om.internal(0, interval="a")
        om.close("a")
        for cond in ("R1(a, a)", "R4(a, b) or not R2'(U,L)(b, b)"):
            with pytest.raises(ValueError, match="share atomic events"):
                om.watch("self", cond)
        assert om.watch_names() == ()
        assert om.poll_watches() == []

    def test_ready_watches_fire_in_registration_order(self):
        om = OnlineMonitor(2)
        om.watch("first", "R4(X, Y)")
        om.watch("dup", "R1(Y, X)")
        om.watch("dup", "R4(Y, X)")  # duplicate names are allowed
        om.internal(0, interval="Y")
        om.internal(1, interval="X")
        om.close("Y")
        om.close("X")
        assert [n.name for n in om.notifications] == ["first", "dup", "dup"]


class TestWatchIndexScaling:
    """Registration and close costs, counted rather than timed."""

    @staticmethod
    def _count_names(monkeypatch):
        calls = [0]
        names = Atom.names

        def counted(self):
            calls[0] += 1
            return names(self)

        monkeypatch.setattr(Atom, "names", counted)
        return calls

    @pytest.mark.parametrize("n", [10, 300])
    def test_names_computed_once_per_registration(self, monkeypatch, n):
        calls = self._count_names(monkeypatch)
        om = OnlineMonitor(2)
        for i in range(n):
            om.watch(f"w{i}", f"R1(a{i}, b{i}) and not R4(b{i}, a{i})")
            om.poll_watches()  # as the service does after each watch
        assert calls[0] == 2 * n  # one names() per atom, whatever n is
        core = MonitorCore(2)
        calls[0] = 0
        for i in range(n):
            core.submit_watch(f"w{i}", f"R1(a{i}, b{i})")
        assert calls[0] == n

    def test_close_visits_only_its_waiters(self, monkeypatch):
        om = OnlineMonitor(2)
        for i in range(50):
            om.watch(f"w{i}", f"R1(a{i % 10}, b{i % 10})")
        om.internal(0, interval="a3")
        before = {wid: w.open for wid, w in om._pending.items()}
        calls = self._count_names(monkeypatch)
        assert om.close("a3") == []
        assert calls[0] == 0
        after = {wid: w.open for wid, w in om._pending.items()}
        touched = {wid for wid in before if before[wid] != after[wid]}
        assert touched == {wid for wid in before if wid % 10 == 3}
