"""Stateful property tests for the online monitor.

Two hypothesis rule-based machines:

* :class:`OnlineMonitorMachine` drives an :class:`OnlineMonitor` with
  an arbitrary interleaving of internal/send/receive observations and
  checks, at every step, that the incrementally maintained vector
  clocks match a from-scratch offline analysis of the trace so far.
* :class:`WatchIndexMachine` interleaves tagged events, closes and
  watch registrations, and checks the monitor's interval-indexed watch
  firing against a reference that rescans every pending watch and
  decides each atom with the scalar :meth:`OnlineMonitor.holds`: same
  notifications, same order, same verdicts.  A
  :class:`~repro.service.core.MonitorCore` fed the same operations
  must agree too, and replaying its log must re-derive exactly the
  verdicts it emitted.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st
import pytest

from repro.events.builder import TraceBuilder
from repro.events.poset import Execution
from repro.monitor.online import OnlineMonitor
from repro.monitor.predicates import And, Atom, Implies, Not, Or, parse_condition
from repro.service.core import MonitorCore

NUM_NODES = 3


class OnlineMonitorMachine(RuleBasedStateMachine):
    """Feeds a random valid stream into monitor + shadow builder."""

    def __init__(self):
        super().__init__()
        self.monitor = OnlineMonitor(NUM_NODES)
        self.shadow = TraceBuilder(NUM_NODES)
        self.in_flight = []  # (monitor_handle, shadow_handle)
        self.steps = 0

    @rule(node=st.integers(0, NUM_NODES - 1))
    def observe_internal(self, node):
        self.monitor.internal(node)
        self.shadow.internal(node)
        self.steps += 1

    @rule(node=st.integers(0, NUM_NODES - 1))
    def observe_send(self, node):
        mh = self.monitor.send(node)
        sh = self.shadow.send(node)
        self.in_flight.append((mh, sh))
        self.steps += 1

    @precondition(lambda self: self.in_flight)
    @rule(node=st.integers(0, NUM_NODES - 1), pick=st.integers(0, 10))
    def observe_recv(self, node, pick):
        mh, sh = self.in_flight.pop(pick % len(self.in_flight))
        if mh.send[0] == node and mh.send[1] >= self.shadow.count(node) + 1:
            # would be an invalid (backwards) self-message; skip
            self.in_flight.append((mh, sh))
            return
        self.monitor.recv(node, mh)
        self.shadow.recv(node, sh)
        self.steps += 1

    @invariant()
    def clocks_match_offline(self):
        if self.steps == 0 or self.steps % 5:
            return  # check every 5th step to keep the machine fast
        ex = Execution(self.shadow.build())
        for eid in ex.iter_ids():
            assert list(self.monitor.clock(eid)) == list(ex.clock(eid)), eid

    def teardown(self):
        if self.steps:
            ex = Execution(self.shadow.build())
            for eid in ex.iter_ids():
                assert list(self.monitor.clock(eid)) == list(ex.clock(eid))
            assert self.monitor.to_execution().trace == ex.trace


TestOnlineMonitorMachine = OnlineMonitorMachine.TestCase
TestOnlineMonitorMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


# ----------------------------------------------------------------------
# watch index vs a rescan-everything reference
# ----------------------------------------------------------------------
TAGGED = ("A", "B", "C")
#: ``E`` is never tagged: watches naming it stay pending for good.
INTERVALS = (*TAGGED, "E")
#: A bare monitor accepts duplicate watch names.
WATCH_NAMES = ("w0", "w1", "w2")
RELATIONS = ("R1", "R1'", "R2", "R2'", "R3", "R3'", "R4", "R4'")


@st.composite
def atom_texts(draw):
    # mostly tagged intervals, so that most watches get to fire
    x = draw(st.sampled_from((*TAGGED, *TAGGED, "E")))
    y = draw(st.sampled_from([n for n in (*TAGGED, *TAGGED, "E") if n != x]))
    proxies = draw(st.sampled_from(["", "(L,L)", "(L,U)", "(U,L)", "(U,U)"]))
    return f"{draw(st.sampled_from(RELATIONS))}{proxies}({x}, {y})"


condition_texts = st.recursive(
    atom_texts(),
    lambda inner: st.one_of(
        inner.map(lambda c: f"not ({c})"),
        st.tuples(inner, st.sampled_from(["and", "or", "->"]), inner).map(
            lambda t: f"({t[0]}) {t[1]} ({t[2]})"
        ),
    ),
    max_leaves=3,
)


def _atoms(cond):
    if isinstance(cond, Atom):
        return [cond]
    if isinstance(cond, Not):
        return _atoms(cond.operand)
    if isinstance(cond, Implies):
        return _atoms(cond.antecedent) + _atoms(cond.consequent)
    assert isinstance(cond, (And, Or))
    return [a for sub in cond.operands for a in _atoms(sub)]


class _ScanReference:
    """Reference watch semantics: every poll rescans every pending
    watch, and an atom is decided by the scalar ``holds``."""

    def __init__(self, num_nodes):
        self.monitor = OnlineMonitor(num_nodes)  # ingestion + holds only
        self.pending = []  # (name, condition), registration order
        self.closed = set()
        self.now = 0.0

    def watch(self, name, text):
        cond = parse_condition(text)
        if any(a.left == a.right for a in _atoms(cond)):
            raise ValueError("X and Y share atomic events")
        self.pending.append((name, cond))

    def verdict(self, cond):
        return cond.evaluate(
            lambda a: self.monitor.holds(a.spec, a.left, a.right)
        )

    def poll(self):
        fired, still = [], []
        for name, cond in self.pending:
            if cond.names() <= self.closed:
                fired.append((name, cond, self.verdict(cond), self.now))
            else:
                still.append((name, cond))
        self.pending = still
        return fired


def _fired(notes):
    return [(n.name, n.condition, n.passed, n.decided_at) for n in notes]


class WatchIndexMachine(RuleBasedStateMachine):
    """Indexed monitor, scan reference and service core fed one stream."""

    def __init__(self):
        super().__init__()
        self.indexed = OnlineMonitor(NUM_NODES)
        self.ref = _ScanReference(NUM_NODES)
        self.core = MonitorCore(NUM_NODES)
        self.core_conditions = {}  # core watch name -> condition text
        self.core_verdicts = []
        self.counts = {}  # tagged interval -> tag count
        self.in_flight = []  # (indexed handle, reference handle)
        self.time = 0.0

    # -- ingestion ------------------------------------------------------
    def _open(self, interval):
        return interval if interval not in self.ref.closed else None

    def _observe(self, frame, interval, timed):
        if timed:
            self.time += 1.0
            self.ref.now = self.time
            frame["time"] = self.time
        if interval is not None:
            frame["interval"] = interval
            self.counts[interval] = self.counts.get(interval, 0) + 1
        self._core_emitted(self.core.submit_event(frame))
        return {"interval": interval, "time": frame.get("time")}

    @rule(
        node=st.integers(0, NUM_NODES - 1),
        interval=st.sampled_from((None, *TAGGED)),
        timed=st.booleans(),
    )
    def internal(self, node, interval, timed):
        kw = self._observe(
            {"node": node, "kind": "internal"}, self._open(interval), timed
        )
        self.indexed.internal(node, **kw)
        self.ref.monitor.internal(node, **kw)

    @rule(
        node=st.integers(0, NUM_NODES - 1),
        interval=st.sampled_from((None, *TAGGED)),
        timed=st.booleans(),
    )
    def send(self, node, interval, timed):
        kw = self._observe(
            {"node": node, "kind": "send"}, self._open(interval), timed
        )
        self.in_flight.append(
            (self.indexed.send(node, **kw), self.ref.monitor.send(node, **kw))
        )

    @precondition(lambda self: self.in_flight)
    @rule(
        node=st.integers(0, NUM_NODES - 1),
        pick=st.integers(0, 10),
        interval=st.sampled_from((None, *TAGGED)),
    )
    def recv(self, node, pick, interval):
        mh, rh = self.in_flight[pick % len(self.in_flight)]
        if mh.send[0] == node:
            return
        self.in_flight.remove((mh, rh))
        kw = self._observe(
            {"node": node, "kind": "recv", "send": list(mh.send)},
            self._open(interval),
            False,
        )
        self.indexed.recv(node, mh, **kw)
        self.ref.monitor.recv(node, rh, **kw)

    # -- closes, watches, polls -----------------------------------------
    def _tagged_open(self):
        return sorted(set(self.counts) - self.ref.closed)

    @precondition(lambda self: self._tagged_open())
    @rule(pick=st.integers(0, 10))
    def close(self, pick):
        open_ = self._tagged_open()
        interval = open_[pick % len(open_)]
        self.ref.monitor.close(interval)
        self.ref.closed.add(interval)
        self._core_emitted(
            self.core.submit_close(interval, self.counts[interval])
        )
        assert _fired(self.indexed.close(interval)) == self.ref.poll()

    @rule(interval=st.sampled_from(INTERVALS))
    def close_again_or_unknown(self, interval):
        if interval not in self.counts:
            with pytest.raises(KeyError):
                self.indexed.close(interval)
        elif interval in self.ref.closed:
            # closing twice is allowed and fires whatever is ready
            assert _fired(self.indexed.close(interval)) == self.ref.poll()

    @rule(name=st.sampled_from(WATCH_NAMES), text=condition_texts)
    def watch(self, name, text):
        self.indexed.watch(name, text)
        self.ref.watch(name, text)
        core_name = f"{name}#{len(self.core_conditions)}"
        self.core_conditions[core_name] = text
        self._core_emitted(self.core.submit_watch(core_name, text))

    @rule(name=st.sampled_from(WATCH_NAMES), text=condition_texts,
          same=st.sampled_from(INTERVALS))
    def watch_same_interval(self, name, text, same):
        text = f"({text}) and R1({same}, {same})"
        before = self.indexed.watch_names()
        with pytest.raises(ValueError, match="share atomic events"):
            self.indexed.watch(name, text)
        with pytest.raises(ValueError, match="share atomic events"):
            self.core.submit_watch(name, text)
        assert self.indexed.watch_names() == before
        assert not self.core.has_watch(name)

    @rule()
    def poll(self):
        assert _fired(self.indexed.poll_watches()) == self.ref.poll()

    def _core_emitted(self, verdicts):
        for v in verdicts:
            cond = parse_condition(self.core_conditions[v["name"]])
            assert cond.names() <= self.ref.closed
            assert v["passed"] == self.ref.verdict(cond)
        self.core_verdicts.extend(verdicts)

    @invariant()
    def same_pending(self):
        assert self.indexed.watch_names() == tuple(n for n, _ in self.ref.pending)

    def teardown(self):
        records = self.core.records_from(0)
        assert MonitorCore.from_records(records).promote() == []
        # with the verdict records lost, replay re-derives every one of
        # them, in the same order, at promotion
        replayed = MonitorCore.from_records(
            [r for r in records if r["op"] != "verdict"]
        ).promote()

        def key(v):
            return v["name"], v["passed"], v["decided_at"], v["watch_seq"]

        assert [key(v) for v in replayed] == [key(v) for v in self.core_verdicts]


TestWatchIndexMachine = WatchIndexMachine.TestCase
TestWatchIndexMachine.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
