"""Streaming-ingest equivalence properties.

The streaming fast path must be observationally identical to the cold
offline build it replaces: a trace fed event-by-event through
:class:`~repro.monitor.online.OnlineMonitor` — intervals tagged and
closed mid-stream, verdicts served from incrementally maintained cuts,
finalisation adopting the live clock table zero-copy — yields the same
verdicts and the same cut quadruples as an
:class:`~repro.events.poset.Execution` built from scratch on the full
trace.  This must survive growth: once the stream's next phase is
fed, :meth:`~repro.monitor.online.OnlineMonitor.to_context` hands out a
new context whose values again match a cold build, while the context
already queried keeps answering for the prefix it was built on.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cuts import cut_stats, cuts_of
from repro.core.evaluator import SynchronizationAnalyzer
from repro.core.linear import LinearEvaluator
from repro.core.relations import BASE_RELATIONS, FAMILY32
from repro.events.clocks import clock_pass_counts, reset_clock_pass_counts
from repro.events.poset import Execution
from repro.events.trace import causal_schedule
from repro.monitor.online import OnlineMonitor
from repro.nonatomic.event import NonatomicEvent
from repro.simulation.workloads import random_trace


def _feed(om, trace, steps, chunk, state):
    """Replay ``steps`` into the monitor, tagging per-node chunk
    intervals and closing each the moment its last event arrives.

    ``state`` carries ``(handles, counts, tags, closed)`` across phases.
    """
    handles, counts, tags, closed = state
    for node, ev, send in steps:
        iname = f"I{node}.{counts[node] // chunk}"
        if ev.kind.name == "SEND":
            handles[ev.eid] = om.send(node, interval=iname)
        elif send is not None:
            om.recv(node, handles[send], interval=iname)
        else:
            om.internal(node, interval=iname)
        tags.setdefault(iname, []).append(ev.eid)
        counts[node] += 1
        if (
            counts[node] % chunk == 0
            or counts[node] == trace.num_real(node)
        ) and iname not in closed:
            om.close(iname)
            closed.append(iname)


def _assert_quadruples_match(context, cold_ex, tags, names):
    """Cut quadruples and the row store's first/last rows read from the
    streamed context's cache == the batched fill on a cold offline
    execution."""
    cold = cut_stats(cold_ex, [NonatomicEvent(cold_ex, tags[n]) for n in names])
    for row, name in enumerate(names):
        iv = NonatomicEvent(context.execution, tags[name])
        cache = context.cut_cache
        quad = cache.quadruple(iv)
        # X's first events are its L proxy's, its last events its U's
        store, ls, us = cache.family_operands([iv])
        got = {"c1": quad.c1.vector, "c2": quad.c2.vector,
               "c3": quad.c3.vector, "c4": quad.c4.vector,
               "first": store.first[ls[0]], "last": store.last[us[0]]}
        for field, vec in got.items():
            np.testing.assert_array_equal(
                vec, getattr(cold, field)[row], err_msg=f"{name} {field}"
            )


class TestStreamedEqualsColdOffline:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(2, 5),
        k=st.integers(3, 9),
        chunk=st.integers(2, 5),
    )
    def test_verdicts_and_cuts_match(self, seed, nodes, k, chunk):
        trace = random_trace(nodes, events_per_node=k, msg_prob=0.4,
                             seed=seed)
        om = OnlineMonitor(nodes)
        state = ({}, [0] * nodes, {}, [])
        _feed(om, trace, causal_schedule(trace), chunk, state)
        _handles, _counts, tags, closed = state
        assert sorted(e for ids in tags.values() for e in ids) == sorted(
            ev.eid for n in range(nodes) for ev in trace.events_of(n)
        )

        cold_ex = Execution(trace)  # from-scratch forward + reverse build
        lin = LinearEvaluator(cold_ex)

        # incremental past cuts and extremal vectors on every closed
        # interval == the offline Definition-7 folds
        for name in closed:
            iv = NonatomicEvent(cold_ex, tags[name])
            quad = cuts_of(iv)
            got_c1, got_c2 = om.interval(name).past_cuts(None)
            np.testing.assert_array_equal(got_c1, quad.c1.vector)
            np.testing.assert_array_equal(got_c2, quad.c2.vector)
            first, last = om.interval(name).extremal_vectors(None)
            for node in iv.node_set:
                assert first[node] == iv.first_at(node)
                assert last[node] == iv.last_at(node)

        # mid-stream verdicts between consecutive closed intervals
        # (disjoint by construction) == cold offline engine
        for a, b in zip(closed, closed[1:], strict=False):
            x = NonatomicEvent(cold_ex, tags[a])
            y = NonatomicEvent(cold_ex, tags[b])
            for rel in BASE_RELATIONS:
                assert om.holds(rel, a, b) == lin.evaluate(rel, x, y), rel
            for spec in FAMILY32[::5]:
                assert om.holds(spec, a, b) == lin.evaluate_spec(
                    spec, x, y
                ), spec

        # the zero-copy finalised context serves identical quadruples
        _assert_quadruples_match(om.to_context(), cold_ex, tags, closed)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(2, 4),
        k=st.integers(4, 8),
        chunk=st.integers(2, 4),
    )
    def test_extend_growth_invalidates_and_matches(
        self, seed, nodes, k, chunk
    ):
        """Phase 1 streams and is queried (filling the cut + verdict
        caches); after phase 2 the monitor hands out a new context whose
        every value matches a cold build of the full trace, and the
        phase-1 context still gives its phase-1 answers."""
        trace = random_trace(nodes, events_per_node=k, msg_prob=0.4,
                             seed=seed)
        order = causal_schedule(trace)
        cut = max(1, len(order) // 2)  # prefix of a valid order: causal
        om = OnlineMonitor(nodes)
        state = ({}, [0] * nodes, {}, [])

        _feed(om, trace, order[:cut], chunk, state)
        _handles, _counts, tags, closed = state
        phase1 = list(closed)
        if len(phase1) < 2:
            return  # not enough closed intervals to query mid-stream
        context = om.to_context()
        an = SynchronizationAnalyzer(context, check_disjoint=False)
        x1 = NonatomicEvent(context.execution, tags[phase1[0]])
        y1 = NonatomicEvent(context.execution, tags[phase1[1]])
        before = an.all_relations(x1, y1)  # fills both caches
        assert an.verdict_cache is not None and an.verdict_cache.evals > 0

        _feed(om, trace, order[cut:], chunk, state)
        grown = om.to_context()
        assert grown is not context
        assert grown.execution.trace.total_events == len(order)
        # the phase-1 context still answers for the prefix
        assert context.execution.trace.total_events == cut
        assert an.all_relations(x1, y1) == before

        cold_ex = Execution(grown.execution.trace)
        cold = SynchronizationAnalyzer(cold_ex, check_disjoint=False)
        grown_an = SynchronizationAnalyzer(grown, check_disjoint=False)
        x = NonatomicEvent(grown.execution, tags[phase1[0]])
        y = NonatomicEvent(grown.execution, tags[phase1[1]])
        cx = NonatomicEvent(cold_ex, tags[phase1[0]])
        cy = NonatomicEvent(cold_ex, tags[phase1[1]])
        assert grown_an.all_relations(x, y) == cold.all_relations(cx, cy)
        _assert_quadruples_match(grown, cold_ex, tags, closed)


class TestStreamingClockPasses:
    def test_per_close_verdicts_run_no_offline_clock_pass(self):
        """Ingest, a ``holds`` after every close and the zero-copy
        finalisation all run on the live clock table: no forward
        rebuild, and the past-only per-close queries
        never build the reverse table.  Only the full-family
        finalisation pays for it, with exactly one reverse pass."""
        trace = random_trace(8, events_per_node=60, msg_prob=0.3, seed=31)
        om = OnlineMonitor(trace.num_nodes)
        state = ({}, [0] * trace.num_nodes, {}, [])
        closed = state[3]

        reset_clock_pass_counts()
        for step in causal_schedule(trace):
            before = len(closed)
            _feed(om, trace, [step], 6, state)
            if before and len(closed) > before:
                om.holds("R2", closed[-2], closed[-1])
        assert len(closed) == 80
        assert clock_pass_counts() == {"forward": 0, "reverse": 0}

        om.to_execution().reverse_table
        assert clock_pass_counts() == {"forward": 0, "reverse": 1}
