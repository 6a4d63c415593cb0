"""Shared hypothesis strategies and deterministic helpers for the suite.

The central strategy builds random—but always valid—distributed traces
by drawing a sequence of per-node operations (internal / send /
deliver-oldest), which guarantees acyclicity by construction (a receive
is only appended after its send).  Interval strategies then draw
disjoint nonatomic event pairs from the resulting execution.
:func:`closure_counts` is the transitive-closure oracle for timestamps.
"""

from __future__ import annotations


import networkx as nx
from hypothesis import strategies as st

from repro.events.builder import TraceBuilder
from repro.events.poset import Execution
from repro.events.trace import Trace
from repro.nonatomic.event import NonatomicEvent

__all__ = [
    "traces",
    "executions",
    "execution_with_pair",
    "execution_with_intervals",
    "build_trace_from_ops",
    "closure_counts",
]


def closure_counts(ex: Execution):
    """Oracle: per-event (T, T^R) via explicit transitive closure."""
    g = ex.to_networkx()
    tc = nx.transitive_closure_dag(g)
    fwd, rev = {}, {}
    ids = list(ex.iter_ids())
    for e in ids:
        below = {e} | set(tc.predecessors(e))
        above = {e} | set(tc.successors(e))
        fwd[e] = [
            sum(1 for (n, _j) in below if n == i) for i in range(ex.num_nodes)
        ]
        rev[e] = [
            sum(1 for (n, _j) in above if n == i) for i in range(ex.num_nodes)
        ]
    return fwd, rev


def build_trace_from_ops(
    num_nodes: int, ops: list[tuple[int, int, int]]
) -> Trace:
    """Deterministically build a trace from drawn operations.

    Each op is ``(node, action, aux)``:

    * ``action == 0`` — internal event on ``node``;
    * ``action == 1`` — send from ``node`` to node ``aux % num_nodes``
      (skipped if it would self-address);
    * ``action == 2`` — deliver the oldest in-flight message addressed
      to ``node`` (internal event if none).
    """
    b = TraceBuilder(num_nodes)
    in_flight: list[list] = [[] for _ in range(num_nodes)]
    t = 0.0
    for node, action, aux in ops:
        node %= num_nodes
        t += 1.0
        if action == 1 and num_nodes > 1:
            dst = aux % num_nodes
            if dst == node:
                dst = (dst + 1) % num_nodes
            in_flight[dst].append(b.send(node, time=t))
        elif action == 2 and in_flight[node]:
            b.recv(node, in_flight[node].pop(0), time=t)
        else:
            b.internal(node, time=t)
    # guarantee every node has at least one event
    for i in range(num_nodes):
        if b.count(i) == 0:
            t += 1.0
            b.internal(i, time=t)
    return b.build()


@st.composite
def traces(draw, max_nodes: int = 5, max_ops: int = 40) -> Trace:
    """A random valid trace (>= 1 event per node)."""
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, 2),
                st.integers(0, max(num_nodes - 1, 0)),
            ),
            min_size=num_nodes,
            max_size=max_ops,
        )
    )
    return build_trace_from_ops(num_nodes, ops)


@st.composite
def executions(draw, max_nodes: int = 5, max_ops: int = 40) -> Execution:
    """A random analysed execution."""
    return Execution(draw(traces(max_nodes=max_nodes, max_ops=max_ops)))


def _draw_interval(
    draw, ex: Execution, exclude: set, name: str
) -> NonatomicEvent | None:
    pool = [eid for eid in ex.iter_ids() if eid not in exclude]
    if not pool:
        return None
    pool.sort()
    size = draw(st.integers(min_value=1, max_value=min(len(pool), 8)))
    picks = draw(
        st.lists(
            st.integers(0, len(pool) - 1),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    ids = [pool[i] for i in picks]
    return NonatomicEvent(ex, ids, name=name)


@st.composite
def execution_with_pair(
    draw, max_nodes: int = 5, max_ops: int = 40
) -> tuple[Execution, NonatomicEvent, NonatomicEvent]:
    """An execution with two disjoint nonatomic events X and Y.

    Executions are drawn with at least two events so disjoint non-empty
    X and Y always exist.
    """
    ex = draw(executions(max_nodes=max_nodes, max_ops=max_ops))
    ids = sorted(ex.iter_ids())
    if len(ids) < 2:
        # force a second event: rebuild with one extra internal
        b = TraceBuilder(ex.num_nodes)
        for ev in ex.trace.iter_events():
            b.internal(ev.node)
        b.internal(0)
        ex = b.execute()
    x = _draw_interval(draw, ex, set(), "X")
    y = _draw_interval(draw, ex, set(x.ids), "Y")
    if y is None:
        # X ate everything; re-split deterministically
        all_ids = sorted(ex.iter_ids())
        half = max(1, len(all_ids) // 2)
        x = NonatomicEvent(ex, all_ids[:half], name="X")
        y = NonatomicEvent(ex, all_ids[half:], name="Y")
    return ex, x, y


@st.composite
def execution_with_intervals(
    draw, k: int = 3, max_nodes: int = 5, max_ops: int = 40
) -> tuple[Execution, list[NonatomicEvent]]:
    """An execution with ``k`` (possibly overlapping) intervals."""
    ex = draw(executions(max_nodes=max_nodes, max_ops=max_ops))
    out = []
    for i in range(k):
        iv = _draw_interval(draw, ex, set(), f"I{i}")
        assert iv is not None
        out.append(iv)
    return ex, out
