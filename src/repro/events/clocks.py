"""Canonical vector clocks and reverse vector clocks, stored columnar.

Implements the timestamping machinery of Section 2.3 of the paper:

* **Forward timestamps** (Definition 13, the canonical vector clocks of
  Fidge and Mattern): ``T(e)[i]`` is the number of real events on node
  ``i`` that causally precede or equal ``e``.  The fundamental property
  is ``e ≺ e'  ⟺  T(e) < T(e')`` (componentwise ``≤`` with at least one
  strict), and for distinct events the cheap test
  ``e ≺ e'  ⟺  T(e')[node(e)] ≥ index(e)``.

* **Reverse timestamps** (Definition 14): ``T^R(e)[i]`` is the number of
  real events on node ``i`` that causally happen after or equal ``e``.
  As the paper observes, *"once the timestamp structure is established
  for the entire computation, the 'reverse' timestamp structure can also
  be established"* — we compute it by running the forward algorithm on
  the time-reversed trace.

Both computations run one topological work-list pass (no transitive
closure) over the *anchors* only: the events with a cross-node
dependency, i.e. the message receives (forward) or sends (reverse).
Between two anchors of a node a timestamp changes in its own component
alone, so each node's block is then filled from its anchor rows by one
vectorized gather.  The cost is ``O(|M|)`` interpreter steps, each an
``O(|P|)`` componentwise ``max``, plus an ``O(|E|·|P|)`` vectorized
fill.  :func:`anchor_schedule` yields that anchor order.

Storage layout
--------------
Each structure is one contiguous ``(|E|, |P|)`` int32 matrix — a
:class:`ClockTable` — indexed by the *flat event index*
``offsets[node] + idx - 1`` (node-major, local order within a node).
One matrix per structure (instead of one small array per event, or one
matrix per node) is what makes the columnar cut kernels of
:mod:`repro.core.cuts` single-gather operations.  Per-event and
per-node accessors return views into the matrix, so the historical
per-event API is preserved without copies.

Pass counters and worker processes
----------------------------------
``_PASS_COUNTS`` is a plain module-global dictionary, so it is
**per-process** state: a forked or spawned worker process has its own
counters (a fork inherits the parent's snapshot at fork time; a spawn
starts from zero).  Any worker pool should zero them on startup with
:func:`reset_clock_pass_counts`.  :func:`clock_pass_counts` tags its
snapshot with the reporting ``pid`` so misaggregated numbers are at
least attributable.
"""

from __future__ import annotations

# repro: hot, dtype-strict

import os
from bisect import bisect_right
from collections.abc import Iterator, Mapping, Sequence

import numpy as np

from .event import EventId
from .trace import Trace, TraceError

__all__ = [
    "CLOCK_DTYPE",
    "ClockTable",
    "GrowableClockTable",
    "CyclicTraceError",
    "compute_forward_table",
    "compute_reverse_table",
    "compute_forward_clocks",
    "compute_reverse_clocks",
    "anchor_schedule",
    "message_dependencies",
    "clock_pass_counts",
    "reset_clock_pass_counts",
]

#: dtype of the columnar clock matrices.  int32 halves the memory and
#: shared-memory traffic of the previous int64 representation; clock
#: components count events on one node, so the range is ample.
CLOCK_DTYPE = np.int32

#: Number of clock passes executed since the last reset
#: *in this process*, keyed by pass kind.  Purely diagnostic: regression
#: tests use it to assert that lazy code paths (e.g. the online
#: monitor's ingestion) never trigger a pass they should not pay for.
#: See the module docstring for the worker-process contract.
_PASS_COUNTS: dict[str, int] = {"forward": 0, "reverse": 0}


def clock_pass_counts(include_pid: bool = False) -> dict[str, int]:
    """A snapshot of this process's pass counters.

    Keys ``forward``/``reverse``; with ``include_pid``, also
    ``pid``, the id of the reporting process.  Counters are per-process
    (see the module docstring), so consumers aggregating across a
    worker pool must collect one snapshot per worker rather than read
    the parent's — the pid tag makes misaggregated numbers attributable.
    """
    snap: dict[str, int] = dict(_PASS_COUNTS)
    if include_pid:
        snap["pid"] = os.getpid()
    return snap


def reset_clock_pass_counts() -> None:
    """Zero this process's pass counters.

    Test-isolation helper, and the per-worker reset hook a process
    pool initializer should call so forked workers do not inherit (and
    then re-report) the parent's pre-fork counts.
    """
    for key in _PASS_COUNTS:
        _PASS_COUNTS[key] = 0


class CyclicTraceError(TraceError):
    """Raised when a trace's happened-before relation contains a cycle.

    A cycle can only arise from message edges that contradict local
    orders (e.g. node 0 receives from node 1 before sending it the
    message that causally enabled that send).
    """


class ClockTable:
    """One timestamp structure as a contiguous ``(|E|, |P|)`` matrix.

    Row ``offsets[i] + j - 1`` holds the vector timestamp of event
    ``(i, j)``; node ``i``'s rows are the contiguous block
    ``data[offsets[i]:offsets[i+1]]``.  ``data`` is C-contiguous int32
    and read-only, which makes every accessor a zero-copy view and the
    whole structure publishable through ``multiprocessing.shared_memory``
    as a single buffer.
    """

    __slots__ = ("data", "offsets", "lengths")

    def __init__(self, data: np.ndarray, lengths: Sequence[int]) -> None:
        lens = np.asarray(lengths, dtype=np.int64)
        offsets = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        if data.shape != (int(offsets[-1]), len(lens)):
            raise ValueError(
                f"clock matrix must have shape {(int(offsets[-1]), len(lens))}, "
                f"got {data.shape}"
            )
        if data.dtype != CLOCK_DTYPE or not data.flags.c_contiguous:
            data = np.ascontiguousarray(data, dtype=CLOCK_DTYPE)
        data.setflags(write=False)
        offsets.setflags(write=False)
        lens.setflags(write=False)
        self.data = data
        self.offsets = offsets
        self.lengths = lens

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """``|P|`` — the vector width."""
        return self.data.shape[1]

    @property
    def total_events(self) -> int:
        """``|E|`` — the number of rows."""
        return self.data.shape[0]

    def row(self, node: int, idx: int) -> np.ndarray:
        """The timestamp of event ``(node, idx)`` (read-only view)."""
        return self.data[self.offsets[node] + idx - 1]

    def node_view(self, node: int) -> np.ndarray:
        """All of ``node``'s rows as a ``(k_i, P)`` view (zero-copy)."""
        return self.data[self.offsets[node]:self.offsets[node + 1]]

    def views(self) -> list[np.ndarray]:
        """Per-node ``(k_i, P)`` views, in node order (zero-copy)."""
        return [self.node_view(i) for i in range(self.num_nodes)]

    def flat_index(self, eid: EventId) -> int:
        """The flat row index of event ``eid``."""
        node, idx = eid
        return int(self.offsets[node]) + idx - 1

    def flat_indices(self, ids: Sequence[EventId]) -> np.ndarray:
        """Flat row indices for a sequence of event ids (vectorized)."""
        arr = np.asarray(ids, dtype=np.int64).reshape(-1, 2)
        return self.offsets[arr[:, 0]] + arr[:, 1] - 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClockTable(events={self.total_events}, "
            f"nodes={self.num_nodes}, dtype={self.data.dtype})"
        )


class GrowableClockTable:
    """Append-only forward-clock storage for streaming ingestion.

    :class:`ClockTable` is the right substrate for a *finished* trace —
    one immutable node-major matrix — but a live monitor appends one
    event at a time in arbitrary cross-node interleaving.  This class
    keeps one capacity-doubling ``(cap_i, |P|)`` int32 block per node,
    so an append is an in-place row write (copy the node's previous
    row, fold message dependencies with ``np.maximum``, tick own
    component): amortized O(|P|) with **no per-event allocation**.

    Rows are written exactly once and never mutated afterwards, so
    views handed out by :meth:`row` / :meth:`node_view` remain valid
    snapshots even across a capacity-doubling reallocation (the old
    buffer's values are final).

    :meth:`snapshot` materialises the live contents as a regular
    :class:`ClockTable` — one block copy per node, **zero clock
    passes** (the ``forward`` counter of :func:`clock_pass_counts` does
    not move).
    """

    __slots__ = ("_blocks", "_counts", "_version")

    # Version-discipline contract enforced by `python -m repro lint`
    # (REP001/REP005).
    _REPRO_VERSIONED = {
        "version": "_version",
        "state": ("_blocks", "_counts"),
        "caches": (),
        "guards": (),
    }

    def __init__(self, num_nodes: int, capacity: int = 16) -> None:
        if num_nodes <= 0:
            raise ValueError("need at least one node")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._blocks: list[np.ndarray] = [
            np.zeros((capacity, num_nodes), dtype=CLOCK_DTYPE)
            for _ in range(num_nodes)
        ]
        self._counts: list[int] = [0] * num_nodes
        self._version = 0

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """``|P|`` — the vector width."""
        return len(self._blocks)

    @property
    def total_events(self) -> int:
        """Total appended events across all nodes."""
        return self._version

    @property
    def version(self) -> int:
        """Monotonic append counter (equals :attr:`total_events`).

        :meth:`OnlineMonitor.to_execution
        <repro.monitor.online.OnlineMonitor.to_execution>` keys its
        finalised execution on it.
        """
        return self._version

    def count(self, node: int) -> int:
        """Number of events appended on ``node``."""
        return self._counts[node]

    @property
    def lengths(self) -> tuple[int, ...]:
        """Per-node appended event counts."""
        return tuple(self._counts)

    def row(self, node: int, idx: int) -> np.ndarray:
        """The timestamp of event ``(node, idx)`` (live view; treat as
        read-only — rows are immutable once written)."""
        if not 1 <= idx <= self._counts[node]:
            raise IndexError(
                f"event ({node}, {idx}) has not been appended "
                f"(node has {self._counts[node]} events)"
            )
        return self._blocks[node][idx - 1]

    def node_view(self, node: int) -> np.ndarray:
        """``node``'s appended rows as a ``(count, P)`` view (zero-copy)."""
        return self._blocks[node][: self._counts[node]]

    # ------------------------------------------------------------------
    def advance(self, node: int, extra: "np.ndarray | None" = None) -> np.ndarray:
        """Append the next event on ``node`` and return its clock row.

        The new row is the node's previous row (or zeros for the first
        event) folded with ``extra`` (a message dependency's clock, if
        any) under componentwise max, with the own component ticked —
        Mattern/Fidge maintenance, written straight into preallocated
        storage.
        """
        blk = self._blocks[node]
        k = self._counts[node]
        if k == blk.shape[0]:
            grown = np.zeros((2 * k, len(self._blocks)), dtype=CLOCK_DTYPE)
            grown[:k] = blk
            blk = self._blocks[node] = grown
        row = blk[k]
        if k:
            row[:] = blk[k - 1]
        if extra is not None:
            np.maximum(row, extra, out=row)
        row[node] = k + 1
        self._counts[node] = k + 1
        self._version += 1
        return row

    # ------------------------------------------------------------------
    def snapshot(self) -> ClockTable:
        """The live contents as an immutable :class:`ClockTable`.

        One C-level block copy per node; no clock pass.
        """
        data = np.concatenate(
            [self.node_view(i) for i in range(self.num_nodes)], axis=0
        )
        return ClockTable(data, self.lengths)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GrowableClockTable(events={self.total_events}, "
            f"nodes={self.num_nodes})"
        )


def anchor_schedule(
    num_nodes: int,
    cross_deps: Mapping[EventId, tuple[EventId, ...]],
) -> Iterator[tuple[int, int, tuple[EventId, ...]]]:
    """Yield every *anchor* once its dependencies are done.

    The anchors are the keys ``(node, idx)`` of ``cross_deps``.  Each
    is yielded as ``(node, idx, deps)``, a node's in ascending order.  A dependency ``(m, d)`` is done once every anchor
    of node ``m`` at or before ``d`` has been yielded: the events
    between anchors depend on their local predecessor alone.

    Raises
    ------
    CyclicTraceError
        If some anchor can never be scheduled (a causal cycle); the
        message names each stuck node's first unscheduled anchor.
    """
    anchors: list[list[int]] = [[] for _ in range(num_nodes)]
    for node, idx in sorted(cross_deps):
        anchors[node].append(idx)
    ptr = [0] * num_nodes  # anchors yielded per node
    # waiters[a] = nodes whose next anchor is blocked until anchor a is done
    waiters: dict[EventId, list[int]] = {}
    stack = list(range(num_nodes))
    while stack:
        node = stack.pop()
        mine = anchors[node]
        while ptr[node] < len(mine):
            eid = (node, mine[ptr[node]])
            deps = cross_deps[eid]
            blocked_on = None
            for dep_node, dep_idx in deps:
                theirs = anchors[dep_node]
                if ptr[dep_node] < len(theirs) and theirs[ptr[dep_node]] <= dep_idx:
                    # wait for the dependency node's last anchor <= dep_idx
                    blocked_on = (dep_node, theirs[bisect_right(theirs, dep_idx) - 1])
                    break
            if blocked_on is not None:
                waiters.setdefault(blocked_on, []).append(node)
                break
            yield node, eid[1], deps
            ptr[node] += 1
            stack.extend(waiters.pop(eid, ()))
    stuck = [(i, a[ptr[i]]) for i, a in enumerate(anchors) if ptr[i] < len(a)]
    if stuck:
        raise CyclicTraceError(f"trace has a causal cycle; events stuck at {stuck[:5]}")


def _run_clock_pass(trace: Trace, reverse: bool = False) -> ClockTable:
    """Generic vector-clock pass over the columnar matrix.

    The work-list visits only the anchors of :func:`anchor_schedule`:
    ``O(|M|)`` interpreter steps of one ``O(|P|)`` ``max`` each.  An
    anchor's row is the max of its node's previous anchor row and each
    dependency ``(m, d)``'s row: node ``m``'s last anchor row at or
    before ``d``, with component ``m`` raised to ``d``.  Each node block
    is then filled by one vectorized gather of its anchor rows plus its
    own column: ``O(|E|·|P|)``, with no temporary of that size.

    Parameters
    ----------
    trace:
        The trace; the dependencies are :func:`message_dependencies`.
    reverse:
        Run on the time-reversed trace, writing the row of reversed
        index ``j`` of node ``i`` straight to local index ``k_i - j + 1``.

    Raises
    ------
    CyclicTraceError
        If the dependency structure cannot be scheduled (a causal cycle).
    """
    num_nodes = trace.num_nodes
    lengths = [trace.num_real(i) for i in range(num_nodes)]
    data = np.zeros((sum(lengths), num_nodes), dtype=CLOCK_DTYPE)
    # blocks[i][j - 1] is the row of processing index j on node i (a view)
    blocks = np.split(data, np.cumsum(lengths[:-1]))
    if reverse:
        blocks = [blk[::-1] for blk in blocks]
    marks: list[list[int]] = [[] for _ in range(num_nodes)]  # anchors done

    schedule = anchor_schedule(num_nodes, message_dependencies(trace, reverse))
    for node, idx, deps in schedule:
        blk = blocks[node]
        row = blk[idx - 1]
        if marks[node]:
            row[:] = blk[marks[node][-1] - 1]
        for dep_node, dep_idx in deps:
            pos = bisect_right(marks[dep_node], dep_idx)
            if pos:
                base = marks[dep_node][pos - 1]
                np.maximum(row, blocks[dep_node][base - 1], out=row)
            if row[dep_node] < dep_idx:
                row[dep_node] = dep_idx
        row[node] = idx
        marks[node].append(idx)

    for node, blk in enumerate(blocks):
        bases = marks[node]
        if bases:  # every row from the first anchor on copies its last anchor's
            src = np.asarray(bases, dtype=np.int64)
            src = np.repeat(src, np.diff(src, append=lengths[node] + 1))
            blk[bases[0] - 1:] = blk[src - 1]
        blk[:, node] = np.arange(1, lengths[node] + 1, dtype=CLOCK_DTYPE)
    return ClockTable(data, lengths)


def message_dependencies(
    trace: Trace, reverse: bool = False
) -> dict[EventId, tuple[EventId, ...]]:
    """The cross-node dependencies of a clock pass, keyed by anchor.

    Forward, every receive depends on its send.  With ``reverse``, on
    the time-reversed trace (local index ``j`` of node ``i`` becomes
    ``k_i - j + 1``), every send depends on its receive.
    """
    if not reverse:
        return {msg.recv: (msg.send,) for msg in trace.messages}
    k = [trace.num_real(i) for i in range(trace.num_nodes)]
    return {
        (s[0], k[s[0]] - s[1] + 1): ((r[0], k[r[0]] - r[1] + 1),)
        for s, r in ((msg.send, msg.recv) for msg in trace.messages)
    }


def compute_forward_table(trace: Trace) -> ClockTable:
    """Forward vector timestamps (Definition 13) as one columnar matrix.

    Raises
    ------
    CyclicTraceError
        If the trace's happened-before relation is cyclic.
    """
    _PASS_COUNTS["forward"] += 1
    return _run_clock_pass(trace)


def compute_reverse_table(trace: Trace) -> ClockTable:
    """Reverse vector timestamps (Definition 14) as one columnar matrix.

    ``T^R(e)[i]`` counts real events on node ``i`` with ``e_i ≽ e``.
    Computed by running the forward algorithm on the time-reversed
    execution: local orders are flipped and every message edge
    ``send → recv`` becomes a dependency of (reversed) ``send`` on
    (reversed) ``recv``.  Rows go straight to their unreversed place.
    """
    _PASS_COUNTS["reverse"] += 1
    return _run_clock_pass(trace, reverse=True)


# ----------------------------------------------------------------------
# per-node list API (thin wrappers over the columnar tables)
# ----------------------------------------------------------------------
def compute_forward_clocks(trace: Trace) -> list[np.ndarray]:
    """Forward vector timestamps (Definition 13) for every real event.

    Returns one read-only ``(k_i, P)`` matrix per node whose row
    ``j - 1`` is ``T((i, j))`` — zero-copy views into one columnar
    :class:`ClockTable` (see :func:`compute_forward_table`).

    Raises
    ------
    CyclicTraceError
        If the trace's happened-before relation is cyclic.
    """
    return compute_forward_table(trace).views()


def compute_reverse_clocks(trace: Trace) -> list[np.ndarray]:
    """Reverse vector timestamps (Definition 14) for every real event.

    Returns one read-only ``(k_i, P)`` matrix per node whose row
    ``j - 1`` is ``T^R((i, j))`` — zero-copy views into one columnar
    :class:`ClockTable` (see :func:`compute_reverse_table`).
    """
    return compute_reverse_table(trace).views()
