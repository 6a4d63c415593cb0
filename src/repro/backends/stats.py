"""Cut-statistics containers and columnar kernels.

:class:`CutStats` is the stacked per-interval answer of a batched cut
fill — the complete per-interval state the vectorized relation
conditions consume.  The segmented
gather-and-reduce kernel :func:`_stats_from_extrema` and its raw-array
entry points (:func:`cut_stats_from_arrays`,
:func:`cut_stats_from_extrema`) operate on *columnar clock matrices*
and therefore belong to the vector-clock substrate, but they are kept
here — below :mod:`repro.core` — so
:class:`~repro.backends.vector.VectorClockBackend` and callers holding
raw matrices but no :class:`~repro.events.poset.Execution` can share
one implementation.  Every entry point checks its extrema first
(:func:`check_extrema`); :func:`flatten_extrema` is the one adapter
from interval objects to the flat arrays they take.

Historically these lived in :mod:`repro.core.cuts`, which still
re-exports them for compatibility.
"""

from __future__ import annotations

# repro: hot, dtype-strict

from dataclasses import dataclass
from collections.abc import Sequence
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from ..events.clocks import CLOCK_DTYPE
from ..events.event import EventId

if TYPE_CHECKING:
    from ..nonatomic.event import NonatomicEvent

__all__ = [
    "CutStats",
    "check_extrema",
    "empty_stats",
    "flatten_extrema",
    "cut_stats_from_arrays",
    "cut_stats_from_extrema",
]


@dataclass(frozen=True, slots=True)
class CutStats:
    """Stacked per-interval cut and extremal vectors for k intervals.

    Six ``(k, P)`` ``CLOCK_DTYPE`` (int32, the clock width) matrices,
    rows aligned with the interval order they were built from: the four
    Table-2 cut timestamps plus the per-node first/last component
    indices (0 encoding "node not in ``N_X``").  Every value is a local
    event index or ``k_i + 1``, so the clock width holds it.  This is
    the complete per-interval state the vectorized relation conditions
    consume — both the all-pairs kernel (:mod:`repro.core.pairwise`)
    and the per-query gather kernel
    (:func:`repro.core.family.gather_verdicts`).
    """

    c1: np.ndarray  # T(∩⇓X)
    c2: np.ndarray  # T(∪⇓X)
    c3: np.ndarray  # T(∩⇑X)
    c4: np.ndarray  # T(∪⇑X)
    first: np.ndarray
    last: np.ndarray

    def __len__(self) -> int:
        return self.c1.shape[0]

    def rows(self, lo: int, hi: int) -> "CutStats":
        """Rows ``lo:hi`` of every matrix, as views (no copy)."""
        return CutStats(
            self.c1[lo:hi], self.c2[lo:hi], self.c3[lo:hi], self.c4[lo:hi],
            self.first[lo:hi], self.last[lo:hi],
        )


#: Intervals per block of the batched cut fill
#: (:func:`_stats_from_extrema`): each block gathers at most
#: ``FILL_BLOCK · P`` clock rows, whatever the interval count.
FILL_BLOCK = 4096


def empty_stats(k: int, num_nodes: int) -> CutStats:
    """A writable, uninitialised ``k``-row :class:`CutStats`: a fill's ``out``.

    Six ``(k, num_nodes)`` ``CLOCK_DTYPE`` matrices.
    """
    return CutStats(*(
        np.empty((k, num_nodes), dtype=CLOCK_DTYPE) for _ in range(6)
    ))


def flatten_extrema(
    intervals: "Sequence[NonatomicEvent]",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten ``intervals``' per-node extremal events, interval-major.

    Returns ``(nodes, first_idx, last_idx, counts)`` — the input of
    :meth:`~repro.backends.vector.VectorClockBackend.cut_stats_arrays`,
    with ``counts[i]`` entries for interval ``i``.  This is the single
    adapter from interval objects to that array entry point, so the
    layout cannot drift between callers.  It reads each interval's
    aligned node/first/last tuples as they are stored.  Nodes and local
    indices are ``CLOCK_DTYPE``: a local index is a clock value.
    """
    k = len(intervals)
    counts = np.fromiter((iv.width for iv in intervals), np.intp, count=k)
    total = int(counts.sum())
    nodes = np.fromiter(
        chain.from_iterable(iv.node_set for iv in intervals),
        CLOCK_DTYPE, count=total,
    )
    first_idx = np.fromiter(
        chain.from_iterable(iv.first_indices() for iv in intervals),
        CLOCK_DTYPE, count=total,
    )
    last_idx = np.fromiter(
        chain.from_iterable(iv.last_indices() for iv in intervals),
        CLOCK_DTYPE, count=total,
    )
    return nodes, first_idx, last_idx, counts


def check_extrema(
    lengths: np.ndarray,
    nodes: np.ndarray,
    first_idx: np.ndarray,
    last_idx: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Reject flattened extrema that name no real event range.

    Every entry must satisfy ``0 <= node < P`` and ``1 <= first_idx <=
    last_idx <= lengths[node]``, and every interval needs at least one
    entry.  One vectorised test; raises :class:`ValueError` naming the
    first bad entry (a ``⊥`` index 0 or an index past ``k_node`` would
    otherwise gather a neighbouring node's clock row).
    """
    if int(counts.sum()) != nodes.shape[0] or (counts.size and counts.min() < 1):
        raise ValueError("counts must be positive and sum to the number of entries")
    num_nodes = lengths.shape[0]
    on_node = (nodes >= 0) & (nodes < num_nodes)
    bad = ~on_node | (first_idx < 1) | (first_idx > last_idx)
    bad |= last_idx > lengths[np.where(on_node, nodes, 0)]
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"extremal entry {i}: node {int(nodes[i])}, indices "
            f"{int(first_idx[i])}..{int(last_idx[i])} name no real events "
            f"of the execution ({num_nodes} nodes)"
        )


def _stats_from_extrema(
    fwd: np.ndarray,
    rev: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    nodes: np.ndarray,
    first_idx: np.ndarray,
    last_idx: np.ndarray,
    counts: np.ndarray,
    out: CutStats | None = None,
) -> CutStats:
    """The columnar cut fill.

    ``nodes``/``first_idx``/``last_idx`` are the flattened per-node
    extremal events of all intervals (interval-major, ``counts[i]``
    entries for interval ``i``); ``fwd``/``rev`` are the columnar clock
    matrices and ``offsets`` the node-major row offsets.  All four
    Table-2 cut vectors for every interval come out of four gathers and
    four segmented min/max reductions — no per-interval Python loop.
    The intervals go through in blocks of :data:`FILL_BLOCK`, each
    reduced straight into its rows of ``out`` (``k`` writable
    ``CLOCK_DTYPE`` rows, :func:`empty_stats`; a new read-only
    :class:`CutStats` when omitted), so no gather spans all intervals.
    Out-of-range extrema raise :class:`ValueError` (:func:`check_extrema`).
    """
    check_extrema(lengths, nodes, first_idx, last_idx, counts)
    k = len(counts)
    stats = empty_stats(k, fwd.shape[1]) if out is None else out
    if len(stats) != k:
        raise ValueError(f"out holds {len(stats)} rows, not {k}")
    ends = np.cumsum(counts)
    beyond = (lengths + 1).astype(CLOCK_DTYPE)  # T(e↑) = k_i + 1 - T^R(e)
    for lo in range(0, k, FILL_BLOCK):
        hi = min(lo + FILL_BLOCK, k)
        a = int(ends[lo - 1]) if lo else 0
        b = int(ends[hi - 1])
        _fill_block(
            fwd, rev, offsets, beyond, nodes[a:b], first_idx[a:b],
            last_idx[a:b], counts[lo:hi], stats.rows(lo, hi),
        )
    if out is None:
        for mat in (stats.c1, stats.c2, stats.c3, stats.c4, stats.first,
                    stats.last):
            mat.setflags(write=False)
    return stats


def _fill_block(
    fwd: np.ndarray,
    rev: np.ndarray,
    offsets: np.ndarray,
    beyond: np.ndarray,
    nodes: np.ndarray,
    first_idx: np.ndarray,
    last_idx: np.ndarray,
    counts: np.ndarray,
    out: CutStats,
) -> None:
    """One block of :func:`_stats_from_extrema`, written into ``out``."""
    starts = np.zeros(len(counts), dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    base = offsets[nodes] - 1
    fi = base + first_idx
    li = base + last_idx
    np.minimum.reduceat(fwd[fi], starts, axis=0, out=out.c1)
    np.maximum.reduceat(fwd[li], starts, axis=0, out=out.c2)
    np.maximum.reduceat(rev[fi], starts, axis=0, out=out.c3)
    np.subtract(beyond, out.c3, out=out.c3)
    np.minimum.reduceat(rev[li], starts, axis=0, out=out.c4)
    np.subtract(beyond, out.c4, out=out.c4)
    row_of = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
    out.first.fill(0)
    out.last.fill(0)
    out.first[row_of, nodes] = first_idx
    out.last[row_of, nodes] = last_idx


def cut_stats_from_arrays(
    fwd: np.ndarray,
    rev: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    id_groups: Sequence[Sequence[EventId]],
) -> CutStats:
    """Batched cut fill over raw columnar arrays and raw id groups.

    The substrate-only entry point for callers holding the clock
    matrices but no :class:`~repro.events.poset.Execution`.  Per-node
    extremal events are derived from each id group here.
    """
    nodes_l: list[int] = []
    first_l: list[int] = []
    last_l: list[int] = []
    counts = np.empty(len(id_groups), dtype=np.intp)
    for g, ids in enumerate(id_groups):
        first: dict[int, int] = {}
        last: dict[int, int] = {}
        for node, idx in sorted(ids):
            if node not in first:
                first[node] = idx
            last[node] = idx
        counts[g] = len(first)
        nodes_l.extend(first)
        first_l.extend(first.values())
        last_l.extend(last.values())
    return _stats_from_extrema(
        fwd, rev,
        np.asarray(offsets, dtype=np.int64),
        np.asarray(lengths, dtype=np.int64),
        np.asarray(nodes_l, dtype=np.int64),
        np.asarray(first_l, dtype=np.int64),
        np.asarray(last_l, dtype=np.int64),
        counts,
    )


def cut_stats_from_extrema(
    fwd: np.ndarray,
    rev: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    extrema: Sequence[tuple[Sequence[int], Sequence[int], Sequence[int]]],
) -> CutStats:
    """Batched cut fill over raw arrays and precomputed extrema.

    ``extrema[i]`` is ``(nodes, first_indices, last_indices)`` for
    interval ``i`` — exactly the per-node extremal encoding
    :class:`~repro.nonatomic.event.NonatomicEvent` precomputes — an
    ``O(|N_X|)`` description of the interval instead of its ``O(|X|)``
    component id set.
    """
    counts = np.fromiter(
        (len(nodes) for nodes, _f, _l in extrema), np.intp, count=len(extrema)
    )
    nodes = np.fromiter(
        (n for ns, _f, _l in extrema for n in ns), np.int64, count=counts.sum()
    )
    first_idx = np.fromiter(
        (j for _ns, fs, _l in extrema for j in fs), np.int64, count=counts.sum()
    )
    last_idx = np.fromiter(
        (j for _ns, _f, ls in extrema for j in ls), np.int64, count=counts.sum()
    )
    return _stats_from_extrema(
        fwd, rev,
        np.asarray(offsets, dtype=np.int64),
        np.asarray(lengths, dtype=np.int64),
        nodes, first_idx, last_idx, counts,
    )
