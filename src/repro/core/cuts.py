"""Cuts of an execution and the ``≪`` relation (Sections 2.1–2.2).

A *cut* (Definition 5) is the union of a downward-closed subset of each
local execution ``E_i`` — i.e. a per-node prefix.  Cuts need **not** be
globally consistent global states: the complement-of-causal-future cut
``e↑`` is explicitly not downward-closed in ``(E, ≺)``.

Representation
--------------
A cut is represented by an integer vector ``c`` of length ``|P|`` where
``c[i]`` is the local index of the cut's *surface* event at node ``i``
(Definition 6): ``0`` means the prefix contains only ``⊥_i``; ``k_i+1``
means it extends through ``⊤_i``.  Under the index conventions of this
reproduction the vector doubles as the cut's timestamp ``T(C)``
(Definition 15): ``T(C)[i]`` is the local index of the latest event of
``C`` at node ``i``.

This module implements:

* :class:`Cut` with lattice operations (Lemma 16: union = componentwise
  ``max``, intersection = componentwise ``min``);
* the special cuts ``↓e`` (Def. 8) and ``e↑`` (Def. 9);
* the four cuts of a nonatomic event (Table 2 / Definition 10):
  ``C1(X)=∩⇓X``, ``C2(X)=∪⇓X``, ``C3(X)=∩⇑X``, ``C4(X)=∪⇑X``,
  computed two ways only: one interval at a time (:func:`cut_vector`)
  or for a whole interval set by one blocked array kernel
  (:func:`cut_stats`, :class:`CutStats`);
* the ``≪`` relation in its canonical vector form *and* in the four
  literal set-based forms of Definition 7 (property-tested equivalent);
* slow reference (set-based) constructions of all the above, used as
  oracles by tests and as the "no condensation" baseline by benchmarks.
"""

from __future__ import annotations

# repro: hot, dtype-strict

from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from itertools import chain

import numpy as np

from ..events.clocks import CLOCK_DTYPE
from ..events.event import EventId
from ..events.poset import Execution
from ..nonatomic.event import NonatomicEvent

__all__ = [
    "Cut",
    "CutQuadruple",
    "CutStats",
    "FILL_BLOCK",
    "check_extrema",
    "cut_stats",
    "cut_vector",
    "empty_stats",
    "flatten_extrema",
    "past_cut",
    "future_cut",
    "cut_intersection",
    "cut_union",
    "cut_C1",
    "cut_C2",
    "cut_C3",
    "cut_C4",
    "cuts_of",
    "ll",
    "not_ll",
    "ll_form1",
    "not_ll_form2",
    "ll_form3",
    "not_ll_form4",
    "reference_past_set",
    "reference_future_cut_set",
    "cut_from_event_set",
]


class Cut:
    """An execution prefix, represented by its surface index vector.

    Instances are immutable; the vector is a read-only int64 array.
    """

    __slots__ = ("_execution", "_vec")

    def __init__(self, execution: Execution, vector: Sequence[int]) -> None:
        vec = np.asarray(vector, dtype=np.int64).copy()
        if vec.shape != (execution.num_nodes,):
            raise ValueError(
                f"cut vector must have length {execution.num_nodes}, "
                f"got shape {vec.shape}"
            )
        for i, v in enumerate(vec):
            if not (0 <= v <= execution.num_real(i) + 1):
                raise ValueError(
                    f"cut component {i} = {v} out of range "
                    f"[0, {execution.num_real(i) + 1}]"
                )
        vec.setflags(write=False)
        self._execution = execution
        self._vec = vec

    @classmethod
    def _trusted(cls, execution: Execution, vec: np.ndarray) -> "Cut":
        """Wrap an already-validated, read-only int64 vector (no copy).

        Fast path for the columnar batch kernels, whose outputs are
        in-range by construction; skipping the per-component Python
        validation loop is what keeps the one-pass cut fill vectorized
        end to end.  A narrower vector (a ``CLOCK_DTYPE`` row of the
        batch row store) is copied up to int64, so equal cuts compare
        and hash alike whichever path built them.
        """
        if vec.dtype != np.int64:
            vec = vec.astype(np.int64)
            vec.setflags(write=False)
        cut = object.__new__(cls)
        cut._execution = execution
        cut._vec = vec
        return cut

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def execution(self) -> Execution:
        """The execution this cut is a prefix of."""
        return self._execution

    @property
    def vector(self) -> np.ndarray:
        """The surface index vector ``T(C)`` (read-only)."""
        return self._vec

    @property
    def timestamp(self) -> np.ndarray:
        """Alias for :attr:`vector` — the cut timestamp of Def. 15."""
        return self._vec

    def contains(self, eid: EventId) -> bool:
        """True iff the (real or dummy) event ``eid`` belongs to the cut.

        Every cut contains all ``⊥_i`` (index 0) by definition.
        """
        node, idx = eid
        return 0 <= node < len(self._vec) and 0 <= idx <= self._vec[node]

    def surface_ids(self) -> tuple[EventId, ...]:
        """``S(C)`` (Definition 6): the latest event of the cut at every
        node — possibly a dummy ``⊥_i`` (index 0) or ``⊤_i``."""
        return tuple((i, int(v)) for i, v in enumerate(self._vec))

    def real_surface_ids(self) -> tuple[EventId, ...]:
        """The surface events that are real (excluding ``⊥``/``⊤``)."""
        ex = self._execution
        return tuple(
            (i, int(v))
            for i, v in enumerate(self._vec)
            if 1 <= v <= ex.num_real(i)
        )

    @property
    def support(self) -> tuple[int, ...]:
        """Nodes whose prefix extends beyond ``⊥_i`` (``c[i] >= 1``)."""
        return tuple(int(i) for i in np.flatnonzero(self._vec >= 1))

    @property
    def node_set(self) -> tuple[int, ...]:
        """``N_C`` per Definition 1: nodes contributing a *real* event."""
        ex = self._execution
        return tuple(
            i for i, v in enumerate(self._vec) if v >= 1 and ex.num_real(i) >= 1
        )

    def is_bottom(self) -> bool:
        """True iff the cut is ``E^⊥`` (contains only the ``⊥_i``)."""
        return not self._vec.any()

    def event_ids(self) -> set[EventId]:
        """All *real* event ids in the cut (``O(|C|)``; for small cuts,
        tests and reference computations)."""
        ex = self._execution
        out: set[EventId] = set()
        for i, v in enumerate(self._vec):
            hi = min(int(v), ex.num_real(i))
            out.update((i, j) for j in range(1, hi + 1))
        return out

    def is_downward_closed(self) -> bool:
        """True iff the cut is downward-closed in the *global* order
        ``(E, ≺)`` (i.e. a consistent global state).

        ``↓e`` and the past cuts C1/C2 are; ``e↑`` and the future cuts
        C3/C4 generally are not (the paper points this out after
        Lemma 11).  A prefix through ``⊤_i`` is downward-closed only if
        it contains every real event.
        """
        ex = self._execution
        for i, v in enumerate(self._vec):
            v = int(v)
            if v == 0:
                continue
            if v == ex.num_real(i) + 1:
                # ⊤_i is preceded by every real event of every node.
                if any(
                    self._vec[j] < ex.num_real(j) for j in range(len(self._vec))
                ):
                    return False
                continue
            clock = ex.clock((i, v))
            if np.any(clock > self._vec):
                return False
        return True

    # ------------------------------------------------------------------
    # lattice structure
    # ------------------------------------------------------------------
    def union(self, other: "Cut") -> "Cut":
        """Cut union (componentwise ``max``; Lemma 16)."""
        self._check_same(other)
        return Cut(self._execution, np.maximum(self._vec, other._vec))

    def intersection(self, other: "Cut") -> "Cut":
        """Cut intersection (componentwise ``min``; Lemma 16)."""
        self._check_same(other)
        return Cut(self._execution, np.minimum(self._vec, other._vec))

    def issubset(self, other: "Cut") -> bool:
        """Set inclusion ``C ⊆ C'`` (componentwise ``<=``)."""
        self._check_same(other)
        return bool(np.all(self._vec <= other._vec))

    def _check_same(self, other: "Cut") -> None:
        if self._execution is not other._execution:
            raise ValueError("cuts belong to different executions")

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cut):
            return NotImplemented
        return self._execution is other._execution and bool(
            np.array_equal(self._vec, other._vec)
        )

    def __hash__(self) -> int:
        return hash((id(self._execution), self._vec.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cut({list(map(int, self._vec))})"


# ----------------------------------------------------------------------
# special cuts of atomic events (Definitions 8 and 9)
# ----------------------------------------------------------------------
def past_cut(execution: Execution, eid: EventId) -> Cut:
    """``↓e`` (Definition 8): the causal past of ``e``, as a cut.

    ``T(↓e) = T(e)``: component ``i`` is the number of node-``i``
    events causally ``≼ e``.
    """
    execution.check_id(eid)
    return Cut(execution, execution.clock(eid))


def future_cut(execution: Execution, eid: EventId) -> Cut:
    """``e↑`` (Definition 9): the complement of the causal future.

    At each node the prefix extends up to and *including* the earliest
    event causally ``≽ e`` (``⊤_i`` if no real event there is).  With
    reverse timestamps, ``T(e↑)[i] = k_i + 1 - T^R(e)[i]`` — the
    paper's ``|E_i| - T^R(x)[i] - 1`` under its dummy-inclusive count.
    """
    execution.check_id(eid)
    lengths = np.asarray(execution.lengths, dtype=np.int64)
    return Cut(execution, lengths + 1 - execution.rclock(eid))


# ----------------------------------------------------------------------
# lattice folds (Lemma 16)
# ----------------------------------------------------------------------
def cut_intersection(cuts: Iterable[Cut]) -> Cut:
    """Intersection of one or more cuts (componentwise ``min``)."""
    it = iter(cuts)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("cut_intersection requires at least one cut") from None
    vec = first.vector.copy()
    ex = first.execution
    for c in it:
        if c.execution is not ex:
            raise ValueError("cuts belong to different executions")
        np.minimum(vec, c.vector, out=vec)
    return Cut(ex, vec)


def cut_union(cuts: Iterable[Cut]) -> Cut:
    """Union of one or more cuts (componentwise ``max``)."""
    it = iter(cuts)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("cut_union requires at least one cut") from None
    vec = first.vector.copy()
    ex = first.execution
    for c in it:
        if c.execution is not ex:
            raise ValueError("cuts belong to different executions")
        np.maximum(vec, c.vector, out=vec)
    return Cut(ex, vec)


# ----------------------------------------------------------------------
# the four cuts of a nonatomic event (Table 2)
# ----------------------------------------------------------------------
def cut_vector(x: NonatomicEvent, which: str) -> np.ndarray:
    """One Table-2 cut timestamp of ``x``, uncached, as a read-only
    int64 vector (``which`` in ``C1``/``C2``/``C3``/``C4``).

    Per the observation at the end of Section 2.3, only the per-node
    *least* (C1, C3) or *greatest* (C2, C4) component events need to be
    folded: one gather of their clock rows and one componentwise
    ``min``/``max``, ``O(|N_X| · |P|)``.  Past cuts (C1/C2) never force
    the lazy reverse pass.  The one scalar cut computation:
    :func:`cut_C1`–:func:`cut_C4` and every
    :meth:`~repro.core.context.CutCache.cut` miss call it.
    """
    ex = x.execution
    if which == "C1":
        vec = ex.forward_rows(x.first_ids()).min(axis=0)
    elif which == "C2":
        vec = ex.forward_rows(x.last_ids()).max(axis=0)
    elif which in ("C3", "C4"):
        beyond = np.asarray(ex.lengths, dtype=np.int64) + 1
        if which == "C3":
            vec = beyond - ex.reverse_rows(x.first_ids()).max(axis=0)
        else:
            vec = beyond - ex.reverse_rows(x.last_ids()).min(axis=0)
    else:
        raise ValueError(f"unknown cut: {which!r}")
    vec = np.ascontiguousarray(vec, dtype=np.int64)
    vec.setflags(write=False)
    return vec


def cut_C1(x: NonatomicEvent) -> Cut:
    """``C1(X) = ∩⇓X = ∩_{x∈X} ↓x`` — the maximum execution prefix
    every component event of X has knowledge of (a componentwise
    ``min`` over the per-node least component events).

    Computed on every call; ``AnalysisContext.of(x.execution).cut_cache``
    is the memo."""
    return Cut._trusted(x.execution, cut_vector(x, "C1"))


def cut_C2(x: NonatomicEvent) -> Cut:
    """``C2(X) = ∪⇓X = ∪_{x∈X} ↓x`` — the maximum prefix the events of
    X *collectively* have knowledge of.  Folds the per-node *greatest*
    component events with componentwise ``max``.

    Computed on every call; ``AnalysisContext.of(x.execution).cut_cache``
    is the memo."""
    return Cut._trusted(x.execution, cut_vector(x, "C2"))


def cut_C3(x: NonatomicEvent) -> Cut:
    """``C3(X) = ∩⇑X = ∩_{x∈X} x↑`` — its surface holds the earliest
    event per node causally preceded by *some* component of X.

    Computed on every call; ``AnalysisContext.of(x.execution).cut_cache``
    is the memo."""
    return Cut._trusted(x.execution, cut_vector(x, "C3"))


def cut_C4(x: NonatomicEvent) -> Cut:
    """``C4(X) = ∪⇑X = ∪_{x∈X} x↑`` — its surface holds the earliest
    event per node causally preceded by *every* component of X.

    Computed on every call; ``AnalysisContext.of(x.execution).cut_cache``
    is the memo."""
    return Cut._trusted(x.execution, cut_vector(x, "C4"))


@dataclass(frozen=True, slots=True)
class CutQuadruple:
    """The four cuts of Table 2 for one nonatomic event."""

    c1: Cut  # ∩⇓X
    c2: Cut  # ∪⇓X
    c3: Cut  # ∩⇑X
    c4: Cut  # ∪⇑X


def cuts_of(x: NonatomicEvent) -> CutQuadruple:
    """All four Table-2 cuts of ``x``, computed on every call.

    Nothing is cached: ``AnalysisContext.of(x.execution).cut_cache``
    is the memo that pays each fold once (Key Idea 1).
    """
    return CutQuadruple(cut_C1(x), cut_C2(x), cut_C3(x), cut_C4(x))


# ----------------------------------------------------------------------
# columnar batch kernel: all four cuts for a whole interval set at once
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class CutStats:
    """Stacked per-interval cut and extremal vectors for k intervals.

    Six ``(k, P)`` ``CLOCK_DTYPE`` (int32, the clock width) matrices,
    rows aligned with the interval order they were built from: the four
    Table-2 cut timestamps plus the per-node first/last component
    indices (0 encoding "node not in ``N_X``").  Every value is a local
    event index or ``k_i + 1``, so the clock width holds it.  This is
    the complete per-interval state the vectorized relation conditions
    consume: :class:`~repro.core.context.CutCache` keeps its row store
    in one, and the family kernel
    (:func:`repro.core.family.verdict_matrix`) gathers its operands
    from it.
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
    intervals: Sequence[NonatomicEvent],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten ``intervals``' per-node extremal events, interval-major.

    Returns ``(nodes, first_idx, last_idx, counts)`` — the input of the
    batched cut fill (:func:`_stats_from_extrema`), with ``counts[i]``
    entries for interval ``i``.  This is the single adapter from
    interval objects to that kernel, so the layout cannot drift between
    callers.  It reads each interval's aligned node/first/last tuples
    as they are stored.  Nodes and local indices are ``CLOCK_DTYPE``: a
    local index is a clock value.
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
    execution: Execution,
    nodes: np.ndarray,
    first_idx: np.ndarray,
    last_idx: np.ndarray,
    counts: np.ndarray,
    out: CutStats | None = None,
) -> CutStats:
    """The batched cut fill: the one array kernel behind
    :func:`cut_stats` and :class:`~repro.core.context.CutCache`.

    ``nodes``/``first_idx``/``last_idx`` are the flattened per-node
    extremal events of all intervals (interval-major, ``counts[i]``
    entries for interval ``i``, as :func:`flatten_extrema` lays them
    out).  A cut depends on an interval only through these extrema, so
    a caller holding them (a Definition-2 proxy *is* one extremal event
    per node) needs no interval object.  All four Table-2 cut vectors
    for every interval come out of four gathers and four segmented
    min/max reductions over ``execution``'s columnar clock tables — no
    per-interval Python loop.  The intervals go through in blocks of
    :data:`FILL_BLOCK`, each reduced straight into its rows of ``out``
    (``k`` writable ``CLOCK_DTYPE`` rows, :func:`empty_stats`; a new
    read-only :class:`CutStats` when omitted), so no gather spans all
    intervals.  Out-of-range extrema raise :class:`ValueError`
    (:func:`check_extrema`) before the reverse table is read.
    """
    fwd = execution.forward_table
    lengths = fwd.lengths
    check_extrema(lengths, nodes, first_idx, last_idx, counts)
    rev = execution.reverse_table
    k = len(counts)
    stats = empty_stats(k, fwd.data.shape[1]) if out is None else out
    if len(stats) != k:
        raise ValueError(f"out holds {len(stats)} rows, not {k}")
    ends = np.cumsum(counts)
    beyond = (lengths + 1).astype(CLOCK_DTYPE)  # T(e↑) = k_i + 1 - T^R(e)
    for lo in range(0, k, FILL_BLOCK):
        hi = min(lo + FILL_BLOCK, k)
        a = int(ends[lo - 1]) if lo else 0
        b = int(ends[hi - 1])
        _fill_block(
            fwd.data, rev.data, fwd.offsets, beyond, nodes[a:b],
            first_idx[a:b], last_idx[a:b], counts[lo:hi], stats.rows(lo, hi),
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


def cut_stats(
    execution: Execution, intervals: Sequence[NonatomicEvent]
) -> CutStats:
    """All four Table-2 cuts (plus extremal vectors) for a whole
    interval set in one vectorized pass over the columnar clock tables.

    Row ``i`` equals ``cuts_of(intervals[i])``'s vectors — the
    equivalence is property-tested — but the fill is a single
    gather-and-reduce over the ``(|E|, |P|)`` matrices
    (:func:`_stats_from_extrema`) instead of a per-interval Python
    fold, which is what the ``≥5x`` cut-fill speedup of
    ``benchmarks/bench_setup_amortization.py`` measures.  Nothing is
    cached; :meth:`repro.core.context.CutCache.family_operands` is the
    memoized batch entry point.
    """
    for iv in intervals:
        if iv.execution is not execution:
            raise ValueError("interval does not belong to this execution")
    return _stats_from_extrema(execution, *flatten_extrema(intervals))


# ----------------------------------------------------------------------
# the ≪ relation (Definition 7)
# ----------------------------------------------------------------------
def ll(c: Cut, cp: Cut) -> bool:
    """``≪(C, C')`` in canonical vector form.

    ``C ≪ C'`` iff ``C'`` is not ``E^⊥`` and, at every node where C
    extends beyond ``⊥``, C's prefix is strictly shorter than C's:
    ``∀i: c[i] = 0 ∨ c[i] < c'[i]``.
    """
    v, w = c.vector, cp.vector
    if not w.any():
        return False
    return bool(np.all((v == 0) | (v < w)))


def not_ll(c: Cut, cp: Cut) -> bool:
    """``≪̸(C, C')`` — some surface event of C equals or happens
    causally after some surface event of C'.  This is the form the
    relation evaluations of Table 1 consume."""
    return not ll(c, cp)


# Literal set-based renderings of Definition 7's four forms.  Forms 1
# and 3 define ≪; forms 2 and 4 (their De Morgan duals) define ≪̸, as
# the paper notes below the definition.  These are O(|P| + |C|) and
# exist to be property-tested against the canonical vector form.

def _surface_non_bottom(c: Cut) -> list[EventId]:
    return [eid for eid in c.surface_ids() if eid[1] != 0]


def ll_form1(c: Cut, cp: Cut) -> bool:
    """Definition 7.1: every non-``⊥`` surface event of C is inside C'
    but not on its surface, and C' is not ``E^⊥``."""
    if cp.is_bottom():
        return False
    surface_cp = set(cp.surface_ids())
    return all(
        z not in surface_cp and cp.contains(z) for z in _surface_non_bottom(c)
    )


def not_ll_form2(c: Cut, cp: Cut) -> bool:
    """Definition 7.2 (a condition for ``≪̸``): some non-``⊥`` surface
    event of C lies on C's surface or outside C', or C' is ``E^⊥``."""
    if cp.is_bottom():
        return True
    surface_cp = set(cp.surface_ids())
    return any(
        z in surface_cp or not cp.contains(z) for z in _surface_non_bottom(c)
    )


def ll_form3(c: Cut, cp: Cut) -> bool:
    """Definition 7.3: no non-``⊥`` surface event of C' is inside C,
    C' is not ``E^⊥``, and the support of C is contained in that of C'.

    The containment clause uses the cut *support* (``c[i] >= 1``), the
    reading under which the four forms coincide even when a prefix ends
    at a ``⊤_i`` (see DESIGN.md §2).
    """
    if cp.is_bottom():
        return False
    if not set(c.support) <= set(cp.support):
        return False
    return all(not c.contains(z) for z in _surface_non_bottom(cp))


def not_ll_form4(c: Cut, cp: Cut) -> bool:
    """Definition 7.4 (a condition for ``≪̸``): some non-``⊥`` surface
    event of C' is inside C, or C' is ``E^⊥``, or C's support is not
    contained in C's."""
    if cp.is_bottom():
        return True
    if not set(c.support) <= set(cp.support):
        return True
    return any(c.contains(z) for z in _surface_non_bottom(cp))


# ----------------------------------------------------------------------
# slow reference constructions (oracles and baselines)
# ----------------------------------------------------------------------
def reference_past_set(execution: Execution, eid: EventId) -> frozenset[EventId]:
    """``↓e`` as an explicit set of real events, computed from pairwise
    precedence tests (no condensation).  Oracle for :func:`past_cut`."""
    return frozenset(
        other
        # repro-lint: disable=REP004 -- deliberately slow reference oracle
        for other in execution.iter_ids()
        if execution.leq(other, eid)
    )


def reference_future_cut_set(
    execution: Execution, eid: EventId
) -> frozenset[EventId]:
    """``e↑`` as an explicit set of real events, straight from
    Definition 9: all events not ``≽ e`` plus, per node, the earliest
    event ``≽ e``.  Oracle for :func:`future_cut` (real part)."""
    not_future = {
        other
        # repro-lint: disable=REP004 -- deliberately slow reference oracle
        for other in execution.iter_ids()
        if not execution.leq(eid, other)
    }
    for i in range(execution.num_nodes):
        for j in range(1, execution.num_real(i) + 1):
            if execution.leq(eid, (i, j)):
                not_future.add((i, j))
                break
    return frozenset(not_future)


def cut_from_event_set(
    execution: Execution, events: Iterable[EventId]
) -> Cut:
    """Build the cut whose real content is exactly ``events``.

    ``events`` must form per-node prefixes of real events (``⊤``
    membership cannot be expressed through this constructor).

    Raises
    ------
    ValueError
        If the set is not prefix-closed on some node.
    """
    vec = np.zeros(execution.num_nodes, dtype=np.int64)
    counts = np.zeros(execution.num_nodes, dtype=np.int64)
    for node, idx in events:
        counts[node] += 1
        if idx > vec[node]:
            vec[node] = idx
    if not np.array_equal(vec, counts):
        raise ValueError("event set is not per-node prefix-closed")
    return Cut(execution, vec)
