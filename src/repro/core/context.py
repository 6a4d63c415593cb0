"""Shared analysis context: the one place timestamps and cuts are built.

The paper's amortization argument (Key Idea 1) is that relation tests
collapse to cheap vector comparisons *once the timestamp and cut
structure is established*.  Before this module, that structure was
scattered: every evaluator re-derived cut quadruples per call, each
application kept private copies of per-interval vectors, and equal
intervals constructed twice paid the fold twice.

:class:`AnalysisContext` centralises the setup state for one
:class:`~repro.events.poset.Execution`:

* a :class:`CutCache`, the one memo of each nonatomic event's Table-2
  cuts, **keyed by interval identity** (the packed component ids), so
  distinct-but-equal interval objects share one fold;
* the shared ``≪``-subtest verdict cache
  (:meth:`AnalysisContext.verdict_cache`).

An execution is immutable once built, so neither cache ever goes
stale: a longer trace is a new execution with a new context.

All three relation engines, the high-level
:class:`~repro.core.evaluator.SynchronizationAnalyzer`, the online
monitor, the application verifiers and the CLI consume this layer;
:meth:`AnalysisContext.of` hands out one shared context per execution
so independent consumers amortize each other's setup work.
"""

from __future__ import annotations

# repro: dtype-strict

import weakref
from collections.abc import Hashable, Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..events.event import EventId
from ..events.poset import Execution
from ..nonatomic.event import NonatomicEvent
from . import cuts as _cuts
from .cuts import (
    Cut,
    CutQuadruple,
    CutStats,
    _stats_from_extrema,
    cut_vector,
    empty_stats,
    flatten_extrema,
)
from .family import FamilyOperands

if TYPE_CHECKING:
    from .evaluator import SharedVerdictCache

__all__ = ["AnalysisContext", "CutCache"]

#: Cache key: :attr:`NonatomicEvent.key <repro.nonatomic.event.NonatomicEvent.key>`
#: — the packed component ids (the interval's identity), or
#: ``(x.key, "L"|"U")`` for interval ``x``'s Definition-2 proxy.
_Key = Hashable

#: The six stacked rows of a :class:`CutStats`.
_STATS = ("c1", "c2", "c3", "c4", "first", "last")

#: The two terms of an interval: its L proxy (side 0), its U proxy (side 1).
_PARTS = ("L", "U")

#: Store column of each Table-2 cut name.
_CUT_COLUMN = {"C1": "c1", "C2": "c2", "C3": "c3", "C4": "c4"}


#: A flattened owner set: ``(nodes, first_idx, last_idx, counts,
#: starts)``, owner ``o``'s entries at ``starts[o]`` onwards.
_Flat = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _term_entries(
    flat: _Flat, owner: np.ndarray, side: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flattened extrema ``(nodes, first_idx, last_idx, counts)`` of the
    terms ``(owner[t], side[t])``.

    Term ``t`` reads its owner's entries by index.  A proxy holds one
    event per node, so side 0 (``L_X``) reads X's first index twice and
    side 1 (``U_X``) its last.
    """
    nodes, first_idx, last_idx, counts, starts = flat
    cnt = counts[owner]
    shift = starts[owner] - (np.cumsum(cnt) - cnt)
    entries = np.repeat(shift, cnt) + np.arange(int(cnt.sum()), dtype=np.intp)
    index = np.where(np.repeat(side, cnt) == 1, last_idx[entries],
                     first_idx[entries])
    return nodes[entries], index, index, cnt


class CutCache:
    """The one memo of per-interval cuts for one execution.

    Entries are keyed by :attr:`NonatomicEvent.key
    <repro.nonatomic.event.NonatomicEvent.key>` — the packed component
    ids, equal exactly when the id sets are — so two
    :class:`~repro.nonatomic.event.NonatomicEvent` objects denoting the
    same set of atomic events share one cut fold, the cross-object
    amortization the per-instance ``NonatomicEvent.cache`` cannot give.
    A Definition-2 proxy is keyed ``(x.key, "L"|"U")`` after its
    interval ``x``.

    Cost model (Key Idea 1: pay once, reuse cheaply).  The batched
    fill (:meth:`family_operands`) keeps its rows as arrays: one
    growable :class:`~repro.core.cuts.CutStats` row store of
    ``CLOCK_DTYPE`` (int32) matrices and a key → row index, with no
    per-row Python object.  A per-node proxy's row is filled from its
    interval's own extrema — ``L_X`` is X's first event on each node,
    ``U_X`` its last — so no proxy object is built.  A fill writes its
    rows into the store in blocks of :data:`~repro.core.cuts.FILL_BLOCK`,
    so its scratch is a few words per term plus one block's gathers.
    Each term gets its own row: only an equal key shares one.  A
    scalar :meth:`cut` / :meth:`quadruple` read of a stored row counts
    as a hit and builds its
    :class:`~repro.core.cuts.Cut` then, on first read, widened to int64
    like a computed one.  A scalar read of a row nobody stored computes
    just the cut asked for (:func:`~repro.core.cuts.cut_vector`).  The
    reuse runs one way only: cuts filled by scalar reads are not rows,
    so a later batch asking for that term computes its row again (a
    miss).  Keys are not merged either: a proxy from
    :func:`~repro.nonatomic.proxies.proxy_of` and an interval with the
    same ids are stored apart.

    Nothing is ever evicted: the execution is immutable, so no entry
    can go stale.

    Attributes
    ----------
    hits, misses:
        Lookup counters.  ``misses`` counts rows or cuts computed;
        ``hits`` counts requests served without computing one.
        Benchmarks and the acceptance tests assert on them.
    """

    __slots__ = ("_execution", "_cuts", "_rows", "_store", "_size",
                 "hits", "misses")

    def __init__(self, execution: Execution) -> None:
        self._execution = execution
        self._cuts: dict[tuple[_Key, str], Cut] = {}
        # the batched row store: key -> row of _store, whose first
        # _size rows are filled
        self._rows: dict[_Key, int] = {}
        self._store: CutStats | None = None
        self._size = 0
        self.hits = 0
        self.misses = 0

    @property
    def execution(self) -> Execution:
        """The execution the cached structures belong to."""
        return self._execution

    def __len__(self) -> int:
        """Stored batch rows plus scalar-filled cuts."""
        return len(self._rows) + len(self._cuts)

    def _check_interval(self, x: NonatomicEvent) -> None:
        if x.execution is not self._execution:
            raise ValueError("interval does not belong to this context's execution")

    # ------------------------------------------------------------------
    # cuts
    # ------------------------------------------------------------------
    def cut(self, x: NonatomicEvent, which: str) -> Cut:
        """One Table-2 cut of ``x`` (``which`` in C1/C2/C3/C4), memoized.

        A row a batched fill stored is read, not recomputed.  Otherwise
        only the requested cut is computed: past-only consumers asking
        for C1/C2 never force the reverse clock pass that C3/C4 need.
        Any other ``which`` is a :class:`ValueError` that moves no
        counter.
        """
        column = _CUT_COLUMN.get(which)
        if column is None:
            raise ValueError(f"unknown cut: {which!r}")
        self._check_interval(x)
        key = x.key
        cached = self._cuts.get((key, which))
        if cached is not None:
            self.hits += 1
            return cached
        row = self._rows.get(key)
        if row is not None and self._store is not None:
            self.hits += 1
            vec = getattr(self._store, column)[row]  # _trusted copies it up
        else:
            self.misses += 1
            vec = cut_vector(x, which)
        result = self._cuts[(key, which)] = Cut._trusted(self._execution, vec)
        return result

    def quadruple(self, x: NonatomicEvent) -> CutQuadruple:
        """All four Table-2 cuts of ``x`` (computed once — Key Idea 1)."""
        return CutQuadruple(
            self.cut(x, "C1"), self.cut(x, "C2"),
            self.cut(x, "C3"), self.cut(x, "C4"),
        )

    # ------------------------------------------------------------------
    # columnar batch fill
    # ------------------------------------------------------------------
    def family_operands(
        self, intervals: Sequence[NonatomicEvent]
    ) -> FamilyOperands:
        """The family kernel's operands for ``intervals``.

        Looks up every interval's Definition-2 ``(L, U)`` proxy rows,
        keyed ``(x.key, "L"|"U")``, and fills the missing ones in
        **one** batched pass (:meth:`_fill`) straight from the
        intervals' per-node first/last indices, one flatten per
        interval: no proxy object and no
        :class:`~repro.core.cuts.Cut` is built.  Returns the row store
        with each interval's L and U row index
        (:class:`~repro.core.family.FamilyOperands`); the batched family
        kernel (:func:`repro.core.family.verdict_matrix`) gathers each
        block's operands from it, so no ``(k, 12, P)`` copy exists.  The
        rows stay in the store, so later scalar queries of the proxies
        hit.
        """
        ex = self._execution
        stored = self._rows
        base = self._size
        found: list[int] = []
        todo: dict[_Key, int] = {}
        terms: list[NonatomicEvent] = []
        sides: list[int] = []
        hits = 0
        for x in intervals:
            if x.execution is not ex:
                raise ValueError(
                    "interval does not belong to this context's execution"
                )
            for side, part in enumerate(_PARTS):
                key = (x.key, part)
                row = stored.get(key)
                if row is None:
                    row = todo.get(key)
                if row is None:
                    row = todo[key] = base + len(terms)
                    terms.append(x)
                    sides.append(side)
                else:
                    hits += 1
                found.append(row)
        self.hits += hits
        if terms:
            self._fill(terms, sides)
            stored.update(todo)
        store = self._store
        if store is None:
            store = empty_stats(0, ex.num_nodes)
        view = store.rows(0, self._size)
        for name in _STATS:
            getattr(view, name).setflags(write=False)
        rows = np.fromiter(found, np.intp, count=len(found))
        return FamilyOperands(view, rows[0::2], rows[1::2])

    def _fill(
        self, terms: Sequence[NonatomicEvent], sides: Sequence[int]
    ) -> None:
        """Compute the rows of the proxy terms ``(terms[t], sides[t])``
        (none stored yet; side 0 is the L proxy, 1 the U proxy) and
        append them to the store, term ``t`` at row ``t`` past the
        filled ones.

        Each distinct interval object is flattened once, however many
        of its terms are asked for; a term reads its owner's entries by
        index.  The rows are filled by the batched cut kernel
        (:func:`~repro.core.cuts._stats_from_extrema`) in blocks of
        :data:`~repro.core.cuts.FILL_BLOCK`, each written straight into
        the store."""
        slot: dict[int, int] = {}
        owners: list[NonatomicEvent] = []
        for x in terms:
            if id(x) not in slot:
                slot[id(x)] = len(owners)
                owners.append(x)
        n = len(terms)
        owner = np.fromiter((slot[id(x)] for x in terms), np.intp, count=n)
        side = np.fromiter(sides, np.int8, count=n)
        nodes, first_idx, last_idx, counts = flatten_extrema(owners)
        flat = (nodes, first_idx, last_idx, counts, np.cumsum(counts) - counts)
        base = self._size
        store = self._reserve(base + n)
        for lo in range(0, n, _cuts.FILL_BLOCK):
            hi = min(lo + _cuts.FILL_BLOCK, n)
            _stats_from_extrema(
                self._execution,
                *_term_entries(flat, owner[lo:hi], side[lo:hi]),
                out=store.rows(base + lo, base + hi),
            )
        self._size = base + n
        self.misses += n

    def _reserve(self, size: int) -> CutStats:
        """The row store, grown to hold at least ``size`` rows.

        The first fill allocates exactly; growth doubles and copies the
        filled rows."""
        store = self._store
        if store is not None and size <= len(store):
            return store
        capacity = size if store is None else max(size, 2 * len(store))
        grown = empty_stats(capacity, self._execution.num_nodes)
        if store is not None:
            for name in _STATS:
                getattr(grown, name)[:self._size] = getattr(store, name)[:self._size]
        self._store = grown
        return grown


#: One shared context per live execution (weak: contexts die with them).
_SHARED: "weakref.WeakKeyDictionary[Execution, AnalysisContext]" = (
    weakref.WeakKeyDictionary()
)


class AnalysisContext:
    """Shared evaluation substrate for one execution.

    Bundles the execution (whose reverse clock structure is built
    lazily) with the :class:`CutCache` every consumer
    draws from.  Construct one per execution — or let
    :meth:`AnalysisContext.of` hand out the process-wide shared
    instance — and pass it wherever an
    :class:`~repro.events.poset.Execution` used to go: the relation
    engines, :class:`~repro.core.evaluator.SynchronizationAnalyzer`,
    the predicate detectors and the application verifiers all accept
    either.
    """

    __slots__ = ("_execution", "_cut_cache", "_verdicts", "__weakref__")

    def __init__(self, execution: Execution) -> None:
        if isinstance(execution, AnalysisContext):  # idempotent wrap
            execution = execution.execution
        self._execution = execution
        self._cut_cache = CutCache(execution)
        self._verdicts: SharedVerdictCache | None = None

    @classmethod
    def of(cls, execution: "Execution | AnalysisContext") -> "AnalysisContext":
        """The shared context of ``execution`` (created on first use).

        Every consumer resolving its context through here shares one
        cut cache per execution — the repo-wide amortization point.
        """
        if isinstance(execution, AnalysisContext):
            return execution
        ctx = _SHARED.get(execution)
        if ctx is None:
            ctx = _SHARED[execution] = cls(execution)
        return ctx

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def execution(self) -> Execution:
        """The analysed execution."""
        return self._execution

    @property
    def backend(self) -> Execution:
        """The analysed execution, under its former name.

        Kept for ``benchmarks/suite/offline_prog.py``, which times
        ``ctx.backend.reverse_rows`` as its reverse-clock layer and
        cannot change with the library; new code reads
        :attr:`execution`.
        """
        return self._execution

    @property
    def cut_cache(self) -> CutCache:
        """The shared per-interval cut cache."""
        return self._cut_cache

    # ------------------------------------------------------------------
    # interval helpers
    # ------------------------------------------------------------------
    def interval(
        self, ids: Iterable[EventId], name: str | None = None
    ) -> NonatomicEvent:
        """Create a nonatomic event over this context's execution."""
        return NonatomicEvent(self._execution, ids, name=name)

    # ------------------------------------------------------------------
    # shared verdicts
    # ------------------------------------------------------------------
    def verdict_cache(self) -> SharedVerdictCache:
        """The shared ``≪``-subtest verdict cache (created on first use).

        Every analyzer routing a whole-family query through here
        amortizes the same ≤24 subtest verdicts per ordered interval
        pair.  Its rows are over Definition-2 proxies: an analyzer with
        Definition-3 proxies bypasses it.
        """
        from .evaluator import SharedVerdictCache

        if self._verdicts is None:
            self._verdicts = SharedVerdictCache(self)
        return self._verdicts

    def family_query_stats(self) -> dict[str, int]:
        """The family verdict cache's counters.

        ``pairs`` — ordered pairs with a memoized 24-subtest verdict
        row; ``fills`` — batched kernel invocations; ``evals`` /
        ``cut_pair_evals`` — subtest evaluations performed (total /
        cut-pair ``≪`` subset); ``hits`` — verdict-row reads served
        from the cache.  All zero until a family query runs; the CLI
        run-stats line reads this.
        """
        vc = self._verdicts
        if vc is None:
            return dict.fromkeys(
                ("pairs", "fills", "evals", "cut_pair_evals", "hits"), 0
            )
        return {
            "pairs": vc.pairs_cached, "fills": vc.fills, "evals": vc.evals,
            "cut_pair_evals": vc.cut_pair_evals, "hits": vc.hits,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AnalysisContext({self._execution!r}, cached={len(self._cut_cache)}, "
            f"hits={self._cut_cache.hits}, misses={self._cut_cache.misses})"
        )
