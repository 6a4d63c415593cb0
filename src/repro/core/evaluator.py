"""High-level facade for evaluating synchronization relations.

:class:`SynchronizationAnalyzer` answers the paper's Problem 4 for a
recorded execution:

(i)  *does a specific relation r(X, Y) hold?* — :meth:`holds`;
(ii) *which relations hold?* — :meth:`all_relations` /
     :meth:`base_relations` / :meth:`strongest`.

The engine is selectable (``"naive"`` / ``"polynomial"`` / ``"linear"``)
so applications, tests and benchmarks exercise the same API while
comparing the three evaluation strategies.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from typing import overload

import numpy as np

from ..events.event import EventId
from ..events.poset import Execution
from ..nonatomic.event import NonatomicEvent
from ..nonatomic.proxies import Proxy, ProxyDefinition, proxy_of
from .context import AnalysisContext
from .counting import ComparisonCounter
from .family import N_SUBTESTS, verdict_matrix
from .hierarchy import evaluate_all_pruned, maximal_true
from .linear import LinearEvaluator
from .naive import NaiveEvaluator
from .polynomial import PolynomialEvaluator
from .relations import (
    BASE_RELATIONS,
    FAMILY32,
    SUBTEST_COLUMNS,
    SUBTEST_KEYS,
    Relation,
    RelationSpec,
    SubtestKind,
    parse_spec,
    subtest_key,
)

__all__ = [
    "SynchronizationAnalyzer",
    "SharedVerdictCache",
    "VerdictTable",
    "VerdictRowView",
    "ENGINES",
]

_N_CUT_PAIR = sum(
    1 for k in SUBTEST_KEYS if k[0] is SubtestKind.EXISTS_CUT
)

#: One pair's 24 subtest verdicts, indexed by
#: :data:`~repro.core.relations.SUBTEST_COLUMNS`.
VerdictRow = tuple[bool, ...]

#: spec → verdict-table column, precomputed for the whole query surface
#: so family readers are pure indexing (zero canonicalisation work).
_FAMILY_COLS: tuple[tuple[RelationSpec, int], ...] = tuple(
    (spec, SUBTEST_COLUMNS[subtest_key(spec)]) for spec in FAMILY32
)
_BASE_COLS: tuple[tuple[Relation, int], ...] = tuple(
    (rel, SUBTEST_COLUMNS[subtest_key(rel)]) for rel in BASE_RELATIONS
)
_FAMILY_COL_OF: dict[Hashable, int] = dict(_FAMILY_COLS)
_BASE_COL_OF: dict[Hashable, int] = dict(_BASE_COLS)

#: Column maps of a table with one column per spec, in spec order: the
#: bypass configurations evaluate each spec on its own.
_FAMILY_SPEC_COL: dict[Hashable, int] = {s: i for i, s in enumerate(FAMILY32)}
_BASE_SPEC_COL: dict[Hashable, int] = {r: i for i, r in enumerate(BASE_RELATIONS)}


class VerdictRowView(Mapping[Hashable, bool]):
    """One pair's verdicts: a read-only ``spec → bool`` table row.

    A row of a :class:`VerdictTable`.  Nothing is copied; each lookup
    reads the table.  Being a :class:`~collections.abc.Mapping`, it
    compares equal to a ``dict`` holding the same verdicts.
    """

    __slots__ = ("_matrix", "_row", "_cols")

    def __init__(
        self, matrix: np.ndarray, row: int, cols: Mapping[Hashable, int]
    ) -> None:
        self._matrix = matrix
        self._row = row
        self._cols = cols

    def __getitem__(self, spec: Hashable) -> bool:
        return bool(self._matrix[self._row, self._cols[spec]])

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._cols)

    def __len__(self) -> int:
        return len(self._cols)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


class VerdictTable(Sequence[VerdictRowView]):
    """A batch API's answer: read-only rows over one bool matrix.

    A sequence of :class:`VerdictRowView` rows over one ``(Q, C)`` bool
    matrix.  Row ``i`` answers the ``i``-th input pair; ``cols`` maps
    each spec to its matrix column.  Rows are built on access, so a
    batch costs one matrix, not one ``dict`` per pair.  Compares equal
    to any sequence of mappings with the same verdicts (a list of
    dicts).
    """

    __slots__ = ("_matrix", "_cols")

    def __init__(self, matrix: np.ndarray, cols: Mapping[Hashable, int]) -> None:
        matrix.setflags(write=False)
        self._matrix = matrix
        self._cols = cols

    @property
    def matrix(self) -> np.ndarray:
        """The read-only ``(Q, C)`` bool matrix."""
        return self._matrix

    def __len__(self) -> int:
        return self._matrix.shape[0]

    @overload
    def __getitem__(self, i: int) -> VerdictRowView: ...

    @overload
    def __getitem__(self, i: slice) -> "VerdictTable": ...

    def __getitem__(self, i: "int | slice") -> "VerdictRowView | VerdictTable":
        if isinstance(i, slice):
            return VerdictTable(self._matrix[i], self._cols)
        n = self._matrix.shape[0]
        i = operator.index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("verdict table index out of range")
        return VerdictRowView(self._matrix, i, self._cols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


def _pack_rows(matrix: np.ndarray) -> np.ndarray:
    """One integer per row of a ``(Q, 24)`` bool matrix (bit ``j`` =
    column ``j``): the verdict row as a hashable key."""
    packed = np.zeros((matrix.shape[0], 4), dtype=np.uint8)
    packed[:, :3] = np.packbits(matrix, axis=1, bitorder="little")
    return packed.view(np.dtype("<u4")).ravel()


def _pack_row(row: "Sequence[bool]") -> int:
    """:func:`_pack_rows` of one row, without NumPy."""
    return sum(bit << j for j, bit in enumerate(row))


#: packed verdict row → maximal true specs.  ``maximal_true`` is a pure
#: function of the 24-bool row (and costs ~0.2 ms of hierarchy walking),
#: so :meth:`SynchronizationAnalyzer.strongest` memoizes it globally —
#: real executions exhibit few distinct rows.  Bounded; reset on
#: overflow.
_STRONGEST_MEMO: dict[int, tuple[RelationSpec, ...]] = {}
_STRONGEST_MEMO_LIMIT = 4096


def _strongest_of(key: int, row: "Sequence[bool]") -> tuple[RelationSpec, ...]:
    """The maximal true specs of one verdict row, whose packed form
    (:func:`_pack_rows`) is ``key``."""
    top = _STRONGEST_MEMO.get(key)
    if top is None:
        if len(_STRONGEST_MEMO) >= _STRONGEST_MEMO_LIMIT:
            _STRONGEST_MEMO.clear()
        top = _STRONGEST_MEMO[key] = maximal_true(
            {spec: row[col] for spec, col in _FAMILY_COLS}
        )
    return top


def _strongest_rows(matrix: np.ndarray) -> list[tuple[RelationSpec, ...]]:
    """The maximal true specs of every row of a ``(Q, 24)`` verdict
    matrix; the hierarchy walk runs once per distinct row."""
    keys, first, inverse = np.unique(
        _pack_rows(matrix), return_index=True, return_inverse=True
    )
    tops = [
        _strongest_of(key, matrix[i].tolist())
        for key, i in zip(keys.tolist(), first.tolist(), strict=True)
    ]
    return [tops[j] for j in inverse.ravel().tolist()]


def _overlap_error() -> ValueError:
    return ValueError(
        "X and Y share atomic events; the evaluation conditions are "
        "exact only for disjoint intervals (pass check_disjoint=False "
        "to evaluate anyway)"
    )

SpecLike = str | Relation | RelationSpec

#: One batch query: ``(spec, X, Y)``.
Query = tuple[SpecLike, NonatomicEvent, NonatomicEvent]


@functools.lru_cache(maxsize=256)
def _resolve(
    spec: SpecLike, definition: ProxyDefinition
) -> tuple[int, Proxy | None, Proxy | None]:
    """``spec`` → (verdict column, X proxy, Y proxy).

    The column is that of the spec's subtest
    (:data:`~repro.core.relations.SUBTEST_COLUMNS`), read off the
    per-node L/U rows of each side's term.  A side's term is the
    interval itself, except for a Definition-3 family spec: its terms
    are the global proxies it names (returned here; ``None`` otherwise),
    and its column is the base relation's, since a base relation on any
    two intervals is its subtest over their Definition-2 proxies."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if isinstance(spec, RelationSpec) and definition is ProxyDefinition.GLOBAL:
        return (
            SUBTEST_COLUMNS[subtest_key(spec.relation)],
            spec.proxy_x, spec.proxy_y,
        )
    return SUBTEST_COLUMNS[subtest_key(spec)], None, None


def _term(z: NonatomicEvent, proxy: Proxy | None) -> NonatomicEvent:
    """The term a query side reads (see :func:`_resolve`)."""
    return z if proxy is None else proxy_of(z, proxy, ProxyDefinition.GLOBAL)

#: Engine registry: name -> evaluator class.
ENGINES = {
    "naive": NaiveEvaluator,
    "polynomial": PolynomialEvaluator,
    "linear": LinearEvaluator,
}


class SharedVerdictCache:
    """Memoized ``≪``-subtest verdict rows shared across family queries.

    Theorem 19/20 factor every Table-1 condition into one vector subtest
    (:func:`~repro.core.relations.subtest_key`); across the 40 evaluable
    specs (8 base + 32 family) only 24 subtests are distinct per ordered
    pair — 12 genuine cut-pair ``≪`` evaluations plus 12 extremal-row
    sweeps.  This cache stores one 24-bool *verdict row* per ordered
    pair ``(X, Y)`` (columns fixed by
    :data:`~repro.core.relations.SUBTEST_COLUMNS`) in one growable
    ``(pairs, 24)`` bool table, so
    :meth:`SynchronizationAnalyzer.all_relations`,
    :meth:`~SynchronizationAnalyzer.base_relations`,
    :meth:`~SynchronizationAnalyzer.strongest` and their batch forms
    read the whole family from one row instead of paying per-spec
    dispatch.

    Rows are produced by the batched kernel
    (:func:`~repro.core.family.verdict_matrix`): :meth:`verdicts`
    locates the missing pairs' proxy rows — in the context's shared
    :class:`~repro.core.context.CutCache`, by **one** batched
    :meth:`~repro.core.context.CutCache.family_operands` fill — and
    appends the resulting ``(pairs, 24)`` verdict matrix to the table
    in one pass, with zero per-pair Python dispatch.  Rows are keyed by
    both intervals' :attr:`~repro.nonatomic.event.NonatomicEvent.packed_ids`,
    so equal id sets share a row.  The execution is immutable, so a
    row never goes stale and nothing is evicted.

    Each row also records whether its pair was found disjoint.  The
    cache is shared by every analyzer of a context, and one built with
    ``check_disjoint=False`` may fill the row of an overlapping pair;
    a checking read tests a pair whose row lacks the mark, and only
    once.

    Attributes
    ----------
    evals:
        Subtest evaluations actually performed (24 per filled pair).
    cut_pair_evals:
        The subset of :attr:`evals` of kind
        :attr:`~repro.core.relations.SubtestKind.EXISTS_CUT` — the
        cut-pair ``≪`` evaluations proper (≤ 12 per ordered pair, well
        under the 16 ordered Table-2 cut pairs).
    hits:
        Pair reads served by a row already in the table (one per pair
        per query, however many specs that query names).
    fills:
        Batched kernel invocations (each fill covers every missing pair
        of one query batch).
    """

    __slots__ = ("context", "_index", "_table", "_disjoint",
                 "evals", "cut_pair_evals", "hits", "fills")

    def __init__(self, context: "Execution | AnalysisContext") -> None:
        self.context = AnalysisContext.of(context)
        # pair key -> table row; the first len(_index) rows are filled
        self._index: dict[tuple[bytes, bytes], int] = {}
        self._table = np.zeros((0, N_SUBTESTS), dtype=np.bool_)
        self._disjoint = np.zeros(0, dtype=np.bool_)
        self.evals = 0
        self.cut_pair_evals = 0
        self.hits = 0
        self.fills = 0

    @property
    def pairs_cached(self) -> int:
        """Ordered pairs with a memoized verdict row."""
        return len(self._index)

    def _rows(
        self,
        pairs: Sequence[tuple[NonatomicEvent, NonatomicEvent]],
        check_disjoint: bool,
    ) -> np.ndarray:
        """The table row of every pair, filling the missing ones.

        Missing pairs are deduplicated and filled by one :meth:`_fill`.
        With ``check_disjoint``, an overlapping pair raises
        :class:`ValueError` before anything is filled; a pair is tested
        only if its row does not already record it as disjoint.
        """
        index = self._index
        disjoint = self._disjoint
        found: list[int] = []
        todo: dict[tuple[bytes, bytes], int] = {}
        missing: list[tuple[NonatomicEvent, NonatomicEvent]] = []
        hits = 0
        for x, y in pairs:
            pk = (x.packed_ids, y.packed_ids)
            r = index.get(pk)
            if r is None:
                t = todo.get(pk)
                if t is None:
                    if check_disjoint and not x.is_disjoint(y):
                        raise _overlap_error()
                    t = todo[pk] = len(missing)
                    missing.append((x, y))
                r = ~t  # negative: a pending pair, resolved below
            else:
                hits += 1
                if check_disjoint and not disjoint[r]:
                    if not x.is_disjoint(y):
                        raise _overlap_error()
                    disjoint[r] = True
            found.append(r)
        self.hits += hits
        rows = np.fromiter(found, np.intp, count=len(found))
        if missing:
            base = self._fill(list(todo), missing, check_disjoint)
            pending = rows < 0
            rows[pending] = base + ~rows[pending]
        return rows

    def _fill(
        self,
        keys: list[tuple[bytes, bytes]],
        pairs: list[tuple[NonatomicEvent, NonatomicEvent]],
        disjoint: bool,
    ) -> int:
        """Append the verdict rows of ``pairs`` (none cached yet) under
        ``keys``, marked ``disjoint``; returns the first new row.

        The pairs' distinct intervals get their L and U proxy rows from
        **one** batched :meth:`~repro.core.context.CutCache.family_operands`
        fill (warm rows come out of the shared cut cache), and
        :func:`~repro.core.family.verdict_matrix` runs once over them.
        """
        row_of: dict[bytes, int] = {}
        intervals: list[NonatomicEvent] = []
        for x, y in pairs:
            for z in (x, y):
                if z.packed_ids not in row_of:
                    row_of[z.packed_ids] = len(intervals)
                    intervals.append(z)
        ops = self.context.cut_cache.family_operands(intervals)
        xs = np.fromiter((row_of[kx] for kx, _ky in keys), np.intp, count=len(keys))
        ys = np.fromiter((row_of[ky] for _kx, ky in keys), np.intp, count=len(keys))
        matrix = verdict_matrix(ops, xs, ys)
        base = len(self._index)
        size = base + len(keys)
        if size > self._table.shape[0]:
            capacity = max(size, 2 * self._table.shape[0])
            table = np.zeros((capacity, N_SUBTESTS), dtype=np.bool_)
            table[:base] = self._table[:base]
            marks = np.zeros(capacity, dtype=np.bool_)
            marks[:base] = self._disjoint[:base]
            self._table, self._disjoint = table, marks
        self._table[base:size] = matrix
        self._disjoint[base:size] = disjoint
        self._index.update(zip(keys, range(base, size), strict=True))
        self.fills += 1
        self.evals += N_SUBTESTS * len(keys)
        self.cut_pair_evals += _N_CUT_PAIR * len(keys)
        return base

    def verdicts(
        self,
        pairs: Sequence[tuple[NonatomicEvent, NonatomicEvent]],
        check_disjoint: bool = False,
    ) -> np.ndarray:
        """The ``(len(pairs), 24)`` bool verdict matrix of ``pairs``.

        One pass end to end: missing pairs are deduplicated and filled
        by one batched kernel pass, then every pair's row is gathered
        out of the table.  With ``check_disjoint`` an overlapping pair
        raises :class:`ValueError` (before any fill); a pair whose row
        records it as disjoint is not tested again.
        """
        rows = self._rows(pairs, check_disjoint)
        return self._table[rows]

    def verdict_row(
        self, x: NonatomicEvent, y: NonatomicEvent
    ) -> VerdictRow:
        """The 24-subtest verdict row of ``(x, y)``, filling on demand.

        A read served from the table counts one :attr:`hits`; a missing
        pair pays a single-pair fill (batch callers should use
        :meth:`verdicts`).
        """
        r = self._index.get((x.packed_ids, y.packed_ids))
        if r is None:
            r = int(self._rows(((x, y),), False)[0])
        else:
            self.hits += 1
        return tuple(self._table[r].tolist())

    def holds(
        self,
        spec: "Relation | RelationSpec",
        x: NonatomicEvent,
        y: NonatomicEvent,
    ) -> bool:
        """Verdict of ``spec`` on ``(x, y)`` through the subtest memo.

        The first query on a pair pays the batched 24-subtest fill;
        every subsequent query on that pair — whatever the spec — is a
        table read.
        """
        return self.verdict_row(x, y)[SUBTEST_COLUMNS[subtest_key(spec)]]


class SynchronizationAnalyzer:
    """Evaluate synchronization conditions over one execution.

    Parameters
    ----------
    execution:
        The analysed execution, or an
        :class:`~repro.core.context.AnalysisContext`.  A bare execution
        resolves to its shared context, so every analyzer (and engine)
        over the same execution amortizes one cut cache.
    engine:
        ``"linear"`` (default, the paper's algorithm), ``"polynomial"``
        (prior-work baseline) or ``"naive"`` (definition-level).
    proxy_definition:
        Proxy definition for 32-family specs (Def. 2 per-node default).
    counted:
        If True, attach a :class:`ComparisonCounter` (exposed as
        :attr:`counter`) recording every integer comparison.
    check_disjoint:
        If True (default), :meth:`holds` raises when X and Y share
        atomic events — the precondition under which the linear
        conditions are exact.  Disable to explore the boundary
        behaviour the paper glosses (see DESIGN.md §2).

    Examples
    --------
    >>> from repro import TraceBuilder, SynchronizationAnalyzer
    >>> b = TraceBuilder(2)
    >>> a1 = b.internal(0); m = b.send(0); r = b.recv(1, m); y1 = b.internal(1)
    >>> ex = b.execute()
    >>> an = SynchronizationAnalyzer(ex)
    >>> X = an.interval([a1], name="X"); Y = an.interval([y1], name="Y")
    >>> an.holds("R1", X, Y)
    True
    """

    def __init__(
        self,
        execution: "Execution | AnalysisContext",
        engine: str = "linear",
        proxy_definition: ProxyDefinition = ProxyDefinition.PER_NODE,
        counted: bool = False,
        check_disjoint: bool = True,
        **engine_kwargs: object,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {sorted(ENGINES)}"
            )
        self.context = AnalysisContext.of(execution)
        self.execution = self.context.execution
        self.engine_name = engine
        self.proxy_definition = proxy_definition
        self.counter = ComparisonCounter() if counted else None
        self.check_disjoint = check_disjoint
        self._engine = ENGINES[engine](
            self.context,
            counter=self.counter,
            proxy_definition=proxy_definition,
            **engine_kwargs,
        )
        # Whole-family queries route through the shared ≪-subtest verdict
        # cache (Theorem 19/20 factoring) when that is behaviour-neutral:
        # the linear engine's verdicts match the subtest forms exactly,
        # PER_NODE proxies satisfy the operand coincidences, and a
        # counted analyzer must keep its per-spec comparison accounting.
        self._verdict_cache = (
            self.context.verdict_cache()
            if engine == "linear"
            and proxy_definition is ProxyDefinition.PER_NODE
            and not counted
            and not engine_kwargs
            else None
        )

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def interval(
        self, ids: Iterable[EventId], name: str | None = None
    ) -> NonatomicEvent:
        """Create a nonatomic event over this execution."""
        return NonatomicEvent(self.execution, ids, name=name)

    @property
    def comparisons(self) -> int:
        """Total integer comparisons recorded (0 if not ``counted``)."""
        return self.counter.total if self.counter is not None else 0

    @property
    def verdict_cache(self) -> "SharedVerdictCache | None":
        """The shared ``≪``-subtest verdict cache backing the family
        queries, or ``None`` when this analyzer's configuration (engine,
        proxy definition, counting, ablations) bypasses it."""
        return self._verdict_cache

    def _check_pair(self, x: NonatomicEvent, y: NonatomicEvent) -> None:
        if self.check_disjoint and not x.is_disjoint(y):
            raise _overlap_error()

    # ------------------------------------------------------------------
    # Problem 4 (i): one relation
    # ------------------------------------------------------------------
    def holds(self, spec: SpecLike, x: NonatomicEvent, y: NonatomicEvent) -> bool:
        """Does relation ``spec`` hold between ``x`` and ``y``?

        ``spec`` may be a :class:`Relation` (base relation applied to
        the full intervals), a :class:`RelationSpec` (32-family member
        applied to proxies), or a string such as ``"R2'"`` / ``"R2'(U,L)"``.
        """
        self._check_pair(x, y)
        if isinstance(spec, str):
            spec = parse_spec(spec)
        return self._engine_holds(spec, x, y)

    # ------------------------------------------------------------------
    # batched queries
    # ------------------------------------------------------------------
    def batch_holds(
        self, queries: "Sequence[Query] | Iterable[Query]"
    ) -> list[bool]:
        """Answer many ``(spec, X, Y)`` queries in one batched pass.

        One pass over the queries resolves each to ``(subtest column,
        X term, Y term)`` — a term is the interval itself, or for a
        Definition-3 family spec the global proxy it names — and gives
        every distinct term a row; **one** batched
        :meth:`~repro.core.context.CutCache.family_operands` fill stores
        the terms' per-node L/U proxy rows (warm rows come out of the
        shared cache, with no proxy object built), and
        :func:`~repro.core.family.verdict_matrix` runs once per distinct
        column over that column's queries: ``O(Q · P)``, no per-query
        Python dispatch.  Results align with the input order.

        Notes
        -----
        * Verdicts are identical to :meth:`holds` on every query (the
          kernel's conditions are the sound full-``|P|``-scan forms).
        * The batch path is its own evaluation strategy: engine choice
          does not apply to it, and it does not tick the
          :class:`ComparisonCounter` (it is vectorised; count-exact
          experiments should query the scalar path).
        * ``check_disjoint`` applies per query, exactly as in
          :meth:`holds`.
        """
        qs = list(queries)  # keeps every object alive: ids below stay unique
        check = self.check_disjoint
        definition = self.proxy_definition
        row_of: dict[object, int] = {}
        terms: list[NonatomicEvent] = []

        def row(z: NonatomicEvent) -> int:
            r = row_of.get(z.key)
            if r is None:
                r = row_of[z.key] = len(terms)
                terms.append(z)
            return r

        # spec object -> (column, X/Y proxy, X/Y probe); a probe maps an
        # interval object to its term's row for one proxy, so the
        # per-query work is two int-keyed lookups (``row_of`` still
        # dedups distinct-but-equal terms)
        resolved: dict[int, tuple] = {}
        probes: dict[Proxy | None, dict[int, int]] = {}
        last = None
        cols: list[int] = []
        xs: list[int] = []
        ys: list[int] = []
        for spec, x, y in qs:
            if check and not x.is_disjoint(y):
                self._check_pair(x, y)  # raises with the full message
            if spec is not last:
                res = resolved.get(id(spec))
                if res is None:
                    col, px, py = _resolve(spec, definition)
                    res = resolved[id(spec)] = (
                        col, px, py,
                        probes.setdefault(px, {}),
                        probes.setdefault(py, {}),
                    )
                col, px, py, xprobe, yprobe = res
                last = spec
            cols.append(col)
            r = xprobe.get(id(x))
            if r is None:
                r = xprobe[id(x)] = row(_term(x, px))
            xs.append(r)
            r = yprobe.get(id(y))
            if r is None:
                r = yprobe[id(y)] = row(_term(y, py))
            ys.append(r)
        if not cols:
            return []
        ops = self.context.cut_cache.family_operands(terms)
        col_of = np.array(cols, dtype=np.intp)
        x_of = np.array(xs, dtype=np.intp)
        y_of = np.array(ys, dtype=np.intp)
        out = np.empty(len(cols), dtype=np.bool_)
        for col in np.unique(col_of).tolist():
            sel = np.flatnonzero(col_of == col)
            out[sel] = verdict_matrix(ops, x_of[sel], y_of[sel], (col,))[:, 0]
        return out.tolist()

    def _engine_holds(
        self,
        spec: "Relation | RelationSpec",
        x: NonatomicEvent,
        y: NonatomicEvent,
    ) -> bool:
        """Scalar-path dispatch for an already-parsed spec."""
        if isinstance(spec, Relation):
            return self._engine.evaluate(spec, x, y)
        return self._engine.evaluate_spec(spec, x, y)

    # ------------------------------------------------------------------
    # Problem 4 (ii): all relations
    # ------------------------------------------------------------------
    def _family_holds(
        self,
        spec: "Relation | RelationSpec",
        x: NonatomicEvent,
        y: NonatomicEvent,
    ) -> bool:
        """Family-query dispatch: shared ≪-subtest cache when available
        (Theorem 19/20 factoring — at most 24 distinct subtest verdicts
        per ordered pair across all 40 specs), scalar engine otherwise."""
        if self._verdict_cache is not None:
            return self._verdict_cache.holds(spec, x, y)
        return self._engine_holds(spec, x, y)

    def base_relations(
        self, x: NonatomicEvent, y: NonatomicEvent
    ) -> dict[Relation, bool]:
        """Evaluate all 8 base relations ``R(X, Y)``."""
        self._check_pair(x, y)
        vc = self._verdict_cache
        if vc is None:
            return {r: self._engine_holds(r, x, y) for r in BASE_RELATIONS}
        row = vc.verdict_row(x, y)
        return {r: row[c] for r, c in _BASE_COLS}

    def all_relations(
        self,
        x: NonatomicEvent,
        y: NonatomicEvent,
        prune: bool = False,
    ) -> dict[RelationSpec, bool]:
        """Evaluate all 32 family relations ``r(X, Y)``.

        On the default configuration (linear engine, per-node proxies,
        uncounted) the whole family is read from one 24-bool verdict
        row of the shared ``≪``-subtest cache, produced by the batched
        kernel (:func:`~repro.core.family.verdict_matrix`) — zero
        per-spec Python dispatch.  ``prune`` is then irrelevant (the
        row already answers everything) and ignored.

        On bypass configurations (non-linear engines, global proxies,
        counted analyzers, engine ablations) the per-spec scalar path
        runs instead; there ``prune=True`` infers results implied by
        already-evaluated ones through the hierarchy (ablation A-3).
        The answer is identical on every path.
        """
        self._check_pair(x, y)
        vc = self._verdict_cache
        if vc is None:
            if prune:
                results, _ = evaluate_all_pruned(
                    lambda spec: self._engine_holds(spec, x, y), FAMILY32
                )
                return results
            return {
                spec: self._engine_holds(spec, x, y) for spec in FAMILY32
            }
        row = vc.verdict_row(x, y)
        return {spec: row[c] for spec, c in _FAMILY_COLS}

    def strongest(
        self, x: NonatomicEvent, y: NonatomicEvent
    ) -> tuple[RelationSpec, ...]:
        """The strongest 32-family relations holding between x and y.

        These are the maximal true relations under the implication
        hierarchy — the most informative synchronization facts.  On the
        cached configuration the hierarchy walk itself is memoized per
        distinct verdict row, so repeated sweeps cost one tuple lookup.
        """
        vc = self._verdict_cache
        if vc is not None:
            self._check_pair(x, y)
            row = vc.verdict_row(x, y)
            return _strongest_of(_pack_row(row), row)
        return maximal_true(self.all_relations(x, y, prune=True))

    # ------------------------------------------------------------------
    # Problem 4 (ii), batched: many pairs in one kernel pass
    # ------------------------------------------------------------------
    def _subtest_matrix(
        self, pairs: Sequence[tuple[NonatomicEvent, NonatomicEvent]]
    ) -> "np.ndarray | None":
        """The ``(Q, 24)`` subtest verdicts of ``pairs`` (cached
        configurations, pairs validated through the cache), or ``None``
        on bypass (pairs validated here)."""
        vc = self._verdict_cache
        if vc is not None:
            return vc.verdicts(pairs, self.check_disjoint)
        for x, y in pairs:
            self._check_pair(x, y)
        return None

    def _spec_matrix(
        self,
        pairs: Sequence[tuple[NonatomicEvent, NonatomicEvent]],
        specs: "Sequence[Relation | RelationSpec]",
    ) -> np.ndarray:
        """``(Q, len(specs))`` verdicts from the scalar engine (bypass)."""
        out = np.zeros((len(pairs), len(specs)), dtype=np.bool_)
        for i, (x, y) in enumerate(pairs):
            out[i] = [self._engine_holds(spec, x, y) for spec in specs]
        return out

    def all_relations_batch(
        self, pairs: Iterable[tuple[NonatomicEvent, NonatomicEvent]]
    ) -> VerdictTable:
        """:meth:`all_relations` for many ordered pairs at once.

        Returns a :class:`VerdictTable`: row ``i`` is a read-only
        ``spec → bool`` mapping for the ``i``-th pair, equal to
        per-pair :meth:`all_relations`.  On the cached configuration
        every missing pair is answered by **one** batched operand
        gather + one :func:`~repro.core.family.verdict_matrix` pass
        (all 24 subtests × all pairs), and the rows are read out of one
        ``(Q, 24)`` bool matrix.  Bypass configurations fill a
        ``(Q, 32)`` matrix spec by spec through the scalar engine.
        """
        seq = list(pairs)
        matrix = self._subtest_matrix(seq)
        if matrix is None:
            return VerdictTable(self._spec_matrix(seq, FAMILY32), _FAMILY_SPEC_COL)
        return VerdictTable(matrix, _FAMILY_COL_OF)

    def base_relations_batch(
        self, pairs: Iterable[tuple[NonatomicEvent, NonatomicEvent]]
    ) -> VerdictTable:
        """:meth:`base_relations` for many ordered pairs at once, as a
        :class:`VerdictTable` of ``relation → bool`` rows (one kernel
        pass on the cached configuration)."""
        seq = list(pairs)
        matrix = self._subtest_matrix(seq)
        if matrix is None:
            return VerdictTable(
                self._spec_matrix(seq, BASE_RELATIONS), _BASE_SPEC_COL
            )
        return VerdictTable(matrix, _BASE_COL_OF)

    def strongest_batch(
        self, pairs: Iterable[tuple[NonatomicEvent, NonatomicEvent]]
    ) -> list[tuple[RelationSpec, ...]]:
        """:meth:`strongest` for many ordered pairs at once
        (one kernel pass, and one hierarchy walk per distinct verdict
        row, on the cached configuration)."""
        seq = list(pairs)
        matrix = self._subtest_matrix(seq)
        if matrix is None:
            return [maximal_true(self.all_relations(x, y, prune=True))
                    for x, y in seq]
        return _strongest_rows(matrix)

    # ------------------------------------------------------------------
    # all-pairs evaluation
    # ------------------------------------------------------------------
    def relation_matrix(
        self,
        intervals: "Iterable[NonatomicEvent]",
        spec: SpecLike,
        mask_diagonal: bool = True,
    ) -> np.ndarray:
        """``M[i, j] = spec(intervals[i], intervals[j])`` for all pairs.

        One :meth:`~repro.core.context.CutCache.family_operands` fill
        over the intervals (or, for a Definition-3 family spec, the
        global proxies it names), then one
        :func:`~repro.core.family.verdict_matrix` call for the spec's
        subtest column over the ``k × k`` grid: the kernel takes it in
        row chunks of about :data:`~repro.core.family.VERDICT_BLOCK`
        pairs, so beyond the ``k²``-byte result the scratch is
        ``O(VERDICT_BLOCK · P)`` plus one ``(k, P)`` row gather.  With
        ``mask_diagonal`` (default) the diagonal is forced False:
        self-pairs violate the disjointness precondition and carry no
        synchronization meaning.  Pairs are not checked for
        disjointness, and engine choice does not apply here; the kernel
        is its own (equivalent) evaluation strategy.
        """
        seq = list(intervals)
        if not seq:
            raise ValueError("need at least one interval")
        col, px, py = _resolve(spec, self.proxy_definition)
        k = len(seq)
        idx = np.arange(k, dtype=np.intp)
        xt = [_term(z, px) for z in seq]
        if py is px:
            ops = self.context.cut_cache.family_operands(xt)
            ys = idx
        else:
            ops = self.context.cut_cache.family_operands(
                xt + [_term(z, py) for z in seq]
            )
            ys = idx + k
        out = verdict_matrix(ops, idx[:, None], ys[None, :], (col,))[..., 0]
        if mask_diagonal:
            np.fill_diagonal(out, False)
        return out
