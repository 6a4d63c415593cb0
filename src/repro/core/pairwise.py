"""Vectorised all-pairs relation evaluation.

Applications like the mutual-exclusion verifier (pairwise occupancy
checks) and predicate detectors evaluate one relation over *every*
ordered pair from a set of k intervals.  Doing that through the scalar
engine costs k² Python-level calls; this module stacks the intervals'
cut timestamps and extremal-index vectors into ``(k, P)`` matrices once
and answers each relation for all k² pairs with one NumPy broadcast
over a ``(k, k, P)`` comparison tensor.

The comparison is the shared formula table of :mod:`repro.core.family`
(:data:`~repro.core.family.RELATION_ROWS` /
:func:`~repro.core.family.compare_rows`): the *full-|P|-scan* forms of
the linear evaluation, with out-of-node-set components encoded so they
are neutral.  A 32-family member is its base relation broadcast over
the proxies' stacks.

Complexity: ``O(k² · P)`` total — the same as k² linear-engine calls
at full-|P| scan — but executed inside NumPy, which on realistic sizes
is 1–2 orders of magnitude faster than the per-pair Python loop (see
``benchmarks/bench_pairwise_matrix.py``).  Arbitrary query lists (not
all pairs) go through the ``O(Q · P)`` gather driver
:meth:`~repro.core.evaluator.SynchronizationAnalyzer.batch_holds`
instead.
"""

from __future__ import annotations

# repro: hot, dtype-strict

from collections.abc import Sequence

import numpy as np

from ..nonatomic.event import NonatomicEvent
from ..nonatomic.proxies import Proxy, ProxyDefinition
from .context import CutCache
from .cuts import CutStats
from .family import RELATION_ROWS, compare_rows
from .relations import Relation, RelationSpec

__all__ = ["IntervalSetMatrices", "relation_matrix"]


class IntervalSetMatrices:
    """Stacked per-interval vectors for a set of k intervals.

    Rows are aligned with the input order.  Construction is the
    one-time cost (one batched cut fill); every :meth:`relation_matrix`
    call afterwards is pure NumPy.

    With ``cache`` (a :class:`~repro.core.context.CutCache`, e.g. via
    :meth:`AnalysisContext.matrices
    <repro.core.context.AnalysisContext.matrices>`), cut and extremal
    vectors are drawn from — and deposited into — the shared cache, so
    rows already filled by an earlier batch are not recomputed; without
    one, a private cache serves this stack.  Per-node proxy stacks come
    from the same keyed fill (:meth:`~repro.core.context.CutCache.stats`
    with ``proxies``), so no proxy object is built.
    """

    __slots__ = ("intervals", "cache", "c1", "c2", "c3", "c4", "first",
                 "last")

    def __init__(
        self, intervals: Sequence[NonatomicEvent], cache: CutCache | None = None
    ) -> None:
        if not intervals:
            raise ValueError("need at least one interval")
        ex = intervals[0].execution
        for iv in intervals:
            if iv.execution is not ex:
                raise ValueError("intervals belong to different executions")
        self.intervals = tuple(intervals)
        self.cache = cache if cache is not None else CutCache(ex)
        stats = self.cache.stats(self.intervals)
        self.c1 = stats.c1
        self.c2 = stats.c2
        self.c3 = stats.c3
        self.c4 = stats.c4
        # first/last component indices; 0 encodes "node not in N_X"
        self.first = stats.first
        self.last = stats.last

    def __len__(self) -> int:
        return len(self.intervals)

    def _proxy_stats(
        self, which: Proxy, proxy_definition: ProxyDefinition
    ) -> CutStats:
        return self.cache.stats(
            self.intervals, [which] * len(self.intervals), proxy_definition
        )

    # ------------------------------------------------------------------
    def relation_matrix(
        self, relation: Relation, mask_diagonal: bool = True
    ) -> np.ndarray:
        """``M[i, j] = relation(intervals[i], intervals[j])``.

        With ``mask_diagonal`` (default) the diagonal is forced False:
        self-pairs violate the disjointness precondition and carry no
        synchronization meaning.
        """
        return _broadcast(self, self, relation, mask_diagonal)

    def spec_matrix(
        self,
        spec: RelationSpec,
        proxy_definition: ProxyDefinition = ProxyDefinition.PER_NODE,
        mask_diagonal: bool = True,
    ) -> np.ndarray:
        """All-pairs matrix for a 32-family member: its base relation
        broadcast over the X-side and Y-side proxy stacks."""
        xs = self._proxy_stats(spec.proxy_x, proxy_definition)
        ys = (
            xs if spec.proxy_y is spec.proxy_x
            else self._proxy_stats(spec.proxy_y, proxy_definition)
        )
        return _broadcast(xs, ys, spec.relation, mask_diagonal)


def _broadcast(
    xs: "IntervalSetMatrices | CutStats",
    ys: "IntervalSetMatrices | CutStats",
    relation: Relation,
    mask_diagonal: bool,
) -> np.ndarray:
    """Rows index X, columns index Y: X-side stacks broadcast as
    ``(k, 1, P)``, Y-side as ``(1, k, P)``."""
    kind, y_stat, x_stat = RELATION_ROWS[relation]
    out = compare_rows(
        kind,
        getattr(ys, y_stat)[None, :, :],
        getattr(xs, x_stat)[:, None, :],
    )
    if mask_diagonal:
        np.fill_diagonal(out, False)
    return out


def relation_matrix(
    intervals: Sequence[NonatomicEvent],
    relation: Relation,
    mask_diagonal: bool = True,
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`IntervalSetMatrices`."""
    return IntervalSetMatrices(intervals).relation_matrix(
        relation, mask_diagonal=mask_diagonal
    )
