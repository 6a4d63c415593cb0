"""Batched cut rows: columnar per-node proxies and the keyed row store.

* Every batch API — ``all_relations_batch``, ``base_relations_batch``,
  ``strongest_batch``, ``batch_holds`` and ``relation_matrix`` — gives
  the scalar :class:`~repro.core.linear.LinearEvaluator`'s verdicts bit
  for bit on all 40 specs, on a prefix execution and on the full one.
* Scalar ``cut``/``quadruple`` reads of a row a batch
  stored are cache hits and compute nothing; the reverse does not hold,
  and a proxy is stored apart from an interval with the same ids.
* The batch path builds no :class:`~repro.nonatomic.event.NonatomicEvent`
  and no :class:`~repro.core.cuts.Cut` (counted, not timed), and the
  offline path from trace text builds no atomic
  :class:`~repro.events.event.Event` either.
* An interval of another execution is rejected by every batch entry.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import AnalysisContext
from repro.core.cuts import Cut, cut_stats
from repro.core.evaluator import SynchronizationAnalyzer
from repro.core.hierarchy import maximal_true
from repro.core.linear import LinearEvaluator
from repro.core.relations import BASE_RELATIONS, FAMILY32
from repro.events.builder import TraceBuilder
from repro.events.event import Event
from repro.events.poset import Execution
from repro.events.serialization import dumps, loads
from repro.nonatomic.event import NonatomicEvent
from repro.nonatomic.proxies import (
    Proxy,
    ProxyDefinition,
    ProxyUndefinedError,
    proxy_of,
)
from repro.simulation.workloads import random_trace

from .test_context import _ops, _replay

ALL_SPECS = list(BASE_RELATIONS) + list(FAMILY32)


def _partition(ex: Execution, owners: list[int], k: int) -> list[NonatomicEvent]:
    """Pairwise-disjoint intervals: event ``i`` goes to interval
    ``owners[i] % (k + 1)`` (``k`` drops it); empty intervals are skipped."""
    groups: list[list] = [[] for _ in range(k + 1)]
    for eid, owner in zip(sorted(ex.iter_ids()), owners, strict=False):
        groups[owner % (k + 1)].append(eid)
    return [
        NonatomicEvent(ex, ids, name=f"I{i}")
        for i, ids in enumerate(groups[:k]) if ids
    ]


def _assert_batches_match_scalar(
    an: SynchronizationAnalyzer, intervals: list[NonatomicEvent]
) -> None:
    if not intervals:  # relation_matrix needs at least one interval
        return
    # an independent context: scalar folds, never the batch's rows
    lin = LinearEvaluator(AnalysisContext(an.execution))

    def scalar(spec, x, y):
        if spec in FAMILY32:
            return lin.evaluate_spec(spec, x, y)
        return lin.evaluate(spec, x, y)

    pairs = [(x, y) for x in intervals for y in intervals if x is not y]
    family = [{s: scalar(s, x, y) for s in FAMILY32} for x, y in pairs]
    base = [{r: scalar(r, x, y) for r in BASE_RELATIONS} for x, y in pairs]
    assert an.all_relations_batch(pairs) == family
    assert an.base_relations_batch(pairs) == base
    assert an.strongest_batch(pairs) == [maximal_true(f) for f in family]
    queries = [(s, x, y) for x, y in pairs for s in ALL_SPECS]
    assert an.batch_holds(queries) == [scalar(s, x, y) for s, x, y in queries]
    for spec in ALL_SPECS:
        got = an.relation_matrix(intervals, spec)
        for i, x in enumerate(intervals):
            for j, y in enumerate(intervals):
                assert got[i, j] == (i != j and scalar(spec, x, y)), (spec, i, j)


class TestBatchesMatchScalar:
    @given(
        num_nodes=st.integers(1, 4),
        head=_ops,
        tail=_ops,
        owners=st.lists(st.integers(0, 4), min_size=60, max_size=60),
    )
    @settings(max_examples=20, deadline=None)
    def test_all_batch_apis_match_linear_before_and_after_extend(
        self, num_nodes, head, tail, owners
    ):
        # the full trace extends the prefix: future-side rows differ
        for trace in (_replay(num_nodes, head), _replay(num_nodes, head + tail)):
            ex = Execution(trace)
            an = SynchronizationAnalyzer(AnalysisContext(ex))
            _assert_batches_match_scalar(an, _partition(ex, owners, 4))
            _assert_batches_match_scalar(an, _partition(ex, owners[::-1], 4))


def _workload(seed: int = 5) -> tuple[AnalysisContext, list[NonatomicEvent]]:
    ex = Execution(random_trace(5, events_per_node=30, msg_prob=0.3, seed=seed))
    rng = np.random.default_rng(seed)
    ids = sorted(ex.iter_ids())
    owners = rng.integers(0, 9, size=len(ids)).tolist()
    return AnalysisContext(ex), _partition(ex, owners, 8)


def _assert_same_vector(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert not got.flags.writeable
    np.testing.assert_array_equal(got, want)


def _assert_same_cut(got: Cut, want: Cut) -> None:
    """A cut read from a stored batch row is the cut a scalar miss
    builds: same dtype, equal, and hashing alike."""
    _assert_same_vector(got.vector, want.vector)
    assert got == want
    assert hash(got) == hash(want)


class TestScalarReadsHit:
    def test_proxy_reads_after_family_batch_hit(self):
        ctx, intervals = _workload()
        an = SynchronizationAnalyzer(ctx)
        pairs = list(zip(intervals, intervals[1:], strict=False))
        an.all_relations_batch(pairs)
        cache = ctx.cut_cache
        misses = cache.misses
        fresh = AnalysisContext(ctx.execution).cut_cache
        for x in intervals[:-1]:
            for p in (Proxy.L, Proxy.U):
                px = proxy_of(x, p)
                hits = cache.hits
                quad = cache.quadruple(px)
                assert cache.hits == hits + 4
                expect = fresh.quadruple(px)
                for name in ("c1", "c2", "c3", "c4"):
                    _assert_same_cut(getattr(quad, name), getattr(expect, name))
        # the stored first/last rows are the proxies' extrema
        store, ls, us = cache.family_operands(intervals[:-1])
        for p, rows in ((Proxy.L, ls), (Proxy.U, us)):
            want = cut_stats(ctx.execution,
                             [proxy_of(x, p) for x in intervals[:-1]])
            np.testing.assert_array_equal(store.first[rows], want.first)
            np.testing.assert_array_equal(store.last[rows], want.last)
        # the scalar engine reads the same rows
        lin = LinearEvaluator(ctx)
        for x, y in pairs:
            for spec in FAMILY32:
                lin.evaluate_spec(spec, x, y)
        assert cache.misses == misses

    def test_repeat_batch_is_all_hits(self):
        ctx, intervals = _workload(seed=13)
        an = SynchronizationAnalyzer(ctx)
        queries = [(s, x, y) for x in intervals for y in intervals
                   if x is not y for s in ALL_SPECS]
        first = an.batch_holds(queries)
        misses = ctx.cut_cache.misses
        assert an.batch_holds(queries) == first
        assert ctx.cut_cache.misses == misses


class TestScalarEntriesStayApart:
    def test_batch_recomputes_a_scalar_filled_term(self):
        ctx, intervals = _workload(seed=17)
        cache = ctx.cut_cache
        x = intervals[0]
        # a scalar-filled term is not a row: the batch computes it again
        assert x.first_indices() != x.last_indices()
        px = proxy_of(x, Proxy.L)  # keyed (x.key, "L"), as the batch's term
        quad = cache.quadruple(px)
        misses = cache.misses
        store, ls, _us = cache.family_operands([x])
        assert cache.misses == misses + 2
        for name in ("c1", "c2", "c3", "c4"):
            np.testing.assert_array_equal(
                getattr(store, name)[ls[0]], getattr(quad, name).vector
            )
        want = cut_stats(ctx.execution, [px])
        np.testing.assert_array_equal(store.first[ls[0]], want.first[0])
        np.testing.assert_array_equal(store.last[ls[0]], want.last[0])

    def test_proxy_and_equal_interval_are_stored_apart(self):
        ctx, intervals = _workload(seed=19)
        cache = ctx.cut_cache
        px = proxy_of(intervals[0], Proxy.U)
        twin = NonatomicEvent(px.execution, px.ids)
        assert px.key != twin.key
        quad = cache.quadruple(px)
        misses = cache.misses
        twin_quad = cache.quadruple(twin)
        assert cache.misses == misses + 4
        for name in ("c1", "c2", "c3", "c4"):
            np.testing.assert_array_equal(
                getattr(twin_quad, name).vector, getattr(quad, name).vector
            )


class TestNoObjectsOnBatchPath:
    def test_batch_apis_build_no_interval_or_cut(self, monkeypatch):
        ctx, intervals = _workload(seed=21)
        an = SynchronizationAnalyzer(ctx)
        pairs = [(x, y) for x in intervals for y in intervals if x is not y]
        built = {"NonatomicEvent": 0, "Cut": 0}
        event_init = NonatomicEvent.__init__
        cut_init = Cut.__init__
        cut_trusted = Cut._trusted.__func__

        def counting_event_init(self, *args, **kwargs):
            built["NonatomicEvent"] += 1
            event_init(self, *args, **kwargs)

        def counting_cut_init(self, *args, **kwargs):
            built["Cut"] += 1
            cut_init(self, *args, **kwargs)

        def counting_trusted(cls, execution, vec):
            built["Cut"] += 1
            return cut_trusted(cls, execution, vec)

        monkeypatch.setattr(NonatomicEvent, "__init__", counting_event_init)
        monkeypatch.setattr(Cut, "__init__", counting_cut_init)
        monkeypatch.setattr(Cut, "_trusted", classmethod(counting_trusted))
        an.all_relations_batch(pairs)
        an.batch_holds([(s, x, y) for x, y in pairs for s in ALL_SPECS])
        for spec in FAMILY32:
            an.relation_matrix(intervals, spec)
        assert built == {"NonatomicEvent": 0, "Cut": 0}
        # the counters do count: a scalar read of a stored row builds its Cut
        ctx.cut_cache.cut(intervals[0], "C1")
        assert built["Cut"] == 1

    def test_offline_path_from_text_builds_no_event(self, monkeypatch):
        text = dumps(random_trace(6, events_per_node=24, msg_prob=0.3, seed=8))
        built = []
        event_init = Event.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[:2])
            event_init(self, *args, **kwargs)

        monkeypatch.setattr(Event, "__init__", counting_init)
        trace = loads(text)
        ex = Execution(trace)
        ctx = AnalysisContext(ex)
        ex.reverse_rows([next(ex.iter_ids())])
        intervals = [
            NonatomicEvent(ex, [(node, j), ((node + 1) % 6, j + 1)])
            for node in range(6) for j in range(1, 23, 4)
        ]
        pairs = [(x, y) for x in intervals[::2] for y in intervals[1::2]]
        an = SynchronizationAnalyzer(ctx)
        an.all_relations_batch(pairs)
        an.base_relations_batch(pairs)
        an.strongest_batch(pairs)
        assert loads(dumps(trace)) == trace
        assert built == []
        # the counter does count: reading a node's events builds them once
        trace.events_of(0)
        trace.events_of(0)
        assert len(built) == 24

    def test_global_proxies_keep_the_object_path(self):
        b = TraceBuilder(2)
        b.internal(0)
        b.internal(1)
        b.internal(0)
        ex = b.execute()
        # concurrent extrema: no global minimum, Definition 3 undefined
        x = NonatomicEvent(ex, [(0, 1), (1, 1)])
        y = NonatomicEvent(ex, [(0, 2)])
        an = SynchronizationAnalyzer(
            ex, proxy_definition=ProxyDefinition.GLOBAL
        )
        with pytest.raises(ProxyUndefinedError):
            an.batch_holds([(FAMILY32[0], x, y)])
        with pytest.raises(ProxyUndefinedError):
            an.relation_matrix([x, y], FAMILY32[0])


class TestForeignIntervals:
    def test_every_batch_entry_rejects_other_execution(self):
        ctx, intervals = _workload(seed=3)
        other_ctx, other = _workload(seed=4)
        foreign = other[0]
        # ids may coincide across the two executions: skip the overlap check
        an = SynchronizationAnalyzer(ctx, check_disjoint=False)
        cache = ctx.cut_cache
        with pytest.raises(ValueError, match="does not belong"):
            cut_stats(ctx.execution, [intervals[0], foreign])
        with pytest.raises(ValueError, match="does not belong"):
            cache.family_operands([intervals[0], foreign])
        with pytest.raises(ValueError, match="does not belong"):
            an.all_relations_batch([(intervals[0], foreign)])
        with pytest.raises(ValueError, match="does not belong"):
            an.batch_holds([(FAMILY32[0], intervals[0], foreign)])
        with pytest.raises(ValueError, match="does not belong"):
            an.relation_matrix([foreign], FAMILY32[0])
        del other_ctx
