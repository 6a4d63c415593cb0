"""Columnar kernels and the batch gather driver vs the reference engines.

Property tests for the columnar substrate: the one-pass cut fill
(:func:`repro.core.cuts.cut_stats` and the array kernel under it), the
family kernel on one subtest column
(:func:`repro.core.family.verdict_matrix`), and
:meth:`~repro.core.evaluator.SynchronizationAnalyzer.batch_holds`
built on it must agree with the per-interval folds and the
definition-level :class:`~repro.core.naive.NaiveEvaluator` on random
executions — over all 8 base relations and all 32 family members.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.cuts import CutStats, _stats_from_extrema, cut_stats, cuts_of
from repro.core.evaluator import SynchronizationAnalyzer
from repro.core.naive import NaiveEvaluator
from repro.core.context import CutCache
from repro.core.family import verdict_matrix
from repro.core.relations import (
    BASE_RELATIONS,
    FAMILY32,
    SUBTEST_COLUMNS,
    subtest_key,
)
from repro.events.poset import Execution
from repro.simulation.workloads import random_trace

from .strategies import execution_with_intervals, execution_with_pair

ALL_SPECS = list(BASE_RELATIONS) + list(FAMILY32)


def _extrema_of_ids(id_groups):
    """Flattened ``(nodes, first_idx, last_idx, counts)`` of raw id
    groups, derived per node from the sorted ids (no interval object)."""
    nodes, firsts, lasts, counts = [], [], [], []
    for ids in id_groups:
        first: dict[int, int] = {}
        last: dict[int, int] = {}
        for node, idx in sorted(ids):
            first.setdefault(node, idx)
            last[node] = idx
        counts.append(len(first))
        nodes.extend(first)
        firsts.extend(first.values())
        lasts.extend(last.values())
    return (
        np.asarray(nodes, dtype=np.int64), np.asarray(firsts, dtype=np.int64),
        np.asarray(lasts, dtype=np.int64), np.asarray(counts, dtype=np.intp),
    )


def _assert_stats_match_folds(ex, intervals, stats: CutStats) -> None:
    num_nodes = ex.num_nodes
    for i, iv in enumerate(intervals):
        quad = cuts_of(iv)
        np.testing.assert_array_equal(stats.c1[i], quad.c1.vector)
        np.testing.assert_array_equal(stats.c2[i], quad.c2.vector)
        np.testing.assert_array_equal(stats.c3[i], quad.c3.vector)
        np.testing.assert_array_equal(stats.c4[i], quad.c4.vector)
        first = np.zeros(num_nodes, dtype=np.int64)
        last = np.zeros(num_nodes, dtype=np.int64)
        for node in iv.node_set:
            first[node] = iv.first_at(node)
            last[node] = iv.last_at(node)
        np.testing.assert_array_equal(stats.first[i], first)
        np.testing.assert_array_equal(stats.last[i], last)


class TestColumnarCutFill:
    @given(execution_with_intervals(k=4))
    @settings(max_examples=60, deadline=None)
    def test_cut_stats_matches_per_interval_folds(self, ex_ivs):
        ex, intervals = ex_ivs
        _assert_stats_match_folds(ex, intervals, cut_stats(ex, intervals))

    @given(execution_with_intervals(k=3))
    @settings(max_examples=40, deadline=None)
    def test_raw_array_variants_match(self, ex_ivs):
        """The array kernel on extrema derived from raw ids (int64, not
        the interval's stored ``CLOCK_DTYPE`` tuples) fills the rows
        :func:`cut_stats` fills."""
        ex, intervals = ex_ivs
        reference = cut_stats(ex, intervals)
        got = _stats_from_extrema(
            ex, *_extrema_of_ids([iv.ids for iv in intervals])
        )
        for name in ("c1", "c2", "c3", "c4", "first", "last"):
            np.testing.assert_array_equal(
                getattr(got, name), getattr(reference, name)
            )


class TestExtremaValidation:
    """Extrema naming no real event raise ValueError in the array
    kernel behind every batched cut fill, instead of gathering a
    neighbouring node's clock row — whether the bad entry is an
    interval's only one or sits beside a good one."""

    BAD_IDS = [(0, 4), (1, 4), (0, 0), (2, 1), (-1, 1)]
    BAD_NAMES = ["past-end", "past-end-last-node", "bottom", "node-past-P",
                 "negative-node"]

    @pytest.mark.parametrize("bad", BAD_IDS, ids=BAD_NAMES)
    def test_cut_stats_from_arrays(self, message_exec, bad):
        # the bad id sits beside a good one in the same interval
        with pytest.raises(ValueError, match="name no real events"):
            _stats_from_extrema(
                message_exec, *_extrema_of_ids([[(0, 1)], [(1, 2), bad]])
            )
        assert not message_exec.reverse_ready  # rejected before the pass

    @pytest.mark.parametrize("bad", BAD_IDS, ids=BAD_NAMES)
    def test_cut_stats_from_extrema(self, message_exec, bad):
        # the bad id is its interval's only entry
        with pytest.raises(ValueError, match="name no real events"):
            _stats_from_extrema(message_exec, *_extrema_of_ids([[(0, 1)], [bad]]))
        assert not message_exec.reverse_ready

    @pytest.mark.parametrize("bad", BAD_IDS, ids=BAD_NAMES)
    def test_backend_array_entry_point(self, message_exec, bad):
        node, idx = bad
        arr = np.asarray
        with pytest.raises(ValueError, match="name no real events"):
            _stats_from_extrema(
                message_exec,
                arr([0, node], dtype=np.int64), arr([1, idx], dtype=np.int64),
                arr([2, idx], dtype=np.int64), arr([1, 1], dtype=np.intp),
            )
        assert not message_exec.reverse_ready

    def test_backend_rejects_first_after_last_and_empty(self, message_exec):
        arr = np.asarray
        with pytest.raises(ValueError, match="name no real events"):
            _stats_from_extrema(
                message_exec, arr([0]), arr([3]), arr([2]), arr([1])
            )
        with pytest.raises(ValueError, match="counts"):
            _stats_from_extrema(
                message_exec, arr([0]), arr([1]), arr([1]), arr([0, 1])
            )


class TestGatherKernelVsNaive:
    @given(execution_with_pair())
    @settings(max_examples=50, deadline=None)
    def test_base_relations_match_naive(self, ex_pair):
        ex, x, y = ex_pair
        naive = NaiveEvaluator(ex)
        ops = CutCache(ex).family_operands([x, y])
        for rel in BASE_RELATIONS:
            col = SUBTEST_COLUMNS[subtest_key(rel)]
            got = verdict_matrix(ops, [0], [1], [col])
            assert got.shape == (1, 1)
            assert bool(got[0, 0]) == naive.evaluate(rel, x, y), rel

    @given(execution_with_pair())
    @settings(max_examples=25, deadline=None)
    def test_family32_batch_matches_naive(self, ex_pair):
        ex, x, y = ex_pair
        naive = SynchronizationAnalyzer(
            ex, engine="naive", check_disjoint=False
        )
        queries = [(spec, x, y) for spec in ALL_SPECS]
        # batch_holds exercises proxy resolution + the columnar fill +
        # the gather kernel over all 40 specs in one pass
        batched = SynchronizationAnalyzer(
            ex, check_disjoint=False
        ).batch_holds(queries)
        expected = [naive.holds(s, x, y) for s, x, y in queries]
        assert batched == expected


class TestBatchHoldsDriver:
    def test_mixed_batch_matches_scalar_over_seeds(self):
        """One mixed 40-spec batch with repeated intervals vs the scalar
        engine, several random executions (deterministic seeds)."""
        for seed in (3, 17, 29):
            rng = np.random.default_rng(seed)
            ex = Execution(
                random_trace(4, events_per_node=12, msg_prob=0.4, seed=seed)
            )
            an = SynchronizationAnalyzer(ex, check_disjoint=False)
            ids = sorted(ex.iter_ids())
            intervals = [
                an.interval([ids[int(i)] for i in rng.choice(
                    len(ids), size=min(4, len(ids)), replace=False)])
                for _ in range(12)
            ]
            queries = []
            for _ in range(200):
                i, j = rng.choice(len(intervals), size=2, replace=False)
                spec = ALL_SPECS[int(rng.integers(len(ALL_SPECS)))]
                queries.append((spec, intervals[int(i)], intervals[int(j)]))
            scalar = [an.holds(s, x, y) for s, x, y in queries]
            assert an.batch_holds(queries) == scalar
            # spec strings resolve to the same verdicts
            texts = [(s.display, x, y) for s, x, y in queries]
            assert an.batch_holds(texts) == scalar

    def test_global_proxies_match_scalar(self):
        """Definition-3 proxies: family specs gather over the global
        proxies, base relations over the full intervals."""
        from repro.core.relations import parse_spec
        from repro.events.builder import TraceBuilder
        from repro.nonatomic.proxies import ProxyDefinition

        b = TraceBuilder(2)
        a0 = b.internal(0)
        m = b.send(0)
        r = b.recv(1, m)
        y1 = b.internal(1)
        ex = b.execute()
        an = SynchronizationAnalyzer(
            ex, proxy_definition=ProxyDefinition.GLOBAL
        )
        x = an.interval([a0, m.send], name="X")
        y = an.interval([r, y1], name="Y")
        queries = [(s, x, y) for s in ALL_SPECS]
        queries += [(parse_spec("R1(U,L)"), y, x)]
        assert an.batch_holds(queries) == [
            an.holds(s, a, c) for s, a, c in queries
        ]

    def test_overlapping_pair_rejected(self):
        ex = Execution(random_trace(2, events_per_node=4, seed=2))
        an = SynchronizationAnalyzer(ex)
        ids = sorted(ex.iter_ids())
        x = an.interval(ids[:3])
        y = an.interval(ids[2:5])
        import pytest

        with pytest.raises(ValueError, match="share atomic events"):
            an.batch_holds([("R1", x, y)])
