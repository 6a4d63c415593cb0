"""All-pairs relation matrices: ``SynchronizationAnalyzer.relation_matrix``.

The matrix is a driver of the blocked family kernel
(:func:`repro.core.family.verdict_matrix`) over the ``k × k`` grid.  It
must equal the scalar engine on every pair, across the kernel's block
boundaries and for Definition-3 proxies, and its scratch must stay
``O(VERDICT_BLOCK · P)`` beyond the ``k²``-byte result.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import family
from repro.core.context import AnalysisContext
from repro.core.evaluator import SynchronizationAnalyzer
from repro.core.linear import LinearEvaluator
from repro.core.relations import BASE_RELATIONS, FAMILY32, Relation, parse_spec
from repro.events.builder import TraceBuilder
from repro.events.poset import Execution
from repro.nonatomic.event import NonatomicEvent
from repro.nonatomic.proxies import ProxyDefinition, ProxyUndefinedError
from repro.simulation.workloads import random_trace

from .strategies import execution_with_intervals
from .test_batch_rows import _partition

ALL_SPECS = list(BASE_RELATIONS) + list(FAMILY32)


def _matrix(intervals, spec, **kwargs):
    an = SynchronizationAnalyzer(intervals[0].execution)
    return an.relation_matrix(intervals, spec, **kwargs)


class TestConstruction:
    def test_empty_rejected(self, message_exec):
        with pytest.raises(ValueError):
            SynchronizationAnalyzer(message_exec).relation_matrix([], Relation.R4)

    def test_cross_execution_rejected(self, message_exec, chain_exec):
        a = NonatomicEvent(message_exec, [(0, 1)])
        b = NonatomicEvent(chain_exec, [(0, 1)])
        with pytest.raises(ValueError, match="does not belong"):
            _matrix([a, b], Relation.R4)


class TestAgainstScalarEngine:
    @settings(max_examples=60, deadline=None)
    @given(data=execution_with_intervals(k=4))
    def test_base_matrix_matches_loop(self, data):
        ex, ivs = data
        lin = LinearEvaluator(ex)
        for rel in BASE_RELATIONS:
            m = _matrix(ivs, rel, mask_diagonal=False)
            for i, x in enumerate(ivs):
                for j, y in enumerate(ivs):
                    if i == j:
                        continue
                    assert bool(m[i, j]) == lin.evaluate(rel, x, y), (
                        rel, i, j,
                    )

    @settings(max_examples=25, deadline=None)
    @given(data=execution_with_intervals(k=3))
    def test_spec_matrix_matches_loop(self, data):
        ex, ivs = data
        lin = LinearEvaluator(ex)
        for spec in FAMILY32[::5]:  # a representative slice
            m = _matrix(ivs, spec, mask_diagonal=False)
            for i, x in enumerate(ivs):
                for j, y in enumerate(ivs):
                    if i == j:
                        continue
                    assert bool(m[i, j]) == lin.evaluate_spec(spec, x, y), (
                        spec, i, j,
                    )

    def test_diagonal_masked_by_default(self, message_exec):
        ivs = [
            NonatomicEvent(message_exec, [(0, 1)]),
            NonatomicEvent(message_exec, [(1, 2)]),
        ]
        m = _matrix(ivs, Relation.R4)
        assert not m[0, 0] and not m[1, 1]

    def test_known_ordering(self, message_exec):
        x = NonatomicEvent(message_exec, [(0, 1)])
        y = NonatomicEvent(message_exec, [(1, 2)])
        m = _matrix([x, y], Relation.R1)
        assert bool(m[0, 1]) is True
        assert bool(m[1, 0]) is False

    def test_asymmetric_matrix(self, medium_exec, rng):
        from repro.nonatomic.selection import random_interval

        ivs = [random_interval(medium_exec, rng) for _ in range(6)]
        m = _matrix(ivs, Relation.R1, mask_diagonal=False)
        # R1 is asymmetric off the diagonal for disjoint pairs; since
        # intervals may overlap here, just check the matrix is boolean
        # and consistent with the scalar engine on disjoint pairs.
        lin = LinearEvaluator(medium_exec)
        for i, x in enumerate(ivs):
            for j, y in enumerate(ivs):
                if i != j and x.is_disjoint(y):
                    assert bool(m[i, j]) == lin.evaluate(Relation.R1, x, y)


_BLOCK = 8


class TestBlockBoundaries:
    """A small kernel block: the grid goes through in row chunks of
    ``_BLOCK // k`` rows (at least one), the query list of
    ``batch_holds`` in chunks of ``_BLOCK`` pairs."""

    @pytest.mark.parametrize("k", [1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_matrix_and_batch_equal_scalar_loop(self, monkeypatch, k):
        monkeypatch.setattr(family, "VERDICT_BLOCK", _BLOCK)
        ex = Execution(random_trace(4, events_per_node=12, msg_prob=0.3, seed=k))
        rng = np.random.default_rng(k)
        owners = rng.integers(0, k, size=len(list(ex.iter_ids()))).tolist()
        intervals = _partition(ex, owners, k)
        assert len(intervals) == k
        an = SynchronizationAnalyzer(AnalysisContext(ex))
        lin = LinearEvaluator(AnalysisContext(ex))

        def scalar(spec, x, y):
            if spec in FAMILY32:
                return lin.evaluate_spec(spec, x, y)
            return lin.evaluate(spec, x, y)

        for spec in ALL_SPECS:
            got = an.relation_matrix(intervals, spec)
            want = np.array([
                [i != j and scalar(spec, x, y) for j, y in enumerate(intervals)]
                for i, x in enumerate(intervals)
            ], dtype=np.bool_)
            np.testing.assert_array_equal(got, want, err_msg=str(spec))
        queries = [(s, x, y) for x in intervals for y in intervals
                   if x is not y for s in ALL_SPECS]
        assert an.batch_holds(queries) == [scalar(*q) for q in queries]


class TestGlobalProxies:
    def test_global_minimum_without_global_maximum(self):
        b = TraceBuilder(2)
        m = b.send(0)  # a1: below every event of X
        b.internal(0)  # a2
        b.recv(1, m)  # b1, concurrent with a2: no global maximum
        b.internal(0)  # a3
        ex = b.execute()
        x = NonatomicEvent(ex, [(0, 1), (0, 2), (1, 1)], name="X")
        y = NonatomicEvent(ex, [(0, 3)], name="Y")
        an = SynchronizationAnalyzer(
            ex, proxy_definition=ProxyDefinition.GLOBAL
        )
        naive = SynchronizationAnalyzer(
            ex, engine="naive", proxy_definition=ProxyDefinition.GLOBAL
        )
        ll = parse_spec("R1(L,L)")
        m = an.relation_matrix([x, y], ll)
        assert m.tolist() == [
            [False, naive.holds(ll, x, y)], [naive.holds(ll, y, x), False]
        ]
        assert m[0, 1]
        assert an.batch_holds([(ll, x, y), (ll, y, x)]) == [m[0, 1], m[1, 0]]
        uu = parse_spec("R1(U,U)")
        with pytest.raises(ProxyUndefinedError):
            an.relation_matrix([x, y], uu)
        with pytest.raises(ProxyUndefinedError):
            an.batch_holds([(uu, x, y)])


class TestBoundedMemory:
    def test_peak_is_result_plus_block_scratch(self):
        """k = 2,000 intervals over P = 16 nodes, with the operand rows
        already stored: the traced peak of one matrix is at most the
        ``k²``-byte result, plus 16 B × ``VERDICT_BLOCK`` × P of block
        scratch, plus 256 B per interval (row indices, the hoisted
        ``(k, P)`` row gather).  An all-pairs ``(k, k, P)`` broadcast
        needs about 60 MB more."""
        k, nodes = 2000, 16
        ex = Execution(random_trace(nodes, events_per_node=250, msg_prob=0.3,
                                    seed=7))
        owners = [i % k for i in range(nodes * 250)]
        intervals = _partition(ex, owners, k)
        assert len(intervals) == k
        an = SynchronizationAnalyzer(AnalysisContext(ex))
        bound = 16 * family.VERDICT_BLOCK * nodes + 256 * k
        for spec in ("R2'", "R3'"):
            an.relation_matrix(intervals, spec)  # fills the row store
            tracemalloc.start()
            try:
                m = an.relation_matrix(intervals, spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert m.shape == (k, k)
            assert peak - m.nbytes <= bound, (spec, peak, m.nbytes, bound)
