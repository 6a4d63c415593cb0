"""Vectorised all-pairs evaluation vs the scalar per-pair loop.

Not a paper experiment — an engineering extension exercised by the
mutual-exclusion verifier: answering one relation for all k² interval
pairs through :meth:`SynchronizationAnalyzer.relation_matrix
<repro.core.evaluator.SynchronizationAnalyzer.relation_matrix>` (the
blocked family kernel over the k × k grid) vs k² linear-engine calls.
Expected shape: same answers, with the matrix path ahead by 1–2 orders
of magnitude once k² dominates Python call overhead.
"""

from repro.apps.mutex import MutualExclusionChecker, token_mutex_trace
from repro.core.context import AnalysisContext
from repro.core.evaluator import SynchronizationAnalyzer
from repro.core.linear import LinearEvaluator
from repro.core.relations import Relation
from repro.simulation.workloads import random_execution

from .common import random_intervals

K = 40
EX = random_execution(8, events_per_node=30, msg_prob=0.3, seed=33)
INTERVALS = random_intervals(EX, K, events_per_node=2, seed=14)


def test_scalar_loop(benchmark):
    lin = LinearEvaluator(EX)
    SynchronizationAnalyzer(EX).relation_matrix(INTERVALS, Relation.R4)

    def run():
        return [
            lin.evaluate(Relation.R4, x, y)
            for x in INTERVALS
            for y in INTERVALS
            if x is not y
        ]

    benchmark(run)


def test_vectorised_matrix(benchmark):
    an = SynchronizationAnalyzer(EX)
    an.relation_matrix(INTERVALS, Relation.R4)  # warm the cut cache
    m = benchmark(lambda: an.relation_matrix(INTERVALS, Relation.R4))
    # cross-check a sample against the scalar engine
    lin = LinearEvaluator(EX)
    for i in range(0, K, 7):
        for j in range(0, K, 7):
            if i != j:
                assert bool(m[i, j]) == lin.evaluate(
                    Relation.R4, INTERVALS[i], INTERVALS[j]
                )


def test_vectorised_including_setup(benchmark):
    """Matrix path with the operand fill included (cold cut cache)."""
    benchmark(
        lambda: SynchronizationAnalyzer(
            AnalysisContext(EX)
        ).relation_matrix(INTERVALS, Relation.R4)
    )


class TestMutexVerifier:
    def test_scalar_checker(self, benchmark):
        ex, _ = token_mutex_trace(6, occupancies=20, replicas=2, seed=2)
        checker = MutualExclusionChecker(ex)
        result = benchmark(checker.check)
        assert result == []
