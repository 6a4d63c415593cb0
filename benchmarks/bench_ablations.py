"""Ablations A-1 … A-4: the design choices DESIGN.md calls out.

A-1  Key Idea 1 — reuse precomputed cuts vs recompute per query.
A-2  Key Idea 2 — restricted ``≪̸`` scans vs full-|P| scans.
A-3  hierarchy pruning when evaluating all 32 relations.
A-4  Definition-2 vs Definition-3 proxies.
"""

import pytest

from repro.core.context import AnalysisContext
from repro.core.evaluator import SynchronizationAnalyzer
from repro.core.linear import LinearEvaluator
from repro.core.relations import BASE_RELATIONS
from repro.nonatomic.proxies import ProxyDefinition

from .conftest import make_pair


# ----------------------------------------------------------------------
# A-1: cut reuse
# ----------------------------------------------------------------------
class TestAblationCutReuse:
    def test_with_reuse(self, benchmark, medium_workload):
        ex, pairs = medium_workload
        ev = LinearEvaluator(ex)
        cache = AnalysisContext.of(ex).cut_cache
        for x, y in pairs:
            cache.quadruple(x), cache.quadruple(y)

        def run():
            return [
                ev.evaluate(rel, x, y)
                for x, y in pairs
                for rel in BASE_RELATIONS
            ]

        benchmark(run)

    def test_without_reuse(self, benchmark, medium_workload):
        ex, pairs = medium_workload
        rounds: list[int] = []  # cut-cache misses of each timed round

        def run():
            # a new context per pair: no cut computed for one pair, or
            # in an earlier round, is there to reuse
            out, misses = [], 0
            for x, y in pairs:
                ctx = AnalysisContext(ex)
                ev = LinearEvaluator(ctx)
                out.extend(ev.evaluate(rel, x, y) for rel in BASE_RELATIONS)
                misses += ctx.cut_cache.misses
            rounds.append(misses)
            return out

        benchmark(run)
        assert rounds and rounds[0] > 0
        assert rounds == [rounds[0]] * len(rounds), rounds


# ----------------------------------------------------------------------
# A-2: Key Idea 2 node restriction
# ----------------------------------------------------------------------
class TestAblationKeyIdea2:
    @pytest.mark.parametrize("restricted", [True, False],
                             ids=["restricted", "full-P"])
    def test_scan_mode(self, benchmark, restricted):
        ex, x, y = make_pair(64, events_per_node=4, seed=13, spread=4)
        ev = LinearEvaluator(ex, node_restriction=restricted)
        ref = LinearEvaluator(ex)
        cache = AnalysisContext.of(ex).cut_cache
        cache.quadruple(x), cache.quadruple(y)
        for rel in BASE_RELATIONS:  # answers identical either way
            assert ev.evaluate(rel, x, y) == ref.evaluate(rel, x, y)

        def run():
            return [ev.evaluate(rel, x, y) for rel in BASE_RELATIONS]

        benchmark(run)


# ----------------------------------------------------------------------
# A-3: hierarchy pruning
# ----------------------------------------------------------------------
class TestAblationHierarchy:
    @pytest.mark.parametrize("prune", [False, True], ids=["exhaustive", "pruned"])
    def test_batch_mode(self, benchmark, prune):
        ex, x, y = make_pair(12, events_per_node=8, seed=17)
        an = SynchronizationAnalyzer(ex)
        an.all_relations(x, y)  # warm cuts
        benchmark(lambda: an.all_relations(x, y, prune=prune))


# ----------------------------------------------------------------------
# A-4: proxy definition
# ----------------------------------------------------------------------
class TestAblationProxyDefinition:
    def test_def2_per_node(self, benchmark):
        ex, x, y = make_pair(8, events_per_node=8, seed=19)
        an = SynchronizationAnalyzer(
            ex, proxy_definition=ProxyDefinition.PER_NODE
        )
        benchmark(lambda: an.all_relations(x, y))

    def test_def3_global_where_defined(self, benchmark):
        """Definition-3 proxies on a totally ordered interval (the case
        where they exist): a pipeline item's per-stage events."""
        from repro.events.poset import Execution
        from repro.nonatomic.selection import by_label_prefix
        from repro.simulation.workloads import pipeline_trace

        ex = Execution(pipeline_trace(6, items=2))
        items = by_label_prefix(ex, "item")
        x, y = items["item0"], items["item1"]
        an = SynchronizationAnalyzer(
            ex, proxy_definition=ProxyDefinition.GLOBAL
        )
        result = benchmark(lambda: an.all_relations(x, y))
        assert len(result) == 32
