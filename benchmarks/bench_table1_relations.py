"""E-T1 — Table 1: per-relation evaluation cost by engine.

One benchmark per (engine, relation) over a shared 16-node workload.
The paper's claim reproduced here: the linear conditions answer the
same queries as the definition-level evaluation, at a per-query cost
independent of ``|X| · |Y|`` and linear in the node sets.
"""

import pytest

from repro.core.linear import LinearEvaluator
from repro.core.naive import NaiveEvaluator
from repro.core.polynomial import PolynomialEvaluator
from repro.core.relations import BASE_RELATIONS
from repro.core.context import AnalysisContext

ENGINES = {
    "naive": NaiveEvaluator,
    "polynomial": PolynomialEvaluator,
    "linear": LinearEvaluator,
}


@pytest.mark.parametrize("engine", list(ENGINES))
@pytest.mark.parametrize("relation", BASE_RELATIONS, ids=lambda r: r.display)
def test_relation_engine(benchmark, medium_workload, engine, relation):
    ex, pairs = medium_workload
    ev = ENGINES[engine](ex)
    cache = AnalysisContext.of(ex).cut_cache
    for x, y in pairs:  # pre-warm the cut cache (one-time cost, Key Idea 1)
        cache.quadruple(x), cache.quadruple(y)

    def run():
        out = 0
        for x, y in pairs:
            out += ev.evaluate(relation, x, y)
        return out

    result = benchmark(run)
    benchmark.extra_info["true_fraction"] = result / len(pairs)
    # engines must agree — benchmarks double as integration checks
    ref = NaiveEvaluator(ex)
    for x, y in pairs:
        assert ev.evaluate(relation, x, y) == ref.evaluate(relation, x, y)
