"""E-HL — the abstract's headline: polynomial → linear evaluation.

Sweeps the node count (with X and Y spanning all nodes, so
``|N_X| = |N_Y| = |P|``) and measures all-8-relation evaluation under
each engine.  The expected shape, which EXPERIMENTS.md records:

* naive counts grow with ``|X| · |Y|`` (quadratic in P here, with a
  large constant from the per-node populations);
* polynomial counts fit ``count ~ P^2``;
* linear counts fit ``count ~ P^1`` — the paper's contribution —
  so the linear engine wins everywhere and the gap widens linearly.

The companion (non-benchmark) assertions fit the exponents explicitly.
"""

import pytest

from repro.analysis.complexity import fit_power_law, measure_comparisons
from repro.core.context import AnalysisContext
from repro.core.linear import LinearEvaluator
from repro.core.naive import NaiveEvaluator
from repro.core.polynomial import PolynomialEvaluator
from repro.core.relations import BASE_RELATIONS

from .conftest import SCALING_NODES, make_pair

ENGINES = {
    "naive": NaiveEvaluator,
    "polynomial": PolynomialEvaluator,
    "linear": LinearEvaluator,
}


@pytest.mark.parametrize("num_nodes", SCALING_NODES, ids=lambda n: f"P={n}")
@pytest.mark.parametrize("engine", list(ENGINES))
def test_scaling_sweep(benchmark, engine, num_nodes):
    ex, x, y = make_pair(num_nodes, events_per_node=6, seed=num_nodes)
    ev = ENGINES[engine](ex)
    cache = AnalysisContext.of(ex).cut_cache
    cache.quadruple(x), cache.quadruple(y)

    def run():
        return [ev.evaluate(rel, x, y) for rel in BASE_RELATIONS]

    benchmark(run)


def test_fit_exponents(benchmark):
    """The shape claim, asserted: linear engine ≈ P^1, polynomial ≈ P^2.

    Uses barrier phases as X and Y: the barrier guarantees R1(X, Y), so
    the universal relations (R1, R1', R2, R3') cannot short-circuit and
    pay their full worst-case comparison bill at every size.
    """
    from repro.events.poset import Execution
    from repro.nonatomic.selection import by_label
    from repro.simulation.workloads import barrier_trace

    totals = {"polynomial": [], "linear": []}
    for num_nodes in SCALING_NODES:
        ex = Execution(barrier_trace(num_nodes, phases=2, work_per_phase=1))
        x = by_label(ex, "phase0")
        y = by_label(ex, "phase1")
        assert x.width == y.width == num_nodes
        for name in totals:
            counts = measure_comparisons(
                lambda e, c, cls=ENGINES[name]: cls(e, counter=c), ex, [(x, y)]
            )
            totals[name].append(sum(v[0] for v in counts.values()))
    b_poly, _ = fit_power_law(SCALING_NODES, totals["polynomial"])
    b_lin, _ = fit_power_law(SCALING_NODES, totals["linear"])
    benchmark.extra_info["exponent_polynomial"] = round(b_poly, 3)
    benchmark.extra_info["exponent_linear"] = round(b_lin, 3)
    benchmark(lambda: fit_power_law(SCALING_NODES, totals["linear"]))
    print(f"\nscaling exponents: polynomial={b_poly:.2f}, linear={b_lin:.2f}")
    print(f"polynomial counts: {totals['polynomial']}")
    print(f"linear counts:     {totals['linear']}")
    assert b_poly > 1.6, totals["polynomial"]
    assert b_lin < 1.3, totals["linear"]
    # and the linear engine never loses
    for p, l in zip(totals["polynomial"], totals["linear"], strict=True):
        assert l <= p
