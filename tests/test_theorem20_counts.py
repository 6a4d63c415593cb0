"""Experiment E-20: per-relation comparison counts.

Asserts the linear engine's measured integer-comparison counts against
the amended Theorem-20 table (see ``repro.core.linear``): never more
than the bound, and exactly the bound whenever the evaluation cannot
short-circuit (universal relations that hold; existential relations
that fail).  Also confirms the polynomial engine's ``|N_X| · |N_Y|``
budget, completing the abstract's comparison.
"""

from hypothesis import given, settings

from repro.analysis.complexity import predicted_comparisons
from repro.core.counting import ComparisonCounter
from repro.core.linear import LinearEvaluator
from repro.core.polynomial import PolynomialEvaluator
from repro.core.relations import BASE_RELATIONS, FAMILY32, Relation
from repro.core.context import AnalysisContext

from .strategies import execution_with_pair

_UNIVERSAL = {Relation.R1, Relation.R1P, Relation.R2, Relation.R3P}


def _measured(engine_cls, ex, x, y, relation, **kwargs):
    counter = ComparisonCounter()
    engine = engine_cls(ex, counter=counter, **kwargs)
    cache = AnalysisContext.of(ex).cut_cache
    cache.quadruple(x), cache.quadruple(y)  # pre-warm the engine's memo
    result = engine.evaluate(relation, x, y)
    return result, counter.total


class TestLinearCounts:
    @settings(max_examples=100, deadline=None)
    @given(pair=execution_with_pair())
    def test_never_exceeds_bound(self, pair):
        ex, x, y = pair
        for rel in BASE_RELATIONS:
            _result, count = _measured(LinearEvaluator, ex, x, y, rel)
            bound = predicted_comparisons(rel, x.width, y.width)
            assert count <= bound, (rel, count, bound)

    @settings(max_examples=100, deadline=None)
    @given(pair=execution_with_pair())
    def test_exact_bound_without_short_circuit(self, pair):
        ex, x, y = pair
        for rel in BASE_RELATIONS:
            result, count = _measured(LinearEvaluator, ex, x, y, rel)
            bound = predicted_comparisons(rel, x.width, y.width)
            no_short_circuit = (rel in _UNIVERSAL) == result
            if no_short_circuit:
                assert count == bound, (rel, count, bound)

    @settings(max_examples=50, deadline=None)
    @given(pair=execution_with_pair())
    def test_family32_bounds(self, pair):
        """32-family queries obey the same bounds with proxy node sets
        (equal to N_X / N_Y under Definition 2)."""
        ex, x, y = pair
        counter = ComparisonCounter()
        engine = LinearEvaluator(ex, counter=counter)
        for spec in FAMILY32:
            # warm proxy cuts so only the query comparisons are counted
            from repro.nonatomic.proxies import proxy_of

            cache = AnalysisContext.of(ex).cut_cache
            cache.quadruple(proxy_of(x, spec.proxy_x))
            cache.quadruple(proxy_of(y, spec.proxy_y))
            before = counter.total
            engine.evaluate_spec(spec, x, y)
            used = counter.total - before
            bound = predicted_comparisons(spec.relation, x.width, y.width)
            assert used <= bound, (spec, used, bound)


class TestPolynomialCounts:
    @settings(max_examples=60, deadline=None)
    @given(pair=execution_with_pair())
    def test_nx_times_ny_budget(self, pair):
        ex, x, y = pair
        for rel in BASE_RELATIONS:
            _result, count = _measured(PolynomialEvaluator, ex, x, y, rel)
            assert count <= x.width * y.width, rel

    @settings(max_examples=60, deadline=None)
    @given(pair=execution_with_pair())
    def test_exact_quadratic_for_failed_r1(self, pair):
        """R1 without short-circuit (i.e. when it holds) costs exactly
        |N_X| · |N_Y| checks in the polynomial engine."""
        ex, x, y = pair
        result, count = _measured(PolynomialEvaluator, ex, x, y, Relation.R1)
        if result:
            assert count == x.width * y.width


class TestLinearBeatsPolynomial:
    @settings(max_examples=60, deadline=None)
    @given(pair=execution_with_pair())
    def test_headline_inequality(self, pair):
        """The abstract's claim: linear bounds never exceed the
        polynomial |N_X| · |N_Y| budget."""
        _ex, x, y = pair
        for rel in BASE_RELATIONS:
            lin = predicted_comparisons(rel, x.width, y.width)
            poly = predicted_comparisons(rel, x.width, y.width, "polynomial")
            assert lin <= poly
