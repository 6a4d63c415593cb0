"""Tests for the implication hierarchy and pruned batch evaluation."""

import os
import subprocess
import sys
import textwrap

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.core import hierarchy
from repro.core.hierarchy import (
    BASE_IMPLICATIONS,
    base_dag,
    evaluate_all_pruned,
    family_dag,
    implies,
    maximal_true,
)
from repro.core.linear import LinearEvaluator
from repro.core.naive import NaiveEvaluator
from repro.core.relations import BASE_RELATIONS, FAMILY32, Relation, RelationSpec
from repro.nonatomic.proxies import Proxy

from .strategies import execution_with_pair


class TestDagStructure:
    def test_base_nodes(self):
        g = base_dag()
        assert set(g.nodes) == set(BASE_RELATIONS)

    def test_synonym_cycles(self):
        assert implies(Relation.R1, Relation.R1P)
        assert implies(Relation.R1P, Relation.R1)
        assert implies(Relation.R4, Relation.R4P)
        assert implies(Relation.R4P, Relation.R4)

    def test_chain_r1_to_r4(self):
        assert implies(Relation.R1, Relation.R2P)
        assert implies(Relation.R1, Relation.R4)
        assert implies(Relation.R2P, Relation.R4)
        assert implies(Relation.R3, Relation.R4)

    def test_non_implications(self):
        assert not implies(Relation.R2, Relation.R3)
        assert not implies(Relation.R2P, Relation.R3P)
        assert not implies(Relation.R4, Relation.R1)

    def test_reflexive(self):
        for rel in BASE_RELATIONS:
            assert implies(rel, rel)

    def test_type_mixing_rejected(self):
        with pytest.raises(TypeError):
            implies(Relation.R1, FAMILY32[0])

    def test_family_dag_size(self):
        g = family_dag()
        assert g.number_of_nodes() == 32

    def test_proxy_monotonicity_edges(self):
        a = RelationSpec(Relation.R2, Proxy.U, Proxy.L)
        assert implies(a, RelationSpec(Relation.R2, Proxy.L, Proxy.L))
        assert implies(a, RelationSpec(Relation.R2, Proxy.U, Proxy.U))
        assert implies(a, RelationSpec(Relation.R4, Proxy.L, Proxy.U))

    def test_strongest_family_member(self):
        top = RelationSpec(Relation.R1, Proxy.U, Proxy.L)
        for spec in FAMILY32:
            assert implies(top, spec), spec


class TestSemanticSoundness:
    @settings(max_examples=80, deadline=None)
    @given(pair=execution_with_pair())
    def test_base_implications_hold_semantically(self, pair):
        """Every DAG edge is a true implication on every instance."""
        ex, x, y = pair
        naive = NaiveEvaluator(ex)
        results = {rel: naive.evaluate(rel, x, y) for rel in BASE_RELATIONS}
        for a, b in BASE_IMPLICATIONS:
            assert not (results[a] and not results[b]), (a, b)

    @settings(max_examples=50, deadline=None)
    @given(pair=execution_with_pair())
    def test_family_hierarchy_holds_semantically(self, pair):
        ex, x, y = pair
        naive = NaiveEvaluator(ex)
        results = {s: naive.evaluate_spec(s, x, y) for s in FAMILY32}
        g = family_dag()
        for a, b in g.edges:
            assert not (results[a] and not results[b]), (a, b)


class TestPrunedEvaluation:
    @settings(max_examples=50, deadline=None)
    @given(pair=execution_with_pair())
    def test_pruned_equals_exhaustive(self, pair):
        ex, x, y = pair
        lin = LinearEvaluator(ex)
        exhaustive = {s: lin.evaluate_spec(s, x, y) for s in FAMILY32}
        pruned, evaluations = evaluate_all_pruned(
            lambda s: lin.evaluate_spec(s, x, y), FAMILY32
        )
        assert pruned == exhaustive
        assert evaluations <= 32

    @settings(max_examples=30, deadline=None)
    @given(pair=execution_with_pair())
    def test_pruning_saves_work_when_extreme(self, pair):
        """If the strongest relation holds, pruning needs one call for
        the whole strongly-connected top; if the weakest fails, very few."""
        ex, x, y = pair
        lin = LinearEvaluator(ex)
        results, evaluations = evaluate_all_pruned(
            lambda s: lin.evaluate_spec(s, x, y), FAMILY32
        )
        if all(results.values()) or not any(results.values()):
            assert evaluations < 32

    def test_empty_universe(self):
        results, n = evaluate_all_pruned(lambda s: True, [])
        assert results == {} and n == 0

    def test_base_universe(self, message_exec):
        from repro.nonatomic.event import NonatomicEvent

        x = NonatomicEvent(message_exec, [(0, 1)])
        y = NonatomicEvent(message_exec, [(1, 2)])
        lin = LinearEvaluator(message_exec)
        results, _ = evaluate_all_pruned(
            lambda r: lin.evaluate(r, x, y), BASE_RELATIONS
        )
        assert all(results.values())  # x < y: everything holds


class TestMaximalTrue:
    def test_maximal_of_all_true(self):
        results = {s: True for s in FAMILY32}
        top = maximal_true(results)
        # R1(U,L) ≡ R1'(U,L) sit at the top (mutual synonyms)
        assert set(top) == {
            RelationSpec(Relation.R1, Proxy.U, Proxy.L),
            RelationSpec(Relation.R1P, Proxy.U, Proxy.L),
        }

    def test_maximal_of_none(self):
        assert maximal_true({s: False for s in FAMILY32}) == ()

    def test_maximal_mixed(self):
        results = {s: False for s in FAMILY32}
        weak = RelationSpec(Relation.R4, Proxy.L, Proxy.U)
        mid = RelationSpec(Relation.R2, Proxy.L, Proxy.U)
        results[weak] = True
        results[mid] = True
        results[RelationSpec(Relation.R4P, Proxy.L, Proxy.U)] = True
        top = maximal_true(results)
        assert mid in top
        assert weak not in top


class TestPlainReachability:
    """The plain-Python reachability that keeps networkx off the import
    path answers exactly what networkx answers on the hierarchy."""

    @pytest.mark.parametrize("rel", [*BASE_RELATIONS, *FAMILY32], ids=str)
    def test_matches_networkx(self, rel):
        g = base_dag() if isinstance(rel, Relation) else family_dag()
        assert hierarchy._descendants(rel) == nx.descendants(g, rel)
        assert hierarchy._ancestors(rel) == nx.ancestors(g, rel)

    @settings(max_examples=40, deadline=None)
    @given(pair=execution_with_pair())
    def test_pruned_counts_unchanged(self, pair):
        """Same results and the same number of evaluations as pruning
        driven by networkx reachability."""
        ex, x, y = pair
        lin = LinearEvaluator(ex)

        def evaluate(spec):
            return lin.evaluate_spec(spec, x, y)

        plain = evaluate_all_pruned(evaluate, FAMILY32)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                hierarchy, "_descendants",
                lambda a: frozenset(nx.descendants(family_dag(), a)),
            )
            mp.setattr(
                hierarchy, "_ancestors",
                lambda a: frozenset(nx.ancestors(family_dag(), a)),
            )
            reference = evaluate_all_pruned(evaluate, FAMILY32)
        assert plain == reference


def test_service_and_cli_imports_skip_networkx():
    """Starting the CLI or the service, and the analyzer's strongest
    relations, must not import networkx (a fresh interpreter)."""
    script = textwrap.dedent(
        """
        import sys

        import repro.cli
        import repro.service.server
        from repro import AnalysisContext, SynchronizationAnalyzer, TraceBuilder

        b = TraceBuilder(2)
        a1 = b.internal(0)
        h = b.send(0)
        r = b.recv(1, h)
        b2 = b.internal(1)
        ctx = AnalysisContext.of(b.execute())
        x = ctx.interval([a1, h.send], name="X")
        y = ctx.interval([r, b2], name="Y")
        strongest = SynchronizationAnalyzer(ctx).strongest_batch([(x, y), (y, x)])
        assert strongest[0] and not strongest[1], strongest
        assert "networkx" not in sys.modules
        """
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
