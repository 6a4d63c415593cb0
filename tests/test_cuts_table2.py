"""Experiment E-T2: cuts, Table 2 timestamps, Lemmas 11/12/16.

Validates that the condensed (timestamp-based) cut constructions equal
the literal set definitions on every generated instance:

* ``↓e`` / ``e↑`` against reference pairwise-precedence constructions;
* C1–C4 against explicit unions/intersections of the ``↓x`` / ``x↑``
  families (Definition 10 / Lemma 16);
* Lemma 12's knowledge-theoretic surface properties;
* downward-closure facts stated after Lemma 11.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.context import AnalysisContext
from repro.core.cuts import (
    Cut,
    cut_C1,
    cut_C2,
    cut_C3,
    cut_C4,
    cut_from_event_set,
    cut_intersection,
    cut_union,
    cuts_of,
    future_cut,
    past_cut,
    reference_future_cut_set,
    reference_past_set,
)
from repro.nonatomic.event import NonatomicEvent

from .strategies import execution_with_pair, executions


class TestCutBasics:
    def test_vector_validation(self, message_exec):
        Cut(message_exec, [0, 0])
        Cut(message_exec, [4, 4])  # ⊤ positions
        with pytest.raises(ValueError, match="out of range"):
            Cut(message_exec, [5, 0])
        with pytest.raises(ValueError, match="out of range"):
            Cut(message_exec, [-1, 0])
        with pytest.raises(ValueError, match="length"):
            Cut(message_exec, [1])

    def test_contains(self, message_exec):
        c = Cut(message_exec, [2, 0])
        assert c.contains((0, 0))  # ⊥ always in
        assert c.contains((0, 2))
        assert not c.contains((0, 3))
        assert c.contains((1, 0))
        assert not c.contains((1, 1))

    def test_surfaces(self, message_exec):
        c = Cut(message_exec, [2, 0])
        assert c.surface_ids() == ((0, 2), (1, 0))
        assert c.real_surface_ids() == ((0, 2),)
        c_top = Cut(message_exec, [4, 1])
        assert c_top.real_surface_ids() == ((1, 1),)

    def test_support_and_node_set(self, message_exec):
        c = Cut(message_exec, [2, 0])
        assert c.support == (0,)
        assert c.node_set == (0,)
        assert Cut(message_exec, [0, 0]).is_bottom()
        assert not c.is_bottom()

    def test_event_ids(self, message_exec):
        c = Cut(message_exec, [2, 1])
        assert c.event_ids() == {(0, 1), (0, 2), (1, 1)}
        # ⊤ prefix yields all real events of the node
        c_top = Cut(message_exec, [4, 0])
        assert c_top.event_ids() == {(0, 1), (0, 2), (0, 3)}

    def test_lattice_ops(self, message_exec):
        a = Cut(message_exec, [2, 1])
        b = Cut(message_exec, [1, 3])
        assert list(a.union(b).vector) == [2, 3]
        assert list(a.intersection(b).vector) == [1, 1]
        assert a.intersection(b).issubset(a)
        assert a.issubset(a.union(b))

    def test_cross_execution_ops_rejected(self, message_exec, chain_exec):
        a = Cut(message_exec, [1, 1])
        b = Cut(chain_exec, [1])
        with pytest.raises(ValueError):
            a.union(b)  # type: ignore[arg-type]

    def test_equality_hash(self, message_exec):
        assert Cut(message_exec, [1, 2]) == Cut(message_exec, [1, 2])
        assert hash(Cut(message_exec, [1, 2])) == hash(Cut(message_exec, [1, 2]))
        assert Cut(message_exec, [1, 2]) != Cut(message_exec, [2, 2])

    def test_fold_helpers(self, message_exec):
        cs = [Cut(message_exec, [2, 1]), Cut(message_exec, [1, 3])]
        assert list(cut_union(cs).vector) == [2, 3]
        assert list(cut_intersection(cs).vector) == [1, 1]
        with pytest.raises(ValueError):
            cut_union([])
        with pytest.raises(ValueError):
            cut_intersection([])

    def test_cut_from_event_set(self, message_exec):
        c = cut_from_event_set(message_exec, {(0, 1), (0, 2), (1, 1)})
        assert list(c.vector) == [2, 1]
        with pytest.raises(ValueError, match="prefix-closed"):
            cut_from_event_set(message_exec, {(0, 2)})


class TestSpecialCuts:
    def test_past_cut_is_clock(self, message_exec):
        assert list(past_cut(message_exec, (1, 2)).vector) == [2, 2]

    def test_future_cut_values(self, message_exec):
        # (0,2)↑: node 0 earliest ≽ is itself; node 1 earliest ≽ is (1,2)
        assert list(future_cut(message_exec, (0, 2)).vector) == [2, 2]
        # (1,3)↑: nothing on node 0 follows it -> ⊤ position 4
        assert list(future_cut(message_exec, (1, 3)).vector) == [4, 3]

    @settings(max_examples=50, deadline=None)
    @given(ex=executions())
    def test_past_cut_matches_reference(self, ex):
        for eid in ex.iter_ids():
            assert past_cut(ex, eid).event_ids() == reference_past_set(ex, eid)

    @settings(max_examples=50, deadline=None)
    @given(ex=executions())
    def test_future_cut_matches_reference(self, ex):
        for eid in ex.iter_ids():
            got = future_cut(ex, eid).event_ids()
            assert got == reference_future_cut_set(ex, eid)

    @settings(max_examples=30, deadline=None)
    @given(ex=executions())
    def test_past_downward_closed_future_not_required(self, ex):
        """↓e is downward-closed in (E, ≺); e↑ need not be."""
        for eid in ex.iter_ids():
            assert past_cut(ex, eid).is_downward_closed()

    def test_future_cut_can_be_inconsistent(self, message_exec):
        # (1,1)↑ includes (1,1) but not its concurrent predecessor-free
        # region on node 0 beyond ⊥ — and crucially e↑ of a *receive*
        # excludes the send's later local events while including the
        # receive itself.
        c = future_cut(message_exec, (1, 2))
        assert not c.is_downward_closed()


class TestTable2Cuts:
    def _reference_quadruple(self, ex, x):
        pasts = [cut_from_event_set(ex, reference_past_set(ex, e)) for e in x.ids]
        futs = []
        for e in x.ids:
            # reference future cut may include ⊤ positions; build vector
            ids = reference_future_cut_set(ex, e)
            vec = np.zeros(ex.num_nodes, dtype=np.int64)
            for i in range(ex.num_nodes):
                members = [j for (n, j) in ids if n == i]
                k = ex.num_real(i)
                count = len(members)
                # prefix property: earliest event ≽ e included; if the
                # whole node is below e↑ surface the cut reaches ⊤.
                has_future = any(ex.leq(e, (i, j)) for j in range(1, k + 1))
                vec[i] = count if has_future else k + 1
            futs.append(Cut(ex, vec))
        return (
            cut_intersection(pasts),
            cut_union(pasts),
            cut_intersection(futs),
            cut_union(futs),
        )

    @settings(max_examples=40, deadline=None)
    @given(pair=execution_with_pair())
    def test_c1_to_c4_match_definition_10(self, pair):
        ex, x, _y = pair
        ref1, ref2, ref3, ref4 = self._reference_quadruple(ex, x)
        assert cut_C1(x) == ref1
        assert cut_C2(x) == ref2
        assert cut_C3(x) == ref3
        assert cut_C4(x) == ref4

    @settings(max_examples=40, deadline=None)
    @given(pair=execution_with_pair())
    def test_containments(self, pair):
        _ex, x, _y = pair
        q = cuts_of(x)
        assert q.c1.issubset(q.c2)
        assert q.c3.issubset(q.c4)

    @settings(max_examples=40, deadline=None)
    @given(pair=execution_with_pair())
    def test_past_cuts_downward_closed(self, pair):
        """∩⇓X and ∪⇓X are downward-closed (noted after Lemma 12)."""
        _ex, x, _y = pair
        assert cut_C1(x).is_downward_closed()
        assert cut_C2(x).is_downward_closed()

    def test_cuts_cached(self, message_exec):
        # the context's cut cache is the memo; the free functions keep
        # nothing on the interval
        x = NonatomicEvent(message_exec, [(0, 1), (1, 2)])
        cache = AnalysisContext.of(message_exec).cut_cache
        assert cache.cut(x, "C1") is cache.cut(x, "C1")
        assert cut_C1(x) == cache.cut(x, "C1")
        assert cuts_of(x).c3 == cache.cut(x, "C3")
        assert not x.cache


class TestLemma12:
    @settings(max_examples=40, deadline=None)
    @given(pair=execution_with_pair())
    def test_surface_properties(self, pair):
        ex, x, _y = pair
        # 12.1: every real surface event of ∩⇓X precedes-or-equals every x
        for e in cut_C1(x).real_surface_ids():
            assert all(ex.leq(e, xx) for xx in x.ids)
        # 12.2: every real surface event of ∪⇓X ≼ some x
        for e in cut_C2(x).real_surface_ids():
            assert any(ex.leq(e, xx) for xx in x.ids)
        # 12.3: every real surface event of ∩⇑X ≽ some x
        for e in cut_C3(x).real_surface_ids():
            assert any(ex.leq(xx, e) for xx in x.ids)
        # 12.4: every real surface event of ∪⇑X ≽ every x
        for e in cut_C4(x).real_surface_ids():
            assert all(ex.leq(xx, e) for xx in x.ids)

    @settings(max_examples=40, deadline=None)
    @given(pair=execution_with_pair())
    def test_surfaces_are_extremal(self, pair):
        """C1's surface is the *latest* common-knowledge prefix and C3's
        the *earliest* affected events: one step further violates the
        property."""
        ex, x, _y = pair
        v1 = cut_C1(x).vector
        for i in range(ex.num_nodes):
            nxt = int(v1[i]) + 1
            if nxt <= ex.num_real(i):
                assert not all(ex.leq((i, nxt), xx) for xx in x.ids)
        v3 = cut_C3(x).vector
        for i in range(ex.num_nodes):
            prev = int(v3[i]) - 1
            if 1 <= prev <= ex.num_real(i):
                assert not any(ex.leq(xx, (i, prev)) for xx in x.ids)
