"""Tests for NonatomicEvent (node sets, extrema, validation)."""

import re

import pytest
from hypothesis import given, settings

from repro.nonatomic.event import NonatomicEvent

from .strategies import execution_with_pair


class TestConstruction:
    def test_empty_rejected(self, message_exec):
        with pytest.raises(ValueError, match="at least one"):
            NonatomicEvent(message_exec, [])

    def test_dummy_rejected(self, message_exec):
        with pytest.raises(ValueError, match="not a real event"):
            NonatomicEvent(message_exec, [(0, 0)])
        with pytest.raises(ValueError, match="not a real event"):
            NonatomicEvent(message_exec, [(0, 4)])

    def test_out_of_range_rejected(self, message_exec):
        with pytest.raises(ValueError):
            NonatomicEvent(message_exec, [(7, 1)])

    @pytest.mark.parametrize(
        "bad",
        [(-1, 1), (2, 1), (0, 0), (0, 4), (1, 4)],
        ids=["negative-node", "node-past-P", "index-0", "index-k0+1",
             "index-k1+1"],
    )
    def test_unreal_id_named_in_message(self, message_exec, bad):
        # message_exec has 2 nodes of 3 events each; the bad id sits among
        # real ones on the same node and on the other node
        ids = [(0, 1), (0, 2), (1, 1), (1, 3), bad]
        with pytest.raises(
            ValueError,
            match=re.escape(f"event id {bad} is not a real event of the execution"),
        ):
            NonatomicEvent(message_exec, ids)

    def test_key_is_the_id_set(self, message_exec):
        # key equality is id-set equality, whatever the order or repeats
        x = NonatomicEvent(message_exec, [(0, 1), (1, 2)])
        assert x.key == NonatomicEvent(message_exec, [(1, 2), (0, 1), (1, 2)]).key
        assert x.key != NonatomicEvent(message_exec, [(0, 1)]).key
        assert x.key != NonatomicEvent(message_exec, [(0, 1), (1, 3)]).key
        assert x.key == x.packed_ids
        with pytest.raises(TypeError):
            NonatomicEvent(message_exec, [(0, 1)], key="k")

    def test_duplicates_collapse(self, message_exec):
        x = NonatomicEvent(message_exec, [(0, 1), (0, 1)])
        assert len(x) == 1

    def test_name(self, message_exec):
        assert NonatomicEvent(message_exec, [(0, 1)], name="X").name == "X"


class TestNodeSet:
    def test_definition_1(self, message_exec):
        x = NonatomicEvent(message_exec, [(0, 1), (0, 3), (1, 2)])
        assert x.node_set == (0, 1)
        assert x.width == 2

    def test_single_node(self, message_exec):
        x = NonatomicEvent(message_exec, [(1, 2)])
        assert x.node_set == (1,)

    @settings(max_examples=30, deadline=None)
    @given(pair=execution_with_pair())
    def test_node_set_matches_components(self, pair):
        _ex, x, _y = pair
        assert set(x.node_set) == {n for n, _ in x.ids}


class TestExtrema:
    def test_indices_align_with_node_set(self, message_exec):
        x = NonatomicEvent(message_exec, [(1, 3), (0, 2), (1, 1), (0, 3)])
        assert x.node_set == (0, 1)
        assert list(x.first_indices()) == [2, 1]
        assert list(x.last_indices()) == [3, 3]

    def test_first_last(self, message_exec):
        x = NonatomicEvent(message_exec, [(0, 1), (0, 3), (1, 2)])
        assert x.first_at(0) == 1
        assert x.last_at(0) == 3
        assert x.first_at(1) == x.last_at(1) == 2

    def test_first_last_ids(self, message_exec):
        x = NonatomicEvent(message_exec, [(0, 1), (0, 3), (1, 2)])
        assert x.first_ids() == ((0, 1), (1, 2))
        assert x.last_ids() == ((0, 3), (1, 2))

    def test_missing_node_raises(self, message_exec):
        x = NonatomicEvent(message_exec, [(0, 1)])
        with pytest.raises(KeyError):
            x.first_at(1)

    @settings(max_examples=30, deadline=None)
    @given(pair=execution_with_pair())
    def test_extrema_bound_components(self, pair):
        _ex, x, _y = pair
        for node, idx in x.ids:
            assert x.first_at(node) <= idx <= x.last_at(node)


class TestSetBehaviour:
    def test_contains_iter_len(self, message_exec):
        x = NonatomicEvent(message_exec, [(1, 2), (0, 1)])
        assert (0, 1) in x
        assert (0, 2) not in x
        assert list(x) == [(0, 1), (1, 2)]
        assert len(x) == 2

    def test_restrict(self, message_exec):
        x = NonatomicEvent(message_exec, [(0, 1), (0, 3), (1, 2)])
        assert x.restrict(0) == ((0, 1), (0, 3))
        assert x.restrict(1) == ((1, 2),)

    def test_disjoint(self, message_exec):
        x = NonatomicEvent(message_exec, [(0, 1)])
        y = NonatomicEvent(message_exec, [(0, 2)])
        z = NonatomicEvent(message_exec, [(0, 1), (1, 1)])
        assert x.is_disjoint(y)
        assert not x.is_disjoint(z)

    def test_equality_same_execution(self, message_exec):
        a = NonatomicEvent(message_exec, [(0, 1), (1, 2)])
        b = NonatomicEvent(message_exec, [(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_across_executions(self, message_exec, chain_exec):
        a = NonatomicEvent(message_exec, [(0, 1)])
        b = NonatomicEvent(chain_exec, [(0, 1)])
        assert a != b

    def test_cache_is_per_instance(self, message_exec):
        a = NonatomicEvent(message_exec, [(0, 1)])
        b = NonatomicEvent(message_exec, [(0, 1)])
        a.cache["k"] = 1
        assert "k" not in b.cache
