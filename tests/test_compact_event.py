"""The compact interval: packed ids plus per-node extrema.

* A Hypothesis model test holds :class:`NonatomicEvent` to a plain
  ``frozenset`` of ``(node, index)`` ids over random id lists with
  duplicates and permutations.
* Ids are taken through :func:`operator.index` and range-checked before
  packing, so no float, string or out-of-range part can alias a real id.
* At the ``offline_pairs`` benchmark shape (about 8 nodes × 2 events) an
  interval keeps well under 1 KB, and the batch APIs never build its
  ``ids`` frozenset.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluator import SynchronizationAnalyzer
from repro.core.relations import BASE_RELATIONS, FAMILY32
from repro.events.builder import TraceBuilder
from repro.events.poset import Execution
from repro.nonatomic.event import NonatomicEvent
from repro.simulation.workloads import random_trace

NODES, PER_NODE = 4, 6


def _grid() -> Execution:
    b = TraceBuilder(NODES)
    for _ in range(PER_NODE):
        for node in range(NODES):
            b.internal(node)
    return b.execute()


GRID = _grid()

real_ids = st.tuples(
    st.integers(0, NODES - 1), st.integers(1, PER_NODE)
)
id_lists = st.lists(real_ids, min_size=1, max_size=24)


class TestModel:
    @settings(max_examples=200, deadline=None)
    @given(xs=id_lists, ys=id_lists, data=st.data())
    def test_matches_frozenset_reference(self, xs, ys, data):
        ref = frozenset(xs)
        x = NonatomicEvent(GRID, xs)
        assert x.ids == ref
        assert len(x) == len(ref)
        assert list(x) == sorted(ref)
        for node in range(NODES):
            for j in range(PER_NODE + 2):
                assert ((node, j) in x) == ((node, j) in ref)
        assert "ab" not in x and (0,) not in x
        nodes = sorted({n for n, _ in ref})
        assert x.node_set == tuple(nodes)
        assert x.width == len(nodes)
        for node in range(-1, NODES + 1):
            on_node = sorted(e for e in ref if e[0] == node)
            assert x.restrict(node) == tuple(on_node)
            if on_node:
                assert x.first_at(node) == on_node[0][1]
                assert x.last_at(node) == on_node[-1][1]
            else:
                with pytest.raises(KeyError):
                    x.first_at(node)
        assert list(zip(x.node_set, x.first_indices(), strict=True)) == [
            x.restrict(n)[0] for n in nodes
        ]
        assert list(zip(x.node_set, x.last_indices(), strict=True)) == [
            x.restrict(n)[-1] for n in nodes
        ]
        # a permuted, duplicated list of the same ids is the same interval
        shuffled = data.draw(st.permutations(xs + xs[: len(xs) // 2]))
        twin = NonatomicEvent(GRID, shuffled)
        assert twin == x and hash(twin) == hash(x) and twin.key == x.key
        # equal id sets <=> equal keys (and equal events)
        y = NonatomicEvent(GRID, ys)
        same = frozenset(ys) == ref
        assert (y.key == x.key) is same
        assert (y == x) is same
        assert x.is_disjoint(y) is ref.isdisjoint(ys)
        assert y.is_disjoint(x) is ref.isdisjoint(ys)

    def test_other_execution_is_not_equal(self):
        x = NonatomicEvent(GRID, [(0, 1)])
        assert x != NonatomicEvent(_grid(), [(0, 1)])


class TestIdCoercion:
    @pytest.mark.parametrize(
        "bad", [(0, 1.9), (0, "2"), (0.0, 1), ("0", 1), (0, None)],
        ids=["float-index", "str-index", "float-node", "str-node", "none"],
    )
    def test_non_integers_rejected(self, bad):
        with pytest.raises(TypeError):
            NonatomicEvent(GRID, [(0, 1), bad])

    def test_numpy_integers_accepted(self):
        x = NonatomicEvent(GRID, [(np.int64(1), np.int32(2)), (np.uint8(0), 3)])
        assert x == NonatomicEvent(GRID, [(0, 3), (1, 2)])
        assert all(type(p) is int for eid in x for p in eid)

    @pytest.mark.parametrize(
        "bad",
        [(0, -1), (0, 2**32), (0, 2**32 + 1), (-1, 1), (2**32, 1),
         (1, -(2**32) + 1)],
        ids=["negative-index", "index-2^32", "index-2^32+1", "negative-node",
             "node-2^32", "index-aliasing-node-0"],
    )
    def test_out_of_range_rejected_before_packing(self, bad):
        # (0, 2**32 + 1) packs like (1, 1) and (1, 1 - 2**32) like (0, 1)
        # if unchecked; both must be rejected, not aliased to a real id
        with pytest.raises(ValueError, match="not a real event"):
            NonatomicEvent(GRID, [bad])
        with pytest.raises(ValueError, match="not a real event"):
            NonatomicEvent(GRID, [(1, 1), bad, (0, 1)])


def _offline_pairs_shape(count: int) -> tuple[Execution, list[list[int]]]:
    """An ``offline_pairs``-like execution and flat id lists of
    ``count`` intervals, each 8 nodes × 2 events."""
    ex = Execution(random_trace(16, events_per_node=256, msg_prob=0.3, seed=4))
    rng = np.random.default_rng(4)
    flats = []
    for _ in range(count):
        flat: list[int] = []
        for node in rng.permutation(16)[:8].tolist():
            a, b = (rng.choice(256, size=2, replace=False) + 1).tolist()
            flat += [node, a, node, b]
        flats.append(flat)
    return ex, flats


def test_interval_footprint_under_1kb():
    ex, flats = _offline_pairs_shape(2000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [
            NonatomicEvent(ex, zip(f[0::2], f[1::2], strict=True)) for f in flats
        ]
        per_interval = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()
    assert per_interval < 1024, per_interval


def test_batch_apis_build_no_id_set(monkeypatch):
    ex, flats = _offline_pairs_shape(40)
    intervals = [
        NonatomicEvent(ex, zip(f[0::2], f[1::2], strict=True)) for f in flats
    ]
    pairs = [
        (x, y) for x in intervals[:20] for y in intervals[20:] if x.is_disjoint(y)
    ]
    assert len(pairs) > 50
    built = []
    ids_property = NonatomicEvent.ids

    def counting(self):
        built.append(self)
        return ids_property.fget(self)

    monkeypatch.setattr(NonatomicEvent, "ids", property(counting))
    an = SynchronizationAnalyzer(ex)
    family = an.all_relations_batch(pairs)
    base = an.base_relations_batch(pairs)
    strongest = an.strongest_batch(pairs)
    specs = list(BASE_RELATIONS) + list(FAMILY32)
    verdicts = an.batch_holds(
        [(specs[i % len(specs)], x, y) for i, (x, y) in enumerate(pairs)]
    )
    assert built == []
    assert len(family) == len(base) == len(strongest) == len(verdicts)
    # the counter does count: a scalar reader builds the set
    assert intervals[0].ids
    assert built == [intervals[0]]
