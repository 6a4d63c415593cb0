"""The bounded-memory cut fill behind the batch pair path.

* Filling in blocks of ``FILL_BLOCK`` intervals gives the rows one
  block gives, at block boundaries and for intervals spanning one node
  or all of them (the array kernel behind ``cut_stats`` and
  ``CutCache.family_operands``).
* ``family_operands`` stores one row per distinct key: equal extrema
  under different keys do not share a row.
* ``family_operands`` keeps its scratch, above the row store and index
  it leaves behind, within a per-term budget plus ``O(FILL_BLOCK · P)``.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import cuts
from repro.core.context import AnalysisContext
from repro.core.cuts import flatten_extrema
from repro.events.clocks import CLOCK_DTYPE
from repro.events.poset import Execution
from repro.nonatomic.event import NonatomicEvent
from repro.nonatomic.proxies import Proxy, proxy_of
from repro.simulation.workloads import random_trace

NODES = 16
PER_NODE = 64

EX = Execution(random_trace(NODES, events_per_node=PER_NODE, msg_prob=0.3, seed=6))

_STATS = ("c1", "c2", "c3", "c4", "first", "last")


def _intervals(count: int, seed: int, widths=None) -> list[NonatomicEvent]:
    """``count`` intervals of two events on each of 1..P random nodes
    (``widths`` cycles through fixed node counts instead)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        width = widths[i % len(widths)] if widths else int(rng.integers(1, NODES + 1))
        ids = []
        for node in rng.permutation(NODES)[:width].tolist():
            a, b = (rng.choice(PER_NODE, size=2, replace=False) + 1).tolist()
            ids += [(node, a), (node, b)]
        out.append(NonatomicEvent(EX, ids))
    return out


def _fill(flat, out=None):
    """The batched cut kernel over flattened extrema of ``EX``."""
    return cuts._stats_from_extrema(EX, *flat, out=out)


def _operand_rows(intervals: list[NonatomicEvent]) -> tuple[dict, int]:
    cache = AnalysisContext(EX).cut_cache
    store, ls, us = cache.family_operands(intervals)
    rows = {
        name: np.stack([getattr(store, name)[ls], getattr(store, name)[us]])
        for name in _STATS
    }
    return rows, cache.misses


class TestFillBlocks:
    BLOCK = 5

    @pytest.mark.parametrize("k", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2])
    @pytest.mark.parametrize("widths", [None, (1,), (NODES,), (1, NODES)],
                             ids=["mixed", "one-node", "all-nodes", "one-and-all"])
    def test_blocks_match_one_block(self, monkeypatch, k, widths):
        intervals = _intervals(k, seed=k, widths=widths)
        flat = flatten_extrema(intervals)
        whole = _fill(flat)
        whole_ops, whole_misses = _operand_rows(intervals)
        monkeypatch.setattr(cuts, "FILL_BLOCK", self.BLOCK)
        blocked = _fill(flat)
        blocked_ops, blocked_misses = _operand_rows(intervals)
        for name in _STATS:
            got = getattr(blocked, name)
            assert got.dtype == CLOCK_DTYPE and not got.flags.writeable
            np.testing.assert_array_equal(got, getattr(whole, name))
            np.testing.assert_array_equal(blocked_ops[name], whole_ops[name])
        assert blocked_misses == whole_misses

    def test_out_rows_must_match(self):
        flat = flatten_extrema(_intervals(3, seed=1))
        with pytest.raises(ValueError, match="rows"):
            _fill(flat, out=cuts.empty_stats(4, NODES))


class TestOneRowPerKey:
    def test_equal_extrema_get_their_own_rows(self):
        # one event per node: L and U have equal extrema, two keys
        x = NonatomicEvent(EX, [(node, 3) for node in range(NODES)])
        assert x.first_indices() == x.last_indices()
        _rows, misses = _operand_rows([x])
        assert misses == 2

    def test_equal_first_events_different_ids(self):
        # equal L proxies, different U proxies and keys: four rows
        a = NonatomicEvent(EX, [(0, 2), (0, 5), (1, 4)])
        b = NonatomicEvent(EX, [(0, 2), (0, 7), (1, 4)])
        assert a.first_indices() == b.first_indices() and a.key != b.key
        _rows, misses = _operand_rows([a, b])
        assert misses == 4

    def test_equal_key_is_one_row(self):
        intervals = _intervals(20, seed=3, widths=(1, 2, 3))
        twins = [NonatomicEvent(EX, x.ids) for x in intervals]
        cache = AnalysisContext(EX).cut_cache
        store, ls, us = cache.family_operands(intervals + twins)
        assert cache.misses == 2 * len(intervals)
        assert len(store) == 2 * len(intervals)
        np.testing.assert_array_equal(ls[:20], ls[20:])
        np.testing.assert_array_equal(us[:20], us[20:])

    def test_rows_equal_cut_stats(self):
        intervals = _intervals(40, seed=8, widths=(1, 1, 2, NODES))
        rows, misses = _operand_rows(intervals)
        assert misses == 2 * len(intervals)
        for side, part in enumerate((Proxy.L, Proxy.U)):
            want = cuts.cut_stats(EX, [proxy_of(x, part) for x in intervals])
            for name in _STATS:
                np.testing.assert_array_equal(rows[name][side],
                                              getattr(want, name))


#: Scratch allowed per filled term (an interval's L or U row), and per
#: ``FILL_BLOCK · P`` of one block's gathers.  The fill before blocking
#: needed about 830 bytes per term at this shape.
TERM_BUDGET = 320
BLOCK_BUDGET = 96


@pytest.mark.parametrize("count", [4_000, 16_000])
def test_family_operands_scratch_is_bounded(count):
    intervals = _intervals(count, seed=count)
    cache = AnalysisContext(EX).cut_cache
    EX.reverse_table  # built before tracing: clock set-up, not fill scratch
    gc.collect()
    tracemalloc.start()
    try:
        cache.family_operands(intervals)
        # what stays is the row store, the key index and the operands
        resident, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    scratch = peak - resident
    bound = TERM_BUDGET * 2 * count + BLOCK_BUDGET * cuts.FILL_BLOCK * NODES
    assert scratch <= bound, (scratch, bound)
