"""The bounded-memory cut fill behind the batch pair path.

* Filling in blocks of ``FILL_BLOCK`` intervals gives the rows one
  block gives, at block boundaries and for intervals spanning one node
  or all of them (the array kernel behind ``cut_stats`` and
  ``CutCache.family_operands``).
* Terms with equal extrema share one row whatever the hash says: a
  hash shared by unequal extrema is regrouped exactly.
* ``family_operands`` keeps its scratch, above the row store and index
  it leaves behind, within a per-term budget plus ``O(FILL_BLOCK · P)``.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import context, cuts
from repro.core.context import AnalysisContext
from repro.core.cuts import flatten_extrema
from repro.events.clocks import CLOCK_DTYPE
from repro.events.poset import Execution
from repro.nonatomic.event import NonatomicEvent
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


class TestExactDedup:
    def test_colliding_hashes_are_regrouped(self, monkeypatch):
        # equal intervals and equal proxies: every group has several terms
        base = _intervals(30, seed=3, widths=(1, 2, 3))
        intervals = base + [NonatomicEvent(EX, x.ids) for x in base[::3]]
        want, want_misses = _operand_rows(intervals)

        def constant_hash(flat):
            return np.zeros((2, flat[3].shape[0]), dtype=np.uint64)

        monkeypatch.setattr(context, "_side_hashes", constant_hash)
        got, got_misses = _operand_rows(intervals)
        assert got_misses == want_misses
        for name in _STATS:
            np.testing.assert_array_equal(got[name], want[name])

    def test_groups_match_reference(self):
        intervals = _intervals(200, seed=8, widths=(1, 1, 2, NODES))
        owners = intervals
        nodes, first, last, counts = flatten_extrema(owners)
        flat = (nodes, first, last, counts, np.cumsum(counts) - counts)
        owner = np.repeat(np.arange(len(owners)), 2)
        side = np.tile(np.array([0, 1], dtype=np.int8), len(owners))
        reps, rank = context._distinct_extrema(flat, owner, side)
        # reference: group the L (side 0) and U (side 1) proxy terms by
        # their (nodes, indices) tuples
        seen: dict[tuple, int] = {}
        head = []
        for t, (o, s) in enumerate(zip(owner.tolist(), side.tolist())):
            x = owners[o]
            index = x.last_indices() if s else x.first_indices()
            head.append(seen.setdefault((x.node_set, index), t))
        np.testing.assert_array_equal(reps, sorted(set(head)))
        np.testing.assert_array_equal(reps[rank], head)


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
