"""The shared ``≪``-subtest verdict cache (Theorem 19/20 factoring).

Accounting properties of
:class:`~repro.core.evaluator.SharedVerdictCache`: a whole-family query
on one ordered pair costs a bounded number of distinct subtest
evaluations (24 total, of which 12 are genuine cut-pair ``≪`` tests —
well under the 16 ordered Table-2 cut pairs), repeat queries are pure
cache hits, and configurations whose semantics the factoring does not cover bypass the
cache entirely.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import evaluator, family
from repro.core.context import AnalysisContext
from repro.core.cuts import CutStats
from repro.core.evaluator import SynchronizationAnalyzer, VerdictTable
from repro.core.family import (
    N_OPERANDS,
    OPERAND_INDEX,
    FamilyOperands,
    compare_rows,
    verdict_matrix,
)
from repro.core.hierarchy import evaluate_all_pruned, maximal_true
from repro.core.linear import LinearEvaluator
from repro.core.relations import BASE_RELATIONS, FAMILY32, SUBTEST_KEYS, Relation
from repro.events.clocks import CLOCK_DTYPE
from repro.events.poset import Execution
from repro.nonatomic.event import NonatomicEvent
from repro.nonatomic.proxies import ProxyDefinition
from repro.nonatomic.selection import random_disjoint_pair
from repro.simulation.workloads import random_execution

from .strategies import execution_with_pair


def _pair(seed=7, nodes=6, k=6):
    ex = random_execution(nodes, events_per_node=k, msg_prob=0.35, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x, y = random_disjoint_pair(ex, rng, events_per_node=2)
    return ex, x, y


class TestAccounting:
    def test_subtest_key_space(self):
        assert len(SUBTEST_KEYS) == 24
        from repro.core.relations import SubtestKind, subtest_key

        cut_pair = [k for k in SUBTEST_KEYS if k[0] is SubtestKind.EXISTS_CUT]
        assert len(cut_pair) == 12  # <= the 16 ordered Table-2 cut pairs
        # the 8 base relations introduce zero keys beyond the family's
        family_keys = {subtest_key(s) for s in FAMILY32}
        assert {subtest_key(r) for r in BASE_RELATIONS} <= family_keys

    def test_all_relations_bounded_cut_pair_evals(self):
        """The whole 40-spec surface on one ordered pair costs at most
        16 distinct cut-pair ``≪`` evaluations (measured: 12)."""
        ex, x, y = _pair()
        an = SynchronizationAnalyzer(ex)
        vc = an.verdict_cache
        assert vc is not None and vc.evals == 0

        an.all_relations(x, y)
        an.base_relations(x, y)
        an.strongest(x, y)
        assert vc.evals == 24
        assert vc.cut_pair_evals == 12
        assert vc.cut_pair_evals <= 16

        hits = vc.hits
        an.all_relations(x, y)  # repeat: one verdict-row hit, no evals
        assert vc.evals == 24 and vc.cut_pair_evals == 12
        assert vc.hits == hits + 1

    def test_reverse_pair_is_a_separate_fill(self):
        ex, x, y = _pair()
        an = SynchronizationAnalyzer(ex)
        an.all_relations(x, y)
        an.all_relations(y, x)  # ordered pairs: (y, x) needs its own fill
        assert an.verdict_cache.evals == 48

    def test_cache_shared_across_analyzers(self):
        """Analyzers over the same context share one verdict cache."""
        ex, x, y = _pair()
        context = AnalysisContext(ex)
        a1 = SynchronizationAnalyzer(context)
        a2 = SynchronizationAnalyzer(context)
        assert a1.verdict_cache is a2.verdict_cache
        a1.all_relations(x, y)
        hits = a1.verdict_cache.hits
        a2.all_relations(x, y)
        assert a2.verdict_cache.evals == 24
        assert a2.verdict_cache.hits == hits + 1

    def test_shared_verdict_cache_ll_reduction(self):
        """The verdict cache answers the whole-family surface with ≥2.5x
        fewer ``≪`` evaluations than the per-spec loop, verdicts identical.
        """
        ex = random_execution(12, events_per_node=8, msg_prob=0.3, seed=11)
        x, y = random_disjoint_pair(
            ex, np.random.default_rng(12),
            num_nodes_x=12, num_nodes_y=12, events_per_node=2,
        )

        # per-spec scalar loop: every family/base spec through the linear
        # engine, plus the strongest query (pruned pass + maximality)
        eng = LinearEvaluator(AnalysisContext(ex))
        scalar = {spec: eng.evaluate_spec(spec, x, y) for spec in FAMILY32}
        scalar_base = {rel: eng.evaluate(rel, x, y) for rel in BASE_RELATIONS}
        pruned, _ = evaluate_all_pruned(
            lambda spec: eng.evaluate_spec(spec, x, y), FAMILY32
        )
        scalar_strongest = maximal_true(pruned)

        an = SynchronizationAnalyzer(AnalysisContext(ex))
        assert an.all_relations(x, y) == scalar
        assert an.base_relations(x, y) == scalar_base
        assert an.strongest(x, y) == scalar_strongest
        vc = an.verdict_cache
        assert vc is not None and vc.evals == 24 and vc.cut_pair_evals == 12

        # the batched entry points serve the identical verdicts
        ban = SynchronizationAnalyzer(AnalysisContext(ex))
        assert ban.all_relations_batch([(x, y)]) == [scalar]
        assert ban.base_relations_batch([(x, y)]) == [scalar_base]
        assert ban.strongest_batch([(x, y)]) == [scalar_strongest]
        assert ban.verdict_cache.fills == 1

        assert eng.ll_tests / vc.evals >= 2.5, (eng.ll_tests, vc.evals)


class TestBatchedKernel:
    """The one-pass ``(pairs, 24)`` fill behind the ``*_batch`` APIs."""

    def test_batch_matches_per_pair(self):
        ex, x, y = _pair()
        an = SynchronizationAnalyzer(ex)
        ref = SynchronizationAnalyzer(Execution(ex.trace))
        rx = ref.interval(sorted(x.ids))
        ry = ref.interval(sorted(y.ids))
        fam = an.all_relations_batch([(x, y), (y, x), (x, y)])
        assert fam[0] == fam[2] == ref.all_relations(rx, ry)
        assert fam[1] == ref.all_relations(ry, rx)
        assert an.base_relations_batch([(x, y)])[0] == ref.base_relations(rx, ry)
        assert an.strongest_batch([(x, y), (y, x)]) == [
            ref.strongest(rx, ry), ref.strongest(ry, rx)
        ]

    def test_batch_fill_is_one_pass(self):
        """N distinct pairs cost one kernel fill (24·N evals), and the
        reads afterwards are pure verdict-row hits."""
        ex = random_execution(6, events_per_node=6, msg_prob=0.35, seed=3)
        rng = np.random.default_rng(4)
        pairs = [
            random_disjoint_pair(ex, rng, events_per_node=2) for _ in range(5)
        ]
        an = SynchronizationAnalyzer(ex)
        vc = an.verdict_cache
        an.all_relations_batch(pairs + pairs)  # duplicates dedup in-fill
        assert vc.fills == 1
        assert vc.evals == 24 * len(pairs)
        assert vc.cut_pair_evals == 12 * len(pairs)
        assert vc.pairs_cached == len(pairs)
        hits = vc.hits
        an.strongest_batch(pairs)  # already filled: hits only
        assert vc.fills == 1 and vc.hits == hits + len(pairs)

    def test_batch_bypass_configuration_falls_back(self):
        ex, x, y = _pair()
        scalar = SynchronizationAnalyzer(ex, engine="polynomial")
        cached = SynchronizationAnalyzer(ex)
        assert scalar.verdict_cache is None
        assert scalar.all_relations_batch([(x, y)]) == \
            cached.all_relations_batch([(x, y)])
        assert scalar.base_relations_batch([(x, y)]) == \
            cached.base_relations_batch([(x, y)])
        assert scalar.strongest_batch([(x, y)]) == \
            cached.strongest_batch([(x, y)])

    def test_verdict_blocks_match_one_block(self, monkeypatch):
        rng = np.random.default_rng(9)
        store = CutStats(*(
            rng.integers(0, 4, size=(11, 5), dtype=np.int64)
            for _ in range(N_OPERANDS // 2)
        ))
        ops = FamilyOperands(
            store, rng.integers(0, 11, size=7), rng.integers(0, 11, size=7)
        )
        xs = rng.integers(0, 7, size=23)
        ys = rng.integers(0, 7, size=23)
        whole = verdict_matrix(ops, xs, ys)
        monkeypatch.setattr(family, "VERDICT_BLOCK", 5)  # 4 full blocks + 3
        np.testing.assert_array_equal(verdict_matrix(ops, xs, ys), whole)
        assert verdict_matrix(ops, xs[:0], ys[:0]).shape == (0, whole.shape[1])

    def test_gathers_keep_the_store_dtype(self, monkeypatch):
        rng = np.random.default_rng(11)
        mats = [rng.integers(0, 4, size=(9, 6)) for _ in range(N_OPERANDS // 2)]
        ls = rng.integers(0, 9, size=5)
        us = rng.integers(0, 9, size=5)
        xs = rng.integers(0, 5, size=30)
        ys = rng.integers(0, 5, size=30)
        wide = verdict_matrix(
            FamilyOperands(CutStats(*(m.astype(np.int64) for m in mats)), ls, us),
            xs, ys,
        )
        dtypes = set()
        gather = family._gather

        def recording(*args):
            out = gather(*args)
            dtypes.add(out.dtype)
            return out

        monkeypatch.setattr(family, "_gather", recording)
        narrow = verdict_matrix(
            FamilyOperands(CutStats(*(m.astype(CLOCK_DTYPE) for m in mats)), ls, us),
            xs, ys,
        )
        assert dtypes == {np.dtype(CLOCK_DTYPE)}
        np.testing.assert_array_equal(narrow, wide)

    def test_block_gathers_match_dense_operands(self):
        # reference: every interval's twelve operand rows copied out up front
        rng = np.random.default_rng(10)
        mats = [rng.integers(0, 4, size=(9, 6), dtype=np.int64)
                for _ in range(N_OPERANDS // 2)]
        ls = rng.integers(0, 9, size=5)
        us = rng.integers(0, 9, size=5)
        dense = np.stack(
            [mat[rows] for mat in mats for rows in (ls, us)], axis=1
        )
        xs = rng.integers(0, 5, size=40)
        ys = rng.integers(0, 5, size=40)
        got = verdict_matrix(FamilyOperands(CutStats(*mats), ls, us), xs, ys)
        for col, (kind, y_op, x_op) in enumerate(SUBTEST_KEYS):
            np.testing.assert_array_equal(
                got[:, col],
                compare_rows(kind, dense[ys, OPERAND_INDEX[y_op]],
                             dense[xs, OPERAND_INDEX[x_op]]),
            )


def _overlapping_pair() -> tuple[Execution, NonatomicEvent, NonatomicEvent]:
    ex = random_execution(4, events_per_node=5, msg_prob=0.3, seed=2)
    x = NonatomicEvent(ex, [(0, 1), (1, 2), (2, 3)])
    y = NonatomicEvent(ex, [(1, 2), (3, 1)])  # shares (1, 2) with x
    return ex, x, y


class TestVerdictTable:
    """The batch APIs answer with one read-only table of row views."""

    def test_rows_are_read_only_mappings(self):
        ex, x, y = _pair()
        an = SynchronizationAnalyzer(ex)
        fam = an.all_relations_batch([(x, y), (y, x)])
        assert isinstance(fam, VerdictTable) and len(fam) == 2
        row = fam[0]
        assert isinstance(row, Mapping) and len(row) == 32
        assert list(row) == list(FAMILY32)
        assert row == an.all_relations(x, y) and dict(row) == an.all_relations(x, y)
        assert fam[-1] == fam[1] and fam[1:] == [fam[1]]
        assert all(type(v) is bool for v in row.values())
        with pytest.raises(TypeError):
            row[FAMILY32[0]] = True  # type: ignore[index]
        with pytest.raises(KeyError):
            row[Relation.R1]  # a base relation is no family column
        with pytest.raises(IndexError):
            fam[2]
        assert not fam.matrix.flags.writeable
        base = an.base_relations_batch([(x, y)])
        assert type(base) is VerdictTable
        assert list(base[0]) == list(BASE_RELATIONS)
        assert base[0] == an.base_relations(x, y)

    def test_bypass_returns_the_same_type(self):
        ex, x, y = _pair()
        pairs = [(x, y), (y, x)]
        cached = SynchronizationAnalyzer(ex)
        for kwargs in (dict(engine="naive"), dict(counted=True)):
            bypass = SynchronizationAnalyzer(ex, **kwargs)
            for api in ("all_relations_batch", "base_relations_batch"):
                got = getattr(bypass, api)(pairs)
                assert type(got) is VerdictTable
                assert got == getattr(cached, api)(pairs)
                assert list(got) == list(getattr(cached, api)(pairs))

    def test_strongest_walks_each_distinct_row_once(self, monkeypatch):
        ex = random_execution(6, events_per_node=6, msg_prob=0.35, seed=3)
        rng = np.random.default_rng(4)
        pairs = [random_disjoint_pair(ex, rng, events_per_node=2) for _ in range(12)]
        walks = []

        def counting(results):
            walks.append(tuple(results.values()))
            return maximal_true(results)

        monkeypatch.setattr(evaluator, "maximal_true", counting)
        monkeypatch.setattr(evaluator, "_STRONGEST_MEMO", {})
        an = SynchronizationAnalyzer(AnalysisContext(ex))
        got = an.strongest_batch(pairs + pairs)
        distinct = {tuple(row.values()) for row in an.all_relations_batch(pairs)}
        assert len(walks) == len(set(walks)) == len(distinct)
        ref = SynchronizationAnalyzer(ex, engine="naive")
        assert got == [ref.strongest(x, y) for x, y in pairs + pairs]


    def test_scalar_and_batch_pack_rows_alike(self):
        # one memo serves both: a scalar key must name the same row
        rows = np.random.default_rng(5).random((50, 24)) < 0.5
        scalar = [evaluator._pack_row(r) for r in rows.tolist()]
        assert evaluator._pack_rows(rows).tolist() == scalar
        assert len(set(scalar)) == len({r.tobytes() for r in rows})


class TestValidateOnce:
    """The disjointness check runs once per pair, and a row filled by an
    analyzer that skips it never excuses an overlapping pair."""

    def test_checking_analyzer_raises_on_an_unchecked_row(self):
        ex, x, y = _overlapping_pair()
        ctx = AnalysisContext(ex)
        loose = SynchronizationAnalyzer(ctx, check_disjoint=False)
        strict = SynchronizationAnalyzer(ctx)
        loose.all_relations_batch([(x, y)])
        assert strict.verdict_cache is loose.verdict_cache
        assert strict.verdict_cache.pairs_cached == 1
        for api in (strict.all_relations_batch, strict.base_relations_batch,
                    strict.strongest_batch):
            with pytest.raises(ValueError, match="share atomic events"):
                api([(x, y)])
        with pytest.raises(ValueError, match="share atomic events"):
            strict.strongest(x, y)
        # the loose analyzer still answers from the row
        assert loose.strongest_batch([(x, y)]) == [loose.strongest(x, y)]

    def test_overlap_raises_before_any_fill(self):
        ex, x, y = _overlapping_pair()
        ok = (NonatomicEvent(ex, [(0, 4)]), NonatomicEvent(ex, [(3, 3)]))
        an = SynchronizationAnalyzer(ex)
        with pytest.raises(ValueError, match="share atomic events"):
            an.all_relations_batch([ok, (x, y)])
        assert an.verdict_cache.pairs_cached == 0
        assert an.verdict_cache.fills == 0

    def test_each_pair_is_tested_once(self, monkeypatch):
        ex = random_execution(6, events_per_node=6, msg_prob=0.35, seed=5)
        rng = np.random.default_rng(6)
        pairs = [random_disjoint_pair(ex, rng, events_per_node=2) for _ in range(7)]
        tested = []
        is_disjoint = NonatomicEvent.is_disjoint

        def counting(self, other):
            tested.append((self, other))
            return is_disjoint(self, other)

        monkeypatch.setattr(NonatomicEvent, "is_disjoint", counting)
        ctx = AnalysisContext(ex)
        SynchronizationAnalyzer(ctx, check_disjoint=False).all_relations_batch(pairs)
        assert tested == []
        an = SynchronizationAnalyzer(ctx)
        an.all_relations_batch(pairs)
        an.base_relations_batch(pairs)
        an.strongest_batch(pairs + pairs)
        assert len(tested) == len(pairs)


#: per-pair scalar-oracle analyzer config: linear engine, counted → the
#: verdict cache is bypassed and every spec runs the scalar path.
_ORACLE = dict(counted=True)


class TestVectorizedOracleEquivalence:
    """Hypothesis: the vectorized ``(pairs, 24)`` verdict matrix is
    bit-identical to scalar per-pair evaluation over all 40 specs."""

    @settings(max_examples=15, deadline=None)
    @given(exy=execution_with_pair(max_nodes=4, max_ops=25))
    def test_all_40_specs_match_scalar(self, exy):
        ex, x, y = exy
        ctx = AnalysisContext(Execution(ex.trace))
        x = ctx.interval(sorted(x.ids), name="X")
        y = ctx.interval(sorted(y.ids), name="Y")
        cached = SynchronizationAnalyzer(ctx)
        oracle = SynchronizationAnalyzer(ctx, **_ORACLE)
        assert cached.verdict_cache is not None
        assert oracle.verdict_cache is None
        fam = cached.all_relations_batch([(x, y), (y, x)])
        base = cached.base_relations_batch([(x, y), (y, x)])
        for (a, b), f, bs in zip([(x, y), (y, x)], fam, base, strict=True):
            assert f == {s: oracle.holds(s, a, b) for s in FAMILY32}
            assert bs == {r: oracle.holds(r, a, b) for r in BASE_RELATIONS}


class TestBypass:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(engine="naive"),
            dict(engine="polynomial"),
            dict(counted=True),
            dict(proxy_definition=ProxyDefinition.GLOBAL),
        ],
        ids=["naive", "polynomial", "counted", "global-proxies"],
    )
    def test_uncovered_configurations_bypass(self, kwargs):
        ex, x, y = _pair()
        an = SynchronizationAnalyzer(ex, check_disjoint=False, **kwargs)
        assert an.verdict_cache is None

    def test_bypassed_results_still_agree(self):
        ex, x, y = _pair()
        cached = SynchronizationAnalyzer(ex)
        naive = SynchronizationAnalyzer(ex, engine="naive")
        assert cached.all_relations(x, y) == naive.all_relations(x, y)
        assert cached.strongest(x, y) == naive.strongest(x, y)
