"""E-SET — §2.3's claim: timestamp/cut setup cost is negligible.

The paper asserts (deferring to [8]) that *"the overhead of setting up
the timestamp structure is negligible in comparison with the overhead
of the evaluation conditions themselves"* once cuts are reused across
queries (Key Idea 1).  This module measures:

* the one-time clock construction for the whole execution;
* the one-time per-interval cut construction;
* the per-query evaluation cost against many other intervals;
* the :class:`~repro.core.context.CutCache` hit path vs a cold fold;
* :meth:`SynchronizationAnalyzer.batch_holds` vs the scalar query loop
  over a large interval batch (the batch driver's headline speedup);

and prints the break-even query count.
"""

import time

import numpy as np

from repro.core.context import AnalysisContext, CutCache
from repro.core.cuts import cut_stats, cuts_of
from repro.core.evaluator import SynchronizationAnalyzer
from repro.core.linear import LinearEvaluator
from repro.core.relations import BASE_RELATIONS, parse_spec
from repro.events.poset import Execution
from repro.simulation.workloads import random_trace

from .common import best_of, best_of_each, disjoint_intervals
from .conftest import fresh_intervals, make_pairs

TRACE = random_trace(16, events_per_node=12, msg_prob=0.3, seed=21)
EX = Execution(TRACE)
PAIRS = make_pairs(EX, 30)


def test_clock_setup(benchmark):
    """One-time cost: both timestamp structures for the full trace."""
    benchmark(lambda: Execution(TRACE))


def test_cut_setup_per_interval(benchmark):
    """One-time cost per interval: the four cut timestamps."""
    x, _y = PAIRS[0]

    def run():
        fresh = fresh_intervals(x)
        return cuts_of(fresh)

    benchmark(run)


def test_query_cost_with_reuse(benchmark):
    """Steady-state: all 8 relations over 30 pairs with warm cuts."""
    ev = LinearEvaluator(EX)
    cache = AnalysisContext.of(EX).cut_cache
    for x, y in PAIRS:
        cache.quadruple(x), cache.quadruple(y)

    def run():
        total = 0
        for x, y in PAIRS:
            for rel in BASE_RELATIONS:
                total += ev.evaluate(rel, x, y)
        return total

    benchmark(run)


def test_amortization_report(benchmark):
    """Break-even analysis: queries needed to amortize the setup."""
    import time

    t0 = time.perf_counter()
    Execution(TRACE)
    clock_setup = time.perf_counter() - t0

    x0, y0 = PAIRS[0]
    t0 = time.perf_counter()
    for _ in range(100):
        cuts_of(fresh_intervals(x0))
    cut_setup = (time.perf_counter() - t0) / 100

    ev = LinearEvaluator(EX)
    cache = AnalysisContext.of(EX).cut_cache
    cache.quadruple(x0), cache.quadruple(y0)
    t0 = time.perf_counter()
    reps = 2000
    for _ in range(reps):
        for rel in BASE_RELATIONS:
            ev.evaluate(rel, x0, y0)
    per_query = (time.perf_counter() - t0) / (reps * len(BASE_RELATIONS))

    print(
        f"\nsetup amortization: clock setup {clock_setup * 1e3:.2f} ms "
        f"(whole trace, {TRACE.total_events} events), cut setup "
        f"{cut_setup * 1e6:.1f} us/interval, query {per_query * 1e6:.2f} "
        f"us/relation -> cut setup amortized after "
        f"{cut_setup / per_query:.0f} queries"
    )
    benchmark.extra_info["clock_setup_ms"] = clock_setup * 1e3
    benchmark.extra_info["cut_setup_us"] = cut_setup * 1e6
    benchmark.extra_info["query_us"] = per_query * 1e6
    benchmark(lambda: ev.evaluate(BASE_RELATIONS[0], x0, y0))


def test_cut_cache_hit_vs_cold(benchmark):
    """CutCache: serving a memoized quadruple vs paying the fold."""
    x, _y = PAIRS[0]

    cold_reps = 200
    t0 = time.perf_counter()
    for _ in range(cold_reps):
        cache = CutCache(EX)
        cache.quadruple(fresh_intervals(x))
    cold = (time.perf_counter() - t0) / cold_reps

    warm_cache = CutCache(EX)
    warm_cache.quadruple(x)
    hit_reps = 2000
    t0 = time.perf_counter()
    for _ in range(hit_reps):
        warm_cache.quadruple(fresh_intervals(x))
    hit = (time.perf_counter() - t0) / hit_reps

    print(
        f"\ncut cache: cold miss {cold * 1e6:.1f} us/quadruple, "
        f"hit {hit * 1e6:.2f} us/quadruple ({cold / hit:.0f}x)"
    )
    benchmark.extra_info["cold_miss_us"] = cold * 1e6
    benchmark.extra_info["hit_us"] = hit * 1e6
    benchmark.extra_info["hit_speedup"] = cold / hit
    benchmark(lambda: warm_cache.quadruple(x))


def test_batch_holds_vs_scalar_loop(benchmark):
    """Batch speedup: batch_holds vs the scalar loop, k = 32 intervals.

    All C(32, 2) ordered ``R1(U,L)`` queries over one execution; both
    paths run against warm cut caches, so the comparison isolates
    query-time cost (one gather-kernel pass vs ~1k engine calls).  The
    acceptance bar is a >= 5x win for the batch path.
    """
    intervals = disjoint_intervals(EX, 32)
    spec = parse_spec("R1(U,L)")
    queries = [
        (spec, x, y) for x in intervals for y in intervals if x is not y
    ]
    # the intervals partition the trace, so per-query disjointness
    # validation is redundant in both paths
    an = SynchronizationAnalyzer(AnalysisContext(EX), check_disjoint=False)

    an.batch_holds(queries)  # warm the cut cache for both paths

    # both paths run in turn within each round, so a burst of load from
    # other processes skews no ratio the floor gates on
    (batch_t, batched), (scalar_t, scalar) = best_of_each([
        lambda: an.batch_holds(queries),
        lambda: [an.holds(s, x, y) for s, x, y in queries],
    ])

    assert batched == scalar
    speedup = scalar_t / batch_t
    print(
        f"\nbatch_holds: {len(queries)} queries over "
        f"{len(intervals)} intervals -> scalar {scalar_t * 1e3:.1f} ms, "
        f"batched {batch_t * 1e3:.2f} ms ({speedup:.1f}x)"
    )
    benchmark.extra_info["num_queries"] = len(queries)
    benchmark.extra_info["scalar_ms"] = scalar_t * 1e3
    benchmark.extra_info["batch_ms"] = batch_t * 1e3
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= 5.0, (
        f"batch_holds only {speedup:.1f}x faster than the scalar loop"
    )
    benchmark(lambda: an.batch_holds(queries))


def test_columnar_cut_fill_vs_folds(benchmark):
    """Columnar batch cut fill vs per-interval folds, k = 256 intervals.

    Both paths run over warm clock tables and time only the cut
    construction (interval objects are built outside the timed region;
    :func:`repro.core.cuts.cuts_of` caches nothing, so every repetition
    pays the fold).  The acceptance bar is a >= 5x win for
    the one-pass columnar fill (:func:`repro.core.cuts.cut_stats`).
    """
    k = 256
    ex = Execution(random_trace(16, events_per_node=64, msg_prob=0.3, seed=9))
    base = disjoint_intervals(ex, k)
    ex.forward_table, ex.reverse_table  # warm the clocks for both paths

    reps = 5
    fold_sets = [[fresh_intervals(iv) for iv in base] for _ in range(reps)]
    fold_t = float("inf")
    for ivs in fold_sets:
        t0 = time.perf_counter()
        quads = [cuts_of(iv) for iv in ivs]
        fold_t = min(fold_t, time.perf_counter() - t0)
    batch_t, stats = best_of(lambda: cut_stats(ex, base), reps=reps)

    # cross-check a sample of rows against the fold path
    for i in range(0, k, 37):
        assert np.array_equal(stats.c1[i], quads[i].c1.vector)
        assert np.array_equal(stats.c4[i], quads[i].c4.vector)

    speedup = fold_t / batch_t
    print(
        f"\ncolumnar cut fill: {k} intervals -> per-interval folds "
        f"{fold_t * 1e3:.1f} ms, columnar {batch_t * 1e3:.2f} ms "
        f"({speedup:.1f}x)"
    )
    benchmark.extra_info["num_intervals"] = k
    benchmark.extra_info["fold_ms"] = fold_t * 1e3
    benchmark.extra_info["columnar_ms"] = batch_t * 1e3
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= 5.0, (
        f"columnar cut fill only {speedup:.1f}x faster than folds"
    )
    benchmark(lambda: cut_stats(ex, base))
