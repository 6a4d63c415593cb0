"""E-32 — §2.5: evaluating the whole 32-relation family (Problem 4 ii).

Measures the facade's ``all_relations`` under each engine, the
hierarchy-pruned variant, and the batched ``(pairs, 24)`` family kernel
over a shared workload.  The 1-1 equivalence ``r(X,Y) = R(X̂,Ŷ)``
means the 32 queries reuse the 8 proxy cuts of each side (Key Idea 1):
the linear engine's batch cost stays linear in the node sets, and the
batched kernel answers every queried pair's 24 ``≪``-subtests in one
NumPy pass.

The Theorem 19/20 subtest factoring behind it — a fixed 24 subtest
evaluations per ordered pair for the whole-family surface, against the
``≪``-test count of the per-spec scalar loop, verdict-identical across
all 40 specs — is checked by count in ``tests/test_family_cache.py``.

:func:`test_batched_kernel_wall_clock_and_evals` reports wall-clock
and ``≪``-eval counts *side by side* and fails on an inversion: a
strategy that wins on operation count but loses on wall-clock must
never pass silently.

Standalone perf gate (what CI's bench-smoke job runs)::

    PYTHONPATH=src python benchmarks/bench_family32_batch.py [--quick]

The full run (12 nodes, 16 pairs) enforces the acceptance floors:
cached >= 1.2x and batched >= 2.0x the per-spec loop.  ``--quick``
shrinks the workload and relaxes the floors (cached >= 1.0x, batched
>= 1.5x).  Each speedup is the median, over the timed rounds, of the
per-spec loop's time divided by the strategy's time in the same round,
so both sides of a ratio ran back to back; no figure recorded on
another host enters the gate.  The table prints best-of times.
"""

import argparse
import os
import sys

if __package__ in (None, ""):  # standalone: python benchmarks/bench_...
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, _ROOT)
    sys.path.insert(0, os.path.join(_ROOT, "src"))

import pytest

from repro.core.context import AnalysisContext
from repro.core.evaluator import SynchronizationAnalyzer
from repro.core.hierarchy import evaluate_all_pruned, maximal_true
from repro.core.linear import LinearEvaluator
from repro.core.relations import BASE_RELATIONS, FAMILY32

from benchmarks.common import family_pairs, round_ratio, timed_rounds
from benchmarks.conftest import make_pair


@pytest.mark.parametrize("engine", ["naive", "polynomial", "linear"])
def test_all_32_relations(benchmark, engine):
    ex, x, y = make_pair(12, events_per_node=8, seed=11)
    an = SynchronizationAnalyzer(ex, engine=engine)
    an.all_relations(x, y)  # warm caches
    result = benchmark(lambda: an.all_relations(x, y))
    assert len(result) == 32


def test_all_32_with_pruning(benchmark):
    ex, x, y = make_pair(12, events_per_node=8, seed=11)
    an = SynchronizationAnalyzer(ex)
    plain = an.all_relations(x, y)
    result = benchmark(lambda: an.all_relations(x, y, prune=True))
    assert result == plain


def test_strongest_relations(benchmark):
    ex, x, y = make_pair(12, events_per_node=8, seed=11)
    an = SynchronizationAnalyzer(ex)
    an.strongest(x, y)
    benchmark(lambda: an.strongest(x, y))


def test_strongest_batched_cold(benchmark):
    """Cold whole-surface batch: one kernel fill for all 8 pairs."""
    ex, pairs = family_pairs(12, 8, 8)

    def run():
        an = SynchronizationAnalyzer(AnalysisContext(ex))
        return an.strongest_batch(pairs)

    result = benchmark(run)
    assert len(result) == len(pairs)


# ----------------------------------------------------------------------
# side-by-side measurement (shared by the pytest gate and __main__)
# ----------------------------------------------------------------------
def measure_family_surface(
    nodes: int, events: int, pairs: int, reps: int
) -> dict:
    """Wall-clock *and* ``≪``-eval counts for the three strategies that
    answer the whole-family surface over the shared
    :func:`~benchmarks.common.family_pairs` workload."""
    ex, pair_list = family_pairs(nodes, events, pairs)

    def per_spec_loop():
        eng = LinearEvaluator(AnalysisContext(ex))  # private context: cold
        for x, y in pair_list:
            for spec in FAMILY32:
                eng.evaluate_spec(spec, x, y)
            for rel in BASE_RELATIONS:
                eng.evaluate(rel, x, y)
            results, _ = evaluate_all_pruned(
                lambda spec: eng.evaluate_spec(spec, x, y), FAMILY32
            )
            maximal_true(results)
        return eng

    def cached_family():
        an = SynchronizationAnalyzer(AnalysisContext(ex))
        for x, y in pair_list:
            an.all_relations(x, y)
            an.base_relations(x, y)
            an.strongest(x, y)
        return an

    def batched_family():
        an = SynchronizationAnalyzer(AnalysisContext(ex))
        an.all_relations_batch(pair_list)
        an.base_relations_batch(pair_list)
        an.strongest_batch(pair_list)
        return an

    # the three strategies run in turn within each round, and the gated
    # speedups are medians of per-round ratios: a burst of load or a
    # switch of host speed moves both sides of one round's ratio alike
    (loop_r, cached_r, batched_r), (eng, can, ban) = timed_rounds(
        [per_spec_loop, cached_family, batched_family], reps=reps
    )
    # verdicts surfaced per pair: 40 specs + the 32-entry family map
    # behind the strongest query
    verdicts = (len(FAMILY32) * 2 + len(BASE_RELATIONS)) * len(pair_list)
    return {
        "nodes": nodes,
        "pairs": len(pair_list),
        "verdicts": verdicts,
        "per_spec_s": min(loop_r),
        "cached_s": min(cached_r),
        "batched_s": min(batched_r),
        "cached_speedup": round_ratio(loop_r, cached_r),
        "batched_speedup": round_ratio(loop_r, batched_r),
        "ll_per_spec": eng.ll_tests,
        "ll_cached": can.verdict_cache.evals,
        "ll_batched": ban.verdict_cache.evals,
        "fills_batched": ban.verdict_cache.fills,
    }


def side_by_side_lines(m: dict) -> list[str]:
    """The wall-clock / op-count table — both axes, always together."""
    v = m["verdicts"]
    rows = [
        ("per-spec loop", m["per_spec_s"], m["ll_per_spec"], ""),
        ("cached", m["cached_s"], m["ll_cached"], ""),
        ("batched", m["batched_s"], m["ll_batched"],
         f"{m['fills_batched']} fill(s)"),
    ]
    lines = [
        f"family surface: {m['pairs']} pairs x 40 specs + strongest "
        f"({v} verdicts) on {m['nodes']} nodes",
        f"  {'strategy':<14} {'wall ms':>9} {'verdicts/s':>12} "
        f"{'ll evals':>9}",
    ]
    for name, t, ll, extra in rows:
        lines.append(
            f"  {name:<14} {t * 1e3:>9.2f} {v / t:>12,.0f} {ll:>9}"
            + (f"  {extra}" if extra else "")
        )
    return lines


def assert_no_inversion(m: dict) -> None:
    """An op-count win must come with a wall-clock win.  Fewer ``≪``
    evals than the per-spec loop while *slower* in wall-clock (a median
    per-round speedup below 1) is the failure mode this gate exists to
    catch — never let it pass."""
    for name in ("cached", "batched"):
        if m[f"ll_{name}"] < m["ll_per_spec"]:
            assert m[f"{name}_speedup"] >= 1.0, (
                f"{name}: {m[f'll_{name}']} ≪ evals vs per-spec loop's "
                f"{m['ll_per_spec']}, yet slower in wall-clock "
                f"(median round speedup {m[f'{name}_speedup']:.2f}x; best "
                f"{m[f'{name}_s'] * 1e3:.2f} ms vs "
                f"{m['per_spec_s'] * 1e3:.2f} ms) — op-count win with a "
                f"wall-clock loss must not pass silently"
            )


def test_batched_kernel_wall_clock_and_evals():
    """Both axes reported side by side, no silent inversion."""
    m = measure_family_surface(8, 6, 6, reps=2)
    print()
    for line in side_by_side_lines(m):
        print(line)
    assert_no_inversion(m)
    assert m["ll_batched"] < m["ll_per_spec"]
    assert m["batched_speedup"] >= 1.5


# ----------------------------------------------------------------------
# standalone perf gate
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Batched family-kernel perf gate"
    )
    ap.add_argument("--quick", action="store_true",
                    help="reduced workload + relaxed floors (CI smoke)")
    ap.add_argument("--reps", type=int, default=None,
                    help="timed rounds (default: 3 quick, 5 full)")
    args = ap.parse_args(argv)

    if args.quick:
        nodes, events, pairs = 8, 6, 6
        reps = args.reps or 3
        min_cached, min_batched_vs_loop = 1.0, 1.5
    else:
        nodes, events, pairs = 12, 8, 16
        reps = args.reps or 5
        min_cached, min_batched_vs_loop = 1.2, 2.0

    m = measure_family_surface(nodes, events, pairs, reps)
    for line in side_by_side_lines(m):
        print(line)
    assert_no_inversion(m)

    failures = []
    cached_speedup = m["cached_speedup"]
    batched_vs_loop = m["batched_speedup"]
    print(f"  cached  speedup vs per-spec loop: {cached_speedup:.2f}x "
          f"(floor {min_cached:.1f}x)")
    print(f"  batched speedup vs per-spec loop: {batched_vs_loop:.2f}x "
          f"(floor {min_batched_vs_loop:.1f}x)")
    if cached_speedup < min_cached:
        failures.append(
            f"cached path only {cached_speedup:.2f}x vs per-spec loop "
            f"(floor {min_cached:.1f}x)"
        )
    if batched_vs_loop < min_batched_vs_loop:
        failures.append(
            f"batched kernel only {batched_vs_loop:.2f}x vs per-spec "
            f"loop (floor {min_batched_vs_loop:.1f}x)"
        )

    if failures:
        print("FAIL:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
