"""The offline program: trace text + interval id lists in, verdicts out.

Run as a fresh child process per rep (``python -m
benchmarks.suite.offline_prog``).  Standard input carries one JSON
header line (``pairs``: flat ``[node, index, ...]`` id lists per
interval pair, ``sample``: pair indices whose verdicts are returned for
checking, ``trace``: 0/1) followed by the trace JSON text.  Reading the
input is not timed; the clock starts when the trace text is handed to
:func:`repro.events.serialization.loads`.

Standard output is one JSON object: phase times (seconds from the
start), the sampled verdicts, result lengths, the counters of the
layers, peak RSS, and with ``trace`` 1 the spans.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
from time import perf_counter

import repro.core.evaluator as evaluator_mod
from repro.core.context import AnalysisContext, CutCache
from repro.core.evaluator import SynchronizationAnalyzer
from repro.core.relations import BASE_RELATIONS, FAMILY32
from repro.events.poset import Execution
from repro.events.serialization import loads
from repro.nonatomic.event import NonatomicEvent

from .tracing import Tracer


def _interval(ex: Execution, flat: list[int]) -> NonatomicEvent:
    return NonatomicEvent(ex, zip(flat[0::2], flat[1::2]))


def answer(text: str, pair_ids: list, tracer: Tracer) -> dict:
    """Trace text → every verdict; returns phase times and results."""
    t0 = perf_counter()
    with tracer.span("answer"):
        with tracer.span("events.serialization.loads"):
            trace = loads(text)
        with tracer.span("events.poset.forward"):
            ex = Execution(trace)
        ctx = AnalysisContext.of(ex)
        with tracer.span("backends.reverse"):
            ctx.backend.reverse_rows([next(ex.iter_ids())])
        t_setup = perf_counter()
        with tracer.span("nonatomic.intervals"):
            pairs = [(_interval(ex, x), _interval(ex, y)) for x, y in pair_ids]
        an = SynchronizationAnalyzer(ctx)
        with tracer.span("core.evaluator.assemble"):
            family = an.all_relations_batch(pairs)
        with tracer.span("core.evaluator.assemble"):
            base = an.base_relations_batch(pairs)
        with tracer.span("core.evaluator.assemble"):
            strongest = an.strongest_batch(pairs)
        t_end = perf_counter()
    vc = an.verdict_cache
    tracer.count("nonatomic.intervals_count", 2 * len(pairs))
    tracer.count("core.context.cut_cache_hits", ctx.cut_cache.hits)
    tracer.count("core.context.cut_cache_misses", ctx.cut_cache.misses)
    tracer.count("core.evaluator.ll_evals", vc.evals if vc else 0)
    tracer.count("core.evaluator.kernel_fills", vc.fills if vc else 0)
    return {
        "setup_s": t_setup - t0,
        "answer_s": t_end - t0,
        "results": (family, base, strongest),
    }


def main() -> int:
    header = json.loads(sys.stdin.readline())
    text = sys.stdin.read()
    tracer = Tracer(bool(header["trace"]), run=header.get("run", ""))
    tracer.count("events.serialization.loads_bytes", len(text.encode("utf-8")))

    def count_pairs(ops, xs, ys):
        tracer.count("core.family.verdict_matrix_pairs", len(xs))

    gc.collect()  # every rep starts timing from the same clean heap
    with tracer.wrap(CutCache, "family_operands", "core.context.cut_stats"), \
            tracer.wrap(evaluator_mod, "verdict_matrix",
                        "core.family.verdict_matrix", on_call=count_pairs):
        out = answer(text, header["pairs"], tracer)
    family, base, strongest = out.pop("results")
    sample = [
        [
            "".join("1" if family[i][s] else "0" for s in FAMILY32),
            "".join("1" if base[i][r] else "0" for r in BASE_RELATIONS),
            [str(s) for s in strongest[i]],
        ]
        for i in header["sample"]
    ]
    out.update({
        "lengths": [len(family), len(base), len(strongest)],
        "sample": sample,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "self_times": tracer.self_times(),
        "counts": tracer.counts,
        "spans": tracer.records(),
    })
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
