"""Command line, metric assembly and result files of the benchmark suite.

One invocation runs one workload (``--workload NAME``) or all four, for
one ``--seed``, measuring each for ``--seconds``.  Every metric is
printed by name with its unit, each workload's result is written to
``--out`` as JSON with the host metadata and the seed, and the last
line of standard output is one JSON object::

    {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics on that line are the end-to-end ones
(the result files also keep the other user metrics); with ``--trace 1``
(or ``--trace PATH``, which also names the spans file) a traced run
reports the per-layer ones.  Any failed operation makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import tempfile
import traceback

import numpy as np

from repro.backends.base import default_backend_name

from . import live, offline
from .inputs import SIZES, LiveSize
from .offline import VERDICTS_PER_PAIR

WORKLOADS = tuple(SIZES)

#: What a user of the system sees, measured with tracing off on every
#: run; each has a definition on every workload (README).
USER_UNITS = {
    "setup_s": "s",
    "answer_s": "s",
    "verdicts_per_s": "1/s",
    "ingest_events_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

#: The end-to-end metrics: the user metrics whose two run sets repeated
#: within their bound.  An untraced run's result line carries exactly
#: these.  The others are per-layer metrics (no bound): traced runs
#: report them, and untraced result files keep them for ``compare``.
E2E = ("setup_s", "peak_rss_mb")

#: Offline per-layer spans (self time) reported as ``<span>_s``.
OFFLINE_SPANS = (
    "events.serialization.loads",
    "events.poset.forward",
    "backends.reverse",
    "nonatomic.intervals",
    "core.context.cut_stats",
    "core.family.verdict_matrix",
    "core.evaluator.assemble",
)
OFFLINE_COUNTS = {
    "events.serialization.loads_bytes": "bytes",
    "nonatomic.intervals_count": "count",
    "core.context.cut_cache_hits": "count",
    "core.context.cut_cache_misses": "count",
    "core.family.verdict_matrix_pairs": "count",
    "core.evaluator.ll_evals": "count",
    "core.evaluator.kernel_fills": "count",
}
LIVE_LAYERS = {
    "service.protocol.encode_s": "s",
    "service.protocol.decode_s": "s",
    "service.protocol.bytes": "bytes",
    "service.core.submit_s": "s",
    "service.core.parked_peak": "count",
    "monitor.online.ingest_s": "s",
    "monitor.online.close_s": "s",
    "monitor.online.watches_scanned": "count",
    "service.log.append_s": "s",
    "service.log.sync_s": "s",
    "service.log.syncs": "count",
    "service.core.watch_latency_avg_ms": "ms",
    "service.server.transport_s": "s",
    "harness.generator_late_ms": "ms",
}

#: Per-layer metrics (every workload reports every one; 0 where the
#: layer is not on the workload's path).
LAYER_UNITS = {
    **{k: u for k, u in USER_UNITS.items() if k not in E2E},
    **{f"{name}_s": "s" for name in OFFLINE_SPANS},
    **OFFLINE_COUNTS,
    **LIVE_LAYERS,
    "unattributed_s": "s",
    "tracing_overhead_s": "s",
}

#: The traced layers must add up to the untraced end-to-end time
#: within this share (reported per workload; a miss is printed, not
#: counted as a failed operation).
BREAKDOWN_TOLERANCE = 0.10


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def host_meta() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": default_backend_name(),
    }


# ----------------------------------------------------------------------
# metric assembly
# ----------------------------------------------------------------------
def _offline_user(run: offline.OfflineRun, events: int) -> tuple[dict, dict]:
    reps = [r for r in run.reps if not r.traced]
    pairs = len(run.inputs.pairs)
    answer_s = statistics.median(r.answer_s for r in reps)
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in reps),
        "answer_s": answer_s,
        "verdicts_per_s": statistics.median(
            pairs * VERDICTS_PER_PAIR / (r.answer_s - r.setup_s) for r in reps
        ),
        "ingest_events_per_s": statistics.median(events / r.setup_s for r in reps),
        # the offline program hands every verdict back at once
        "verdict_p50_ms": answer_s * 1e3,
        "verdict_p99_ms": answer_s * 1e3,
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
    }
    detail = {
        "reps": len(reps),
        "per_rep": [
            {"setup_s": r.setup_s, "answer_s": r.answer_s, "rss_mb": r.rss_mb}
            for r in reps
        ],
    }
    return metrics, detail


def _offline_layers(run: offline.OfflineRun) -> tuple[dict, float]:
    traced = [r for r in run.reps if r.traced]
    plain = statistics.median(r.answer_s for r in run.reps if not r.traced)
    metrics = dict.fromkeys(LAYER_UNITS, 0.0)
    for name in OFFLINE_SPANS:
        metrics[f"{name}_s"] = statistics.median(r.self_times.get(name, 0.0) for r in traced)
    for name in OFFLINE_COUNTS:
        metrics[name] = statistics.median(r.counts.get(name, 0.0) for r in traced)
    layer_sum = sum(metrics[f"{name}_s"] for name in OFFLINE_SPANS)
    metrics["unattributed_s"] = plain - layer_sum
    metrics["tracing_overhead_s"] = (
        statistics.median(r.answer_s for r in traced) - plain
    )
    return metrics, plain


def _live_user(run: live.LiveRun) -> tuple[dict, dict]:
    reps = run.reps
    pooled = [v for r in reps for v in r.latencies_ms]
    metrics = {
        "setup_s": statistics.median(run.setups),
        "answer_s": statistics.median(r.answer_s for r in reps),
        "verdicts_per_s": statistics.median(
            len(r.latencies_ms) / r.answer_s for r in reps
        ),
        "ingest_events_per_s": statistics.median(
            r.stats["events_applied"] / r.answer_s for r in reps
        ),
        "verdict_p50_ms": percentile(pooled, 50),
        "verdict_p99_ms": percentile(pooled, 99),
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
    }
    detail = {
        "reps": len(reps), "setups_s": run.setups,
        "latency_samples": len(pooled),
        "per_rep": [
            {"answer_s": r.answer_s, "rss_mb": r.rss_mb,
             "latency_samples": len(r.latencies_ms), "throttles": r.throttles,
             "late_p99_ms": percentile(r.late_ms, 99) if r.late_ms else 0.0,
             "server_watch_latency_avg_ms": r.stats["watch_latency"]["avg_ms"]}
            for r in reps
        ],
    }
    return metrics, detail


def _live_layers(run: live.LiveRun) -> tuple[dict, float]:
    metrics = dict.fromkeys(LAYER_UNITS, 0.0)
    for name in run.layers[0]:
        metrics[name] = statistics.median(layer[name] for layer in run.layers)
    late = [v for r in run.reps for v in r.late_ms]
    metrics["harness.generator_late_ms"] = percentile(late, 99) if late else 0.0
    return metrics, statistics.median(r.answer_s for r in run.reps)


def _settle_heap() -> None:
    """Keep the generated inputs out of the load generator's garbage
    collections, so a collection pause cannot stall a scheduled send or
    delay a verdict timestamp."""
    gc.collect()
    gc.freeze()


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, quick: bool,
    root: str, workdir: str,
) -> dict:
    """Measure one workload; returns its result record."""
    size = SIZES[name][1 if quick else 0]
    if isinstance(size, LiveSize):
        run = live.prepare(size, seed)
        _settle_heap()
        live.run_reps(run, root, workdir, seed, seconds, traced)
        reps = run.reps
        spans = run.spans
        user, detail = _live_user(run)
        if traced:
            layers, e2e = _live_layers(run)
    else:
        run = offline.prepare(size, seed)
        _settle_heap()
        offline.run_reps(run, root, seed, seconds, size.min_reps, traced)
        reps = run.reps
        spans = [s for r in reps for s in r.spans]
        user, detail = _offline_user(run, run.inputs.trace.total_events)
        if traced:
            layers, e2e = _offline_layers(run)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "quick": quick,
        "traced": traced, "host": host_meta(), "size": vars(size),
    }
    if traced:
        units = LAYER_UNITS
        metrics = {**layers, **{k: user[k] for k in USER_UNITS if k not in E2E}}
        ok = abs(metrics["unattributed_s"]) <= BREAKDOWN_TOLERANCE * e2e
        record["breakdown"] = {
            "e2e_s": e2e, "unattributed_s": metrics["unattributed_s"],
            "tolerance": BREAKDOWN_TOLERANCE, "ok": ok,
        }
        record["spans"] = spans
    else:
        units = USER_UNITS
        metrics = user
        record["detail"] = detail
    record.update({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    })
    return record


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        prog="python -m benchmarks.suite",
        description="Seeded offline and live workloads with end-to-end "
                    "and per-layer metrics.",
    )
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload (default 20, --quick 1)")
    p.add_argument("--trace", default="0", metavar="0|1|PATH",
                   help="1 or a spans file path: traced run reporting the "
                        "per-layer metrics")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="result directory (default .benchmarks/suite/results)")
    p.add_argument("--quick", action="store_true",
                   help="smoke-test sizes")
    return p.parse_args(argv)


def _print_record(rec: dict) -> None:
    mode = "traced" if rec["traced"] else "untraced"
    print(f"== {rec['workload']} seed={rec['seed']} ({mode}) "
          f"host={json.dumps(rec['host'])}")
    for name, m in rec["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    if "breakdown" in rec:
        b = rec["breakdown"]
        print(f"  breakdown: unattributed {b['unattributed_s']:.4f}s of "
              f"{b['e2e_s']:.4f}s -> {'ok' if b['ok'] else 'OVER TOLERANCE'}")
    print(f"  correct={rec['correct']} attempted={rec['attempted']} "
          f"failed={rec['failed']}", flush=True)


def _line_metrics(rec: dict) -> dict:
    """The metrics a record puts on the result line."""
    return {k: m for k, m in rec["metrics"].items() if rec["traced"] or k in E2E}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    traced = args.trace != "0"
    seconds = args.seconds if args.seconds is not None else (1.0 if args.quick else 20.0)
    out_dir = args.out or os.path.join(root, ".benchmarks", "suite", "results")
    os.makedirs(out_dir, exist_ok=True)
    work_root = os.path.join(root, ".benchmarks", "suite")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    spans: list[dict] = []
    try:
        for name in names:
            try:
                rec = run_workload(name, args.seed, seconds, traced, args.quick,
                                   root, workdir)
            except Exception:  # a broken run must still end in a result line
                traceback.print_exc()
                rec = {"workload": name, "seed": args.seed, "traced": traced,
                       "correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            records.append(rec)
            if rec["metrics"]:
                _print_record(rec)
            for span in rec.pop("spans", []):
                span["run"] = f"{name}/{span['run']}"
                spans.append(span)
            suffix = "-trace" if traced else ""
            with open(os.path.join(out_dir, f"{name}-seed{args.seed}{suffix}.json"),
                      "w", encoding="utf-8") as fh:
                json.dump(rec, fh, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if traced:
        spans_path = (args.trace if args.trace != "1" else
                      os.path.join(out_dir, f"{args.workload}-seed{args.seed}-spans.json"))
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    failed = sum(r["failed"] for r in records)
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": (_line_metrics(records[0]) if len(records) == 1 else
                    {r["workload"]: _line_metrics(r) for r in records}),
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1
