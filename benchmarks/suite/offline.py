"""Offline workloads: one fresh child process per rep, checked in the parent.

The parent owns the generated inputs and a reference execution built
from the in-memory trace; each rep hands the child
(:mod:`benchmarks.suite.offline_prog`) only the trace JSON text and the
interval id lists, then re-derives a seeded sample of 256 pairs'
verdicts with the scalar :class:`~repro.core.linear.LinearEvaluator`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

from repro.core.context import AnalysisContext
from repro.core.hierarchy import maximal_true
from repro.core.linear import LinearEvaluator
from repro.core.relations import BASE_RELATIONS, FAMILY32
from repro.events.poset import Execution
from repro.nonatomic.event import NonatomicEvent

from .inputs import OfflineInputs, OfflineSize, offline_inputs, sample_pairs

#: Verdicts surfaced per pair: 32 family + 8 base + the 32-entry family
#: map behind the strongest query (the legacy ``family_query`` count).
VERDICTS_PER_PAIR = len(FAMILY32) + len(BASE_RELATIONS) + len(FAMILY32)

#: Batch calls per rep (family, base, strongest), one result per pair each.
BATCH_CALLS = 3

CHILD_TIMEOUT_S = 150


@dataclass
class OfflineRep:
    traced: bool
    setup_s: float
    answer_s: float
    rss_mb: float
    self_times: dict[str, float]
    counts: dict[str, float]
    spans: list
    failed: int
    attempted: int


@dataclass
class OfflineRun:
    inputs: OfflineInputs
    reference: Execution
    reps: list[OfflineRep] = field(default_factory=list)


def prepare(size: OfflineSize, seed: int) -> OfflineRun:
    inputs = offline_inputs(size, seed)
    return OfflineRun(inputs, Execution(inputs.trace))


def _child(root: str, header: dict, text: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]))
    payload = json.dumps(header) + "\n" + text
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite.offline_prog"],
        input=payload, capture_output=True, text=True, cwd=root, env=env,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"offline program failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _check(run: OfflineRun, sample: list[int], got: list) -> int:
    """Mismatching pair-queries among the sampled pairs (scalar engine)."""
    ex = run.reference
    engine = LinearEvaluator(AnalysisContext(ex))
    failed = 0
    for idx, (fam_bits, base_bits, strongest) in zip(sample, got, strict=True):
        xf, yf = run.inputs.pairs[idx]
        x = NonatomicEvent(ex, zip(xf[0::2], xf[1::2]))
        y = NonatomicEvent(ex, zip(yf[0::2], yf[1::2]))
        fam = {s: engine.evaluate_spec(s, x, y) for s in FAMILY32}
        want_fam = "".join("1" if fam[s] else "0" for s in FAMILY32)
        want_base = "".join(
            "1" if engine.evaluate(r, x, y) else "0" for r in BASE_RELATIONS
        )
        want_strongest = sorted(str(s) for s in maximal_true(fam))
        failed += (fam_bits != want_fam) + (base_bits != want_base)
        failed += sorted(strongest) != want_strongest
    return failed


def run_rep(run: OfflineRun, root: str, seed: int, rep: int, traced: bool) -> OfflineRep:
    pairs = run.inputs.pairs
    sample = sample_pairs(len(pairs), seed, rep)
    header = {
        "pairs": pairs, "sample": sample, "trace": int(traced),
        "run": f"seed{seed}-rep{rep}{'-traced' if traced else ''}",
    }
    out = _child(root, header, run.inputs.text)
    attempted = BATCH_CALLS * len(pairs)
    missing = sum(len(pairs) - n for n in out["lengths"])
    failed = missing + _check(run, sample, out["sample"])
    return OfflineRep(
        traced=traced,
        setup_s=out["setup_s"],
        answer_s=out["answer_s"],
        rss_mb=out["rss_kb"] / 1024.0,
        self_times=out["self_times"],
        counts=out["counts"],
        spans=out["spans"],
        failed=failed,
        attempted=attempted,
    )


def run_reps(
    run: OfflineRun, root: str, seed: int, seconds: float, min_reps: int,
    traced: bool,
) -> None:
    """Reps until ``seconds`` of measuring have passed (at least
    ``min_reps``); traced runs alternate untraced and traced reps."""
    start = perf_counter()
    rep = 0
    while True:
        t = perf_counter()
        run.reps.append(run_rep(run, root, seed, rep, traced=False))
        if traced:
            run.reps.append(run_rep(run, root, seed, rep, traced=True))
        rep += 1
        took = perf_counter() - t
        if rep >= min_reps and perf_counter() - start + took > seconds:
            return
