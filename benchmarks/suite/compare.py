"""Compare two directories of results: ``python -m benchmarks.suite.compare A/ B/``.

``A`` holds the parent commit's runs, ``B`` the change's, each written
by ``--out``.  Runs of the same workload and seed form a pair; a pair
with a failed run on either side is listed and left out.  For every
workload and every ``BENCHMARK.json`` metric the untraced records carry
(the end-to-end ones and the user metrics listed as per-layer), the
report gives each side's median and quartiles, the share of pairs the
change won, and a verdict:

* **improved** — at least ten pairs, the change wins at least nine
  tenths of them (ties count for neither side), and the medians differ
  by more than the parent's interquartile range;

for an end-to-end metric, under its bound:

* **regressed** — the change's median is worse than the parent's by
  more than the metric's bound;
* **unresolved** — the parent's own spread (IQR / median) is wider than
  the bound, unless every run of the change reads better than every run
  of the parent;
* **unchanged** — otherwise;

and for a metric without a bound:

* **worse** — the mirror of *improved*: the parent wins at least nine
  tenths of the pairs by more than its interquartile range;
* **ungated** — otherwise.

Exits 1 when any end-to-end metric regressed or any run failed its
checks.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Pairs needed before a gain may be claimed.
MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


def load_runs(directory: str) -> dict[tuple[str, int], dict]:
    """Untraced result records of ``directory`` keyed by (workload, seed)."""
    runs = {}
    for path in glob.glob(os.path.join(directory, "*-seed*.json")):
        if path.endswith(("-trace.json", "-spans.json")):
            continue
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        runs[(rec["workload"], rec["seed"])] = rec
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(
    a: list[float], b: list[float], better: str, bound: float | None
) -> tuple[str, float]:
    """Verdict for one metric over paired runs; returns (verdict, win share)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for x, y in zip(a, b, strict=True) if sign * (y - x) > 0)
    losses = sum(1 for x, y in zip(a, b, strict=True) if sign * (y - x) < 0)
    share = wins / len(a)
    qa1, med_a, qa3 = quartiles(a)
    med_b = statistics.median(b)
    gain = sign * (med_b - med_a)
    decisive = len(a) >= MIN_PAIRS_FOR_GAIN and abs(gain) > qa3 - qa1
    if decisive and gain > 0 and share >= WIN_SHARE_FOR_GAIN:
        return "improved", share
    if bound is None:
        worse = decisive and gain < 0 and losses / len(a) >= WIN_SHARE_FOR_GAIN
        return ("worse" if worse else "ungated"), share
    if -gain > bound * abs(med_a):
        return "regressed", share
    every_better = all(sign * (y - x) > 0 for y in b for x in a)
    if (qa3 - qa1) > bound * abs(med_a) and not every_better:
        return "unresolved", share
    return "unchanged", share


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="python -m benchmarks.suite.compare")
    p.add_argument("parent", help="result directory of the parent commit")
    p.add_argument("change", help="result directory of the change")
    p.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = p.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"] + [dict(m, bound=None) for m in spec["per_layer"]]
    a_runs, b_runs = load_runs(args.parent), load_runs(args.change)
    keys = sorted(set(a_runs) & set(b_runs))
    if not keys:
        print("error: no (workload, seed) run present in both directories",
              file=sys.stderr)
        return 2
    bad = [k for k in keys if not (a_runs[k]["correct"] and b_runs[k]["correct"])]
    for workload, seed in bad:
        print(f"FAILED RUN: {workload} seed {seed}")
    regressed = False
    print(f"{'workload':14s} {'metric':20s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'won':>7s}  verdict")
    for workload in sorted({w for w, _s in keys}):
        seeds = [s for w, s in keys if w == workload and (w, s) not in bad]
        if not seeds:
            continue
        recs = [runs[(workload, s)]["metrics"] for runs in (a_runs, b_runs) for s in seeds]
        for m in metrics:
            if not all(m["name"] in rec for rec in recs):
                continue
            a = [a_runs[(workload, s)]["metrics"][m["name"]]["value"] for s in seeds]
            b = [b_runs[(workload, s)]["metrics"][m["name"]]["value"] for s in seeds]
            verdict, share = judge(a, b, m["better"], m["bound"])
            regressed |= verdict == "regressed"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:14s} {m['name']:20s} "
                  f"{qa[1]:12.5g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
                  f"{qb[1]:12.5g} [{qb[0]:9.4g}, {qb[2]:9.4g}] "
                  f"{share:6.0%}  {verdict}")
    return 1 if regressed or bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
