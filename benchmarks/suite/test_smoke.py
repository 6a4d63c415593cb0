"""Smoke test of the benchmark at ``--quick`` sizes.

Runs all four workloads untraced and traced and checks that every
metric ``BENCHMARK.json`` names is emitted with its unit and that no
operation failed; checks that ``compare`` leaves a failed run out of
its verdicts.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/suite/test_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

SEED = 3


def _run(out_dir: str, trace: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "suite", "run.py"),
         "--quick", "--seed", str(SEED), "--trace", trace, "--out", out_dir],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    return summary


def _records(out_dir: str, suffix: str) -> dict[str, dict]:
    out = {}
    for workload in SPEC["workloads"]:
        path = os.path.join(out_dir, f"{workload['name']}-seed{SEED}{suffix}.json")
        with open(path, encoding="utf-8") as fh:
            out[workload["name"]] = json.load(fh)
    return out


def test_quick_run_emits_every_end_to_end_metric(tmp_path):
    summary = _run(str(tmp_path), "0")
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert {name: set(m) for name, m in summary["metrics"].items()} == {
        w["name"]: e2e for w in SPEC["workloads"]
    }
    for name, rec in _records(str(tmp_path), "").items():
        assert rec["failed"] == 0 and rec["attempted"] > 0, name  # error rate 0
        assert set(rec["host"]) == {"nproc", "python", "numpy", "backend"}
        assert rec["seed"] == SEED
        for metric in SPEC["end_to_end"]:
            got = rec["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"], (name, metric["name"])
            assert got["value"] > 0, (name, metric["name"])


def test_quick_traced_run_emits_every_layer_metric(tmp_path):
    spans_path = tmp_path / "spans.json"
    _run(str(tmp_path), str(spans_path))
    for name, rec in _records(str(tmp_path), "-trace").items():
        assert rec["failed"] == 0, name
        assert "unattributed_s" in rec["breakdown"], name
        for metric in SPEC["per_layer"]:
            assert rec["metrics"][metric["name"]]["unit"] == metric["unit"], (
                name, metric["name"]
            )
    with open(spans_path, encoding="utf-8") as fh:
        spans = json.load(fh)
    assert spans and set(spans[0]) == {"name", "start_ns", "end_ns", "parent", "run"}
    assert {s["run"].split("/")[0] for s in spans} == {
        w["name"] for w in SPEC["workloads"]
    }


def test_compare_skips_a_failed_run(tmp_path, capsys):
    from benchmarks.suite import compare

    def write(side: str, seed: int, ok: bool) -> None:
        # every end-to-end metric plus one unbounded user metric
        names = [m["name"] for m in SPEC["end_to_end"]] + ["answer_s"]
        metrics = {n: {"value": 1.0 + seed, "unit": "s"} for n in names} if ok else {}
        rec = {"workload": "offline_bulk", "seed": seed, "correct": ok,
               "attempted": 1, "failed": 0 if ok else 1, "metrics": metrics}
        (tmp_path / side).mkdir(exist_ok=True)
        with open(tmp_path / side / f"offline_bulk-seed{seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(rec, fh)

    for seed in (1, 2):
        write("a", seed, ok=True)
        write("b", seed, ok=seed == 1)  # the crash record of harness.main
    code = compare.main([str(tmp_path / "a"), str(tmp_path / "b")])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAILED RUN: offline_bulk seed 2" in out
    assert out.count("unchanged") == len(SPEC["end_to_end"])
    assert out.count("ungated") == 1
