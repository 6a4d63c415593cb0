"""The repro linter: rule detections, suppressions, baseline, CLI."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint import (
    PROJECT_RULES,
    RULES,
    Baseline,
    build_project,
    parse_file,
    partition,
    run_file,
    run_paths,
)
from repro.lint.engine import iter_python_files
from repro.lint.project import module_name_for

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC = Path(__file__).parent.parent / "src" / "repro"

FILE_RULES = ("REP001", "REP002", "REP004", "REP005", "REP006")
PROJECT_CODES = ("REP007", "REP008", "REP009")
ALL_RULES = FILE_RULES + PROJECT_CODES


def codes_in(path: Path) -> list:
    return [f.rule for f in run_file(path)]


def project_codes_in(*paths: Path) -> list:
    return [f.rule for f in run_paths(list(paths), project=True)]


# ---------------------------------------------------------------------------
# per-rule fixtures: every rule has at least one true positive and one
# clean (true negative) fixture.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("code", ALL_RULES)
def test_rule_registered(code):
    registry = RULES if code in FILE_RULES else PROJECT_RULES
    assert code in registry
    assert registry[code].severity in ("warning", "error")
    assert registry[code].description


@pytest.mark.parametrize("code", FILE_RULES)
def test_true_positive_fixture(code):
    path = FIXTURES / f"{code.lower()}_tp.py"
    assert code in codes_in(path), f"{path.name} should trigger {code}"


@pytest.mark.parametrize("code", FILE_RULES)
def test_true_negative_fixture(code):
    path = FIXTURES / f"{code.lower()}_tn.py"
    assert code not in codes_in(path), f"{path.name} should not trigger {code}"


@pytest.mark.parametrize("code", ("REP007", "REP008"))
def test_project_true_positive_fixture(code):
    path = FIXTURES / f"{code.lower()}_tp.py"
    assert code in project_codes_in(path), f"{path.name} should trigger {code}"


@pytest.mark.parametrize("code", ("REP007", "REP008"))
def test_project_true_negative_fixture(code):
    path = FIXTURES / f"{code.lower()}_tn.py"
    assert code not in project_codes_in(path), (
        f"{path.name} should not trigger {code}"
    )


def test_rep001_counts_each_offending_method():
    findings = [f for f in run_file(FIXTURES / "rep001_tp.py") if f.rule == "REP001"]
    methods = {f.message.split("'")[1] for f in findings}
    assert methods == {
        "BadStateMutator.append",
        "BadStateMutator.rebind",
        "BadStateMutator.refill",
    }


@pytest.mark.parametrize(
    "fixture, message",
    [
        ("rep001_guard_tp.py",
         "class 'MisspelledGuard' declares guard 'invalidte', which is not a method"),
        ("rep001_slots_tp.py",
         "class 'MisspelledCache' declares attribute '_memos', which is not in __slots__"),
    ],
)
def test_rep001_flags_declaration_typos(fixture, message):
    findings = [f for f in run_file(FIXTURES / fixture) if f.rule == "REP001"]
    assert message in [f.message for f in findings]


def test_rep004_distinguishes_all_three_habits():
    messages = [
        f.message for f in run_file(FIXTURES / "rep004_tp.py") if f.rule == "REP004"
    ]
    assert any("lacks __slots__" in m for m in messages)
    assert any("mutable default" in m for m in messages)
    assert any("per-event Python loop" in m for m in messages)
    assert any("comprehension" in m for m in messages)


def test_rep005_flags_late_version_check():
    findings = [f for f in run_file(FIXTURES / "rep005_tp.py") if f.rule == "REP005"]
    assert len(findings) == 2  # holds() and late_check()


def test_dual_tagged_kernel_module_shape():
    """The ``repro.core.family`` module shape — one ``hot, dtype-strict``
    pragma line gating both rules over operand tables, stacked-matrix
    kernels and a cache class — triggers REP002 *and* REP004 on the
    true positive and neither on the clean twin."""
    tp = codes_in(FIXTURES / "family_kernel_tp.py")
    assert "REP002" in tp and "REP004" in tp
    assert tp.count("REP002") >= 2  # kernel matrix + index vector
    assert tp.count("REP004") >= 4  # slotless, mutable default, 2 loops
    tn = codes_in(FIXTURES / "family_kernel_tn.py")
    assert tn == [], f"clean kernel fixture should not fire: {tn}"


# ---------------------------------------------------------------------------
# project phase: rule behaviour on the fixtures
# ---------------------------------------------------------------------------

def test_rep007_reports_the_witness_chain():
    findings = [
        f
        for f in run_paths([FIXTURES / "rep007_tp.py"], project=True)
        if f.rule == "REP007"
    ]
    transitive = [f for f in findings if "transitive" in f.message]
    assert transitive, "the chained coroutine should be flagged"
    # the message names every hop down to the primitive
    assert "persist -> flush -> os.fsync" in transitive[0].message
    direct = [f for f in findings if "time.sleep" in f.message]
    assert direct, "the direct seed call should be flagged"
    attr = [f for f in findings if "Log.sync" in f.message]
    assert attr, "the attribute-typed chain should be flagged"


def test_rep008_distinguishes_all_three_losses():
    messages = [
        f.message
        for f in run_paths([FIXTURES / "rep008_tp.py"], project=True)
        if f.rule == "REP008"
    ]
    assert any("discarded" in m for m in messages)
    assert any("'t' is stored but never" in m for m in messages)
    assert any("._bg is never" in m for m in messages)


def test_rep009_cross_file_mismatch_both_directions():
    findings = [
        f
        for f in run_paths(
            [FIXTURES / "rep009x_sender.py", FIXTURES / "rep009x_handler.py"],
            project=True,
        )
        if f.rule == "REP009"
    ]
    by_path = {Path(f.path).name: f.message for f in findings}
    assert "'snapshot'" in by_path["rep009x_sender.py"]  # sent, unhandled
    assert "'bye'" in by_path["rep009x_handler.py"]  # handled, unsent


def test_rep009_balanced_pair_is_clean():
    assert (
        project_codes_in(
            FIXTURES / "rep009_tn_sender.py", FIXTURES / "rep009_tn_handler.py"
        )
        == []
    )


def test_rep009_silent_on_a_lone_module():
    # protocol symmetry needs both sides; one file must not make noise
    assert "REP009" not in project_codes_in(FIXTURES / "rep009x_sender.py")


# ---------------------------------------------------------------------------
# project phase: symbol index and call-graph machinery
# ---------------------------------------------------------------------------

def _build(tmp_path: Path, files: dict[str, str]):
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
    contexts = []
    for p in iter_python_files([tmp_path]):
        ctx, err = parse_file(p, root=tmp_path)
        assert err is None, err
        contexts.append(ctx)
    return build_project(contexts)


def _callees(project, qualname: str) -> set:
    return {c for site in project.functions[qualname].calls for c in site.callees}


def test_module_name_derivation():
    assert module_name_for("src/repro/service/log.py") == "repro.service.log"
    assert module_name_for("src/app/__init__.py") == "app"
    assert module_name_for("loose_fixture.py") == "loose_fixture"


def test_call_graph_resolves_imports_and_aliases(tmp_path):
    project = _build(tmp_path, {
        "src/app/io_mod.py": (
            "import os\n\n\ndef flush(fd):\n    os.fsync(fd)\n"
        ),
        "src/app/work.py": (
            "from . import io_mod\n"
            "from .io_mod import flush as fsync_alias\n\n\n"
            "def direct(fd):\n    io_mod.flush(fd)\n\n\n"
            "def aliased(fd):\n    fsync_alias(fd)\n"
        ),
    })
    assert _callees(project, "app.io_mod.flush") == {"os.fsync"}
    assert _callees(project, "app.work.direct") == {"app.io_mod.flush"}
    assert _callees(project, "app.work.aliased") == {"app.io_mod.flush"}


def test_call_graph_resolves_attribute_types(tmp_path):
    project = _build(tmp_path, {
        "src/app/parts.py": (
            "class Engine:\n"
            "    def rev(self):\n"
            "        return 1\n"
        ),
        "src/app/car.py": (
            "from .parts import Engine\n\n\n"
            "class Car:\n"
            "    def __init__(self):\n"
            "        self.engine = Engine()\n\n"
            "    def drive(self):\n"
            "        return self.engine.rev()\n"
        ),
    })
    assert _callees(project, "app.car.Car.drive") == {"app.parts.Engine.rev"}
    car = project.classes["app.car.Car"]
    assert car.attr_types["engine"] == frozenset({"app.parts.Engine"})


def test_call_graph_chases_package_reexports(tmp_path):
    project = _build(tmp_path, {
        "src/app/__init__.py": "from .impl import Thing\n",
        "src/app/impl.py": (
            "class Thing:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
        ),
        "src/use.py": (
            "from app import Thing\n\n\n"
            "def make():\n    return Thing()\n"
        ),
    })
    assert _callees(project, "use.make") == {"app.impl.Thing.__init__"}


def test_async_flag_recorded_per_def(tmp_path):
    project = _build(tmp_path, {
        "src/m.py": (
            "async def a():\n    pass\n\n\ndef s():\n    pass\n"
        ),
    })
    assert project.functions["m.a"].is_async
    assert not project.functions["m.s"].is_async


def test_project_finding_honours_inline_suppression(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import time\n\n\n"
        "async def pause():\n"
        "    time.sleep(1)  # repro-lint: disable=REP007 -- fixture\n"
    )
    assert project_codes_in(path) == []
    # without the suppression the same file fires
    path.write_text(
        "import time\n\n\nasync def pause():\n    time.sleep(1)\n"
    )
    assert project_codes_in(path) == ["REP007"]


def test_rep007_flags_positional_file_reads(tmp_path):
    """A log read back with ``os.open``/``os.pread`` from a sync helper
    is as blocking as ``open``: a coroutine reaching it is flagged,
    while one handing it to ``asyncio.to_thread`` is not."""
    path = tmp_path / "reader.py"
    path.write_text(
        "import asyncio\nimport os\n\n\n"
        "def read_span(path, lo, hi):\n"
        "    fd = os.open(path, os.O_RDONLY)\n"
        "    try:\n"
        "        return os.pread(fd, hi - lo, lo)\n"
        "    finally:\n"
        "        os.close(fd)\n\n\n"
        "async def on_loop(path):\n"
        "    return read_span(path, 0, 10)\n\n\n"
        "async def off_loop(path):\n"
        "    return await asyncio.to_thread(read_span, path, 0, 10)\n"
    )
    findings = [
        f for f in run_paths([path], project=True) if f.rule == "REP007"
    ]
    assert len(findings) == 1
    assert "on_loop" in findings[0].message


def test_rep007_catches_reverted_fsync_offload(tmp_path):
    """The acceptance gate: re-adding the inline fsync to
    ``EventLog.append`` must make REP007 fire on the coroutines of
    ``server.py`` again — proving the executor-offload fix is what
    keeps the tree clean, not a blind spot."""
    dst = tmp_path / "src" / "repro" / "service"
    shutil.copytree(SRC / "service", dst)
    log = dst / "log.py"
    text = log.read_text()
    marker = "        self._unsynced += 1\n        return record[\"seq\"]"
    assert marker in text, "EventLog.append changed shape; update this test"
    log.write_text(text.replace(
        marker,
        "        self._unsynced += 1\n"
        "        if self.fsync_every and self._unsynced >= self.fsync_every:\n"
        "            self.sync()\n"
        "        return record[\"seq\"]",
    ))
    rep007 = [
        f
        for f in run_paths([tmp_path / "src"], root=tmp_path, project=True)
        if f.rule == "REP007"
    ]
    assert any(
        f.path.endswith("server.py") and "_session_loop" in f.message
        for f in rep007
    ), f"expected the ingest coroutine to be flagged, got: {rep007}"
    assert any("EventLog.append -> EventLog.sync" in f.message for f in rep007)


# ---------------------------------------------------------------------------
# pragmas and suppressions
# ---------------------------------------------------------------------------

def test_gated_rules_require_module_pragma(tmp_path):
    # Same content as a dtype violation, but without the pragma: silent.
    src = "import numpy as np\narr = np.zeros(5)\n"
    path = tmp_path / "untagged.py"
    path.write_text(src)
    assert codes_in(path) == []
    path.write_text("# repro: dtype-strict\n" + src)
    assert "REP002" in codes_in(path)


def test_trailing_suppression_silences_own_line(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "# repro: dtype-strict\n"
        "import numpy as np\n"
        "arr = np.zeros(5)  # repro-lint: disable=REP002 -- fixture\n"
    )
    assert codes_in(path) == []


def test_standalone_suppression_silences_next_line(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "# repro: dtype-strict\n"
        "import numpy as np\n"
        "# repro-lint: disable=REP002 -- fixture\n"
        "arr = np.zeros(5)\n"
        "other = np.zeros(5)\n"
    )
    findings = run_file(path)
    assert [f.rule for f in findings] == ["REP002"]
    assert findings[0].line == 5  # only the unsuppressed line reports


def test_suppression_is_rule_specific(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "# repro: dtype-strict\n"
        "import numpy as np\n"
        "arr = np.zeros(5)  # repro-lint: disable=REP004 -- wrong rule\n"
    )
    assert codes_in(path) == ["REP002"]


def test_syntax_error_becomes_parse_finding(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n")
    findings = run_file(path)
    assert [f.rule for f in findings] == ["PARSE"]


# ---------------------------------------------------------------------------
# baseline round trip
# ---------------------------------------------------------------------------

def test_baseline_round_trip(tmp_path):
    findings = run_file(FIXTURES / "rep001_tp.py")
    assert findings
    baseline_path = tmp_path / "baseline.json"
    Baseline.from_findings(findings).save(baseline_path)
    loaded = Baseline.load(baseline_path)
    new, grandfathered, stale = partition(findings, loaded)
    assert new == []
    assert len(grandfathered) == len(findings)
    assert stale == []


def test_baseline_budget_catches_regressions(tmp_path):
    findings = run_file(FIXTURES / "rep001_tp.py")
    baseline_path = tmp_path / "baseline.json"
    Baseline.from_findings(findings).save(baseline_path)
    loaded = Baseline.load(baseline_path)
    # A second instance of an already-baselined finding is still new.
    doubled = findings + [findings[0]]
    new, _, _ = partition(doubled, loaded)
    assert new == [findings[0]]


def test_baseline_reports_stale_entries(tmp_path):
    findings = run_file(FIXTURES / "rep001_tp.py")
    baseline_path = tmp_path / "baseline.json"
    Baseline.from_findings(findings).save(baseline_path)
    loaded = Baseline.load(baseline_path)
    new, _, stale = partition(findings[1:], loaded)
    assert new == []
    assert len(stale) == 1


def test_baseline_preserves_justifications(tmp_path):
    findings = run_file(FIXTURES / "rep001_tp.py")
    baseline_path = tmp_path / "baseline.json"
    first = Baseline.from_findings(findings)
    key = findings[0].key()
    first.justifications[key] = "kept on purpose"
    first.save(baseline_path)
    rewritten = Baseline.from_findings(findings, previous=Baseline.load(baseline_path))
    assert rewritten.justifications[key] == "kept on purpose"


def test_checked_in_baseline_is_empty():
    data = json.loads(
        (Path(__file__).parent.parent / "lint-baseline.json").read_text()
    )
    assert data == {"version": 1, "findings": []}


# ---------------------------------------------------------------------------
# the tree itself lints clean, and the CLI wiring works
# ---------------------------------------------------------------------------

def test_src_tree_lints_clean():
    assert run_paths([SRC]) == []


def test_src_tree_lints_clean_with_project_phase():
    assert run_paths([SRC], project=True) == []


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.py"
    bad.write_text(
        "# repro: dtype-strict\nimport numpy as np\narr = np.zeros(5)\n"
    )
    assert repro_main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "REP002" in out and "bad.py:3:" in out

    # Grandfather it, then the same invocation passes.
    assert repro_main(["lint", str(bad), "--write-baseline"]) == 0
    assert repro_main(["lint", str(bad)]) == 0

    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert repro_main(["lint", str(clean), "--no-baseline"]) == 0
    assert repro_main(["lint", str(tmp_path / "missing.py")]) == 2


def test_cli_list_rules(capsys):
    assert repro_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ALL_RULES:
        assert code in out
    assert "(project)" in out  # project rules are marked as such


def test_cli_project_flag_enables_graph_rules(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "looper.py"
    bad.write_text("import time\n\n\nasync def pause():\n    time.sleep(1)\n")
    # per-file phase alone cannot see it
    assert repro_main(["lint", str(bad), "--no-baseline"]) == 0
    capsys.readouterr()
    assert repro_main(["lint", str(bad), "--no-baseline", "--project"]) == 1
    assert "REP007" in capsys.readouterr().out
    # --no-project pins the per-file behaviour explicitly
    assert repro_main(
        ["lint", str(bad), "--no-baseline", "--project", "--no-project"]
    ) == 0


def test_cli_json_format(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "looper.py"
    bad.write_text("import time\n\n\nasync def pause():\n    time.sleep(1)\n")
    code = repro_main(
        ["lint", str(bad), "--no-baseline", "--project", "--format=json"]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"] == {"REP007": 1}
    (finding,) = doc["findings"]
    assert finding["rule"] == "REP007"
    assert finding["line"] == 5
    assert finding["severity"] == "error"
    assert "time.sleep" in finding["message"]

    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert repro_main(
        ["lint", str(clean), "--no-baseline", "--format=json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["findings"] == [] and doc["counts"] == {}
