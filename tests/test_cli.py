"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _print_service_stats, main


@pytest.fixture
def barrier_trace_file(tmp_path):
    path = tmp_path / "barrier.json"
    code = main([
        "generate", "barrier", "--nodes", "3", "--rounds", "2",
        "--out", str(path),
    ])
    assert code == 0
    return str(path)


class TestGenerate:
    @pytest.mark.parametrize(
        "kind",
        ["random", "ring", "pipeline", "broadcast", "client-server",
         "barrier", "layered"],
    )
    def test_all_kinds(self, tmp_path, kind, capsys):
        path = tmp_path / f"{kind}.json"
        assert main(["generate", kind, "--nodes", "4", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        data = json.loads(path.read_text())
        assert data["version"] == 1

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "random", "--seed", "5", "--out", str(a)])
        main(["generate", "random", "--seed", "5", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestInfo:
    def test_summary(self, barrier_trace_file, capsys):
        assert main(["info", barrier_trace_file]) == 0
        out = capsys.readouterr().out
        assert "3 nodes" in out
        assert "labels:" in out and "phase0" in out

    def test_missing_file(self, capsys):
        assert main(["info", "/nonexistent.json"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["info"], ["stream"], ["client", "--connect", "127.0.0.1:9"],
    ])
    def test_malformed_file_error_names_the_file(
        self, barrier_trace_file, tmp_path, capsys, command
    ):
        # every command that reads a trace file reports which one is bad
        path = tmp_path / "truncated.json"
        with open(barrier_trace_file, "rb") as fh:
            path.write_bytes(fh.read()[:64])
        assert main([command[0], str(path), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed trace payload: ")


class TestRender:
    def test_plain(self, barrier_trace_file, capsys):
        assert main(["render", barrier_trace_file, "--no-messages"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("P0")

    def test_with_interval(self, barrier_trace_file, capsys):
        assert main([
            "render", barrier_trace_file, "--interval", "phase0",
            "--no-messages",
        ]) == 0
        assert "P" in capsys.readouterr().out

    def test_unknown_label(self, barrier_trace_file, capsys):
        assert main(["render", barrier_trace_file, "--interval", "zzz"]) == 2


class TestRelations:
    def test_all_relations(self, barrier_trace_file, capsys):
        assert main([
            "relations", barrier_trace_file, "--x", "phase0", "--y", "phase1",
        ]) == 0
        out = capsys.readouterr().out
        assert "holding (32/32)" in out  # barrier: everything holds
        assert "strongest: R1'(U,L), R1(U,L)" in out
        assert "clock passes: forward=1 reverse=1\n" in out

    def test_single_spec(self, barrier_trace_file, capsys):
        assert main([
            "relations", barrier_trace_file, "--x", "phase1",
            "--y", "phase0", "--spec", "R4",
        ]) == 0
        assert "R4(X, Y) = False" in capsys.readouterr().out

    def test_engine_choice(self, barrier_trace_file, capsys):
        assert main([
            "relations", barrier_trace_file, "--x", "phase0",
            "--y", "phase1", "--engine", "naive", "--spec", "R1",
        ]) == 0
        assert "True" in capsys.readouterr().out


class TestCheck:
    def test_passing(self, barrier_trace_file, capsys):
        code = main([
            "check", barrier_trace_file,
            "--spec", "R1(U,L)(a, b) and not R4(b, a)",
            "--bind", "a=phase0", "--bind", "b=phase1",
        ])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_failing_exit_code(self, barrier_trace_file, capsys):
        code = main([
            "check", barrier_trace_file, "--spec", "R1(b, a)",
            "--bind", "a=phase0", "--bind", "b=phase1",
        ])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bad_binding_syntax(self, barrier_trace_file, capsys):
        assert main([
            "check", barrier_trace_file, "--spec", "R1(a, b)",
            "--bind", "nonsense",
        ]) == 2

    def test_unbound_name(self, barrier_trace_file):
        assert main([
            "check", barrier_trace_file, "--spec", "R1(a, b)",
            "--bind", "a=phase0",
        ]) == 2

    def test_empty_binding_name_rejected(self, barrier_trace_file, capsys):
        assert main([
            "check", barrier_trace_file, "--spec", "R1(a, b)",
            "--bind", "=phase0", "--bind", "b=phase1",
        ]) == 2
        assert "--bind needs NAME=LABEL" in capsys.readouterr().err


class TestStream:
    def test_empty_watch_name_rejected(self, barrier_trace_file, capsys):
        assert main([
            "stream", barrier_trace_file, "--watch", "=R1(phase0, phase1)",
        ]) == 2
        captured = capsys.readouterr()
        assert "--watch needs NAME=CONDITION" in captured.err
        assert "decided" not in captured.out


class TestClockPassLines:
    """Every clock-pass line prints the counters it is given, by key."""

    def test_stream_prints_the_counters(self, barrier_trace_file, capsys):
        assert main(["stream", barrier_trace_file]) == 0
        out = capsys.readouterr().out
        assert "offline clock passes during the run: forward=0 reverse=0\n" in out

    @pytest.mark.parametrize("passes, shown", [
        ({"forward": 0, "reverse": 0, "extend": 0}, "forward=0 reverse=0 extend=0"),
        ({"forward": 2}, "forward=2"),
    ])
    def test_service_stats_print_a_peers_keys(self, capsys, passes, shown):
        # a peer running another version may report other counters
        _print_service_stats({
            "role": "primary", "events_applied": 3, "closes_applied": 1,
            "verdicts_emitted": 0, "throttles": 0, "parked": 0,
            "shards": [{"applied": 3, "queued_peak": 1}],
            "watch_latency": {"count": 0, "avg_ms": 0.0, "max_ms": 0.0},
            "clock_passes": passes,
        })
        assert capsys.readouterr().out.endswith(f"clock passes: {shown}\n")


class TestFigures:
    def test_prints_figure2(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "C1" in out and "X" in out


class TestParser:
    def test_build_parser_structure(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["relations", "t.json", "--x", "a", "--y", "b", "--spec", "R1"]
        )
        assert args.command == "relations"
        assert args.spec == "R1"

    def test_generate_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["generate", "random", "--out", "x.json"]
        )
        assert args.nodes == 4
        assert args.seed == 0

    def test_unknown_command_rejected(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestVersion:
    def test_version_string(self):
        import repro

        assert repro.__version__ == "1.0.0"
