"""Tests for the sweb-repro command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["run", "T3", "--full"])
    assert args.command == "run" and args.experiment == "T3" and args.full
    args = parser.parse_args(["list"])
    assert args.command == "list"
    args = parser.parse_args(["serve", "--testbed", "now", "--rps", "4"])
    assert args.testbed == "now" and args.rps == 4


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "T1" in out and "X3" in out


def test_cli_run_fast_experiment(capsys):
    assert main(["run", "F1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "shape holds: True" in out


def test_cli_run_unknown_experiment():
    with pytest.raises(KeyError):
        main(["run", "T99"])


def test_cli_serve_small(capsys):
    code = main(["serve", "--nodes", "2", "--rps", "2", "--duration", "3",
                 "--file-size", "10000", "--files", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "response:" in out
    assert "cpu shares:" in out


def test_cli_serve_summary_is_pinned(capsys):
    # Every field of the page-cache line is nonzero here (hits, misses,
    # evictions, replications), so the whole summary is checked verbatim.
    code = main(["serve", "--nodes", "3", "--rps", "4", "--duration", "4",
                 "--zipf", "1.0", "--replicate", "--file-size", "16000000",
                 "--files", "40"])
    assert code == 0
    assert capsys.readouterr().out == (
        "cli: offered=4.0 rps, completed=16, drop=0.0%, mean_rt=28.698s\n"
        "response: mean 28.698s p50 30.766s p90 36.072s p99 36.249s\n"
        "redirected: 0.0%, remote reads: 43.8%\n"
        "page cache (RAM): 15.8% hit rate (3 hits / 16 misses, "
        "7 evictions), 3 hot-file replications\n"
        "dns cache (client TTL): 0.0% hit rate\n"
        "cpu shares: fork 0.14%, loadd 0.20%, parsing 0.84%, "
        "scheduling 0.03%, send 33.56%\n")


def test_cli_config_template_roundtrips(capsys):
    from repro.config import load_config
    assert main(["config-template"]) == 0
    out = capsys.readouterr().out
    config = load_config(out)
    assert config.spec.num_nodes == 6
    assert config.params.delta == pytest.approx(0.30)


def test_cli_replay(tmp_path, capsys):
    log = tmp_path / "access_log"
    log.write_text(
        'a.ucsb.edu - - [15/Apr/1996:09:00:00 +0000] '
        '"GET /x.html HTTP/1.0" 200 4096\n'
        'b.ucsb.edu - - [15/Apr/1996:09:00:01 +0000] '
        '"GET /y.gif HTTP/1.0" 200 20000\n'
        'a.ucsb.edu - - [15/Apr/1996:09:00:02 +0000] '
        '"GET /x.html HTTP/1.0" 200 4096\n')
    assert main(["replay", str(log), "--time-scale", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "replayed 3 requests" in out
    assert "completed 3" in out


def test_cli_replay_empty_log(tmp_path, capsys):
    log = tmp_path / "empty_log"
    log.write_text("not a log\n")
    assert main(["replay", str(log)]) == 1


# -- observability flags (docs/TRACING.md) ---------------------------------

def test_parser_trace_flags():
    parser = build_parser()
    args = parser.parse_args(["serve", "--trace-requests", "0",
                              "--trace-out", "t.json"])
    assert args.trace_requests == 0 and args.trace_out == "t.json"
    args = parser.parse_args(["trace"])
    assert args.command == "trace"
    assert args.experiment == "X10" and args.out == "trace.json"
    assert args.requests is None and args.seed == 7
    args = parser.parse_args(["trace", "T1", "-o", "x.json",
                              "--requests", "5", "--flame"])
    assert args.experiment == "T1" and args.out == "x.json"
    assert args.requests == 5 and args.flame


def test_parser_rejects_bad_trace_counts(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit) as err:
        parser.parse_args(["serve", "--trace-requests", "-1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        parser.parse_args(["serve", "--trace-requests", "many"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        parser.parse_args(["trace", "--requests", "0"])  # must be >= 1
    assert err.value.code == 2
    capsys.readouterr()


def test_parser_rejects_non_positive_serve_sizes(capsys):
    # --nodes 0 used to reach the corpus builder and die with a
    # ZeroDivisionError; --rps/--files had the same hole.
    parser = build_parser()
    for flag, value in (("--nodes", "0"), ("--nodes", "-2"),
                        ("--rps", "0"), ("--files", "0")):
        with pytest.raises(SystemExit) as err:
            parser.parse_args(["serve", flag, value])
        assert err.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("duration", ["-3", "nan", "inf"])
def test_cli_geo_rejects_a_bad_duration(capsys, duration):
    assert main(["serve", "--geo", "--duration", duration]) == 2
    assert "duration must be finite" in capsys.readouterr().err


def test_cli_trace_out_requires_trace_requests(capsys):
    assert main(["serve", "--trace-out", "t.json"]) == 2
    assert "--trace-out requires --trace-requests" in capsys.readouterr().err


def test_cli_serve_with_tracing(tmp_path, capsys):
    import json

    out = tmp_path / "serve_trace.json"
    code = main(["serve", "--nodes", "2", "--rps", "2", "--duration", "3",
                 "--file-size", "10000", "--files", "6",
                 "--trace-requests", "3", "--trace-out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "traced 3 requests" in stdout
    doc = json.loads(out.read_text())
    assert any(e["ph"] == "X" for e in doc["traceEvents"])


def test_cli_serve_without_tracing_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["serve", "--nodes", "2", "--rps", "2", "--duration", "3",
                 "--file-size", "10000", "--files", "6"])
    assert code == 0
    assert "traced" not in capsys.readouterr().out
    assert not (tmp_path / "trace.json").exists()


@pytest.mark.parametrize("cell", ["T1", "T3", "T4", "SKEWED", "X10"])
def test_cli_trace_small_run(cell, tmp_path, capsys):
    import json

    out = tmp_path / "cell.json"
    code = main(["trace", cell, "-o", str(out), "--duration", "3",
                 "--flame"])
    assert code == 0
    stdout = capsys.readouterr().out
    reconciled = stdout.split("span sums reconcile with latency: ")[1]
    checked, total = reconciled.split()[0].split("/")
    assert checked == total and int(total) > 0
    assert "request" in stdout           # flame rollup printed
    doc = json.loads(out.read_text())
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert "request" in names and "fulfill" in names


def test_cli_trace_unknown_experiment(tmp_path, capsys):
    assert main(["trace", "BOGUS", "-o", str(tmp_path / "x.json")]) == 2
    assert "unknown trace experiment" in capsys.readouterr().err
