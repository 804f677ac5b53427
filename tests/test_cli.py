"""Command-line behaviour: outputs, exit codes, byte-determinism."""

from __future__ import annotations

import argparse
import gc
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from netline.cli import main
from netline.formats import verify_gh_certificate


def write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def spaces(tmp_path: Path) -> dict[str, str]:
    return {
        "a": write(tmp_path / "a.json", {"kind": "points", "coords": ["0"]}),
        "b": write(tmp_path / "b.json", {"kind": "points", "coords": ["0", "2"]}),
        "x": write(tmp_path / "x.json", {"kind": "points", "coords": ["0", "1"]}),
        "y": write(tmp_path / "y.json", {"kind": "points", "coords": ["0", "2"]}),
        "w": write(tmp_path / "w.json", {"kind": "window", "lo": "-1", "hi": "4"}),
        "pts": write(
            tmp_path / "pts.json", {"kind": "points", "coords": ["0", "3"]}
        ),
    }


def test_dist_h_prints_exact_value(spaces, capsys):
    assert main(["dist-h", spaces["a"], spaces["b"]]) == 0
    assert capsys.readouterr().out == "2\n"


def test_dist_h_accepts_intervals_and_windows(tmp_path, capsys):
    u = write(
        tmp_path / "u.json",
        {"kind": "intervals", "intervals": [["-1", "1"]]},
    )
    v = write(tmp_path / "v.json", {"kind": "intervals", "intervals": [["0", "1"]]})
    assert main(["dist-h", u, v]) == 0
    assert capsys.readouterr().out == "1\n"


def test_dist_gh_exact_with_certificate(spaces, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert main(
        ["dist-gh", spaces["x"], spaces["y"], "--certificate", str(cert)]
    ) == 0
    out = capsys.readouterr().out
    assert "status: exact" in out
    assert "d_gh: 1/2" in out
    assert "correspondence:" in out
    doc = json.loads(cert.read_text(encoding="utf-8"))
    assert verify_gh_certificate(doc)


def test_dist_gh_bounds_only_still_exits_zero(tmp_path, capsys):
    # a 14-point pair whose search is still open after 5000 nodes
    x = write(
        tmp_path / "bx.json",
        {"kind": "points", "coords": [
            "0", "3", "4", "6", "7", "8", "15", "16", "24", "25", "28", "30",
            "31", "36"]},
    )
    y = write(
        tmp_path / "by.json",
        {"kind": "points", "coords": [
            "0", "1", "6", "14", "17", "20", "24", "27", "28", "29", "30", "32",
            "35", "37"]},
    )
    code = main(["dist-gh", x, y, "--method", "branch-bound", "--budget", "5000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "bounds-only" in out
    assert "lower:" in out and "upper:" in out


def test_contract_writes_interval_doc(spaces, tmp_path, capsys):
    out_path = tmp_path / "contracted.json"
    assert main(
        [
            "contract",
            spaces["pts"],
            "--lam",
            "1/2",
            "--window",
            spaces["w"],
            "--out",
            str(out_path),
        ]
    ) == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc == {
        "kind": "intervals",
        "intervals": [["-1", "1"], ["2", "4"]],
    }


def test_trace_csv_final_row_reaches_window(spaces, capsys):
    assert main(
        [
            "trace",
            spaces["pts"],
            "--window",
            spaces["w"],
            "--grid",
            "0,1/4,1/2,3/4,1",
        ]
    ) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("lam,")
    last = lines[-1].split(",")
    assert last[0] == "1"
    assert last[3] == "0"  # d_H to window is zero at lam = 1


def test_verify_subcommand_green_suite(capsys):
    assert main(["verify", "bounded-cloud", "--seed", "3", "--cases", "40"]) == 0
    out = capsys.readouterr().out
    assert "suite: bounded-cloud" in out
    assert "failures: 0" in out


@pytest.mark.parametrize("cases", ["0", "-1"])
def test_verify_rejects_non_positive_cases(cases, capsys):
    assert main(["verify", "bounded-cloud", "--cases", cases]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --cases: ")


def test_suite_table_is_shared_with_the_command_line():
    from netline import cli, harness

    assert cli.SUITES is harness.SUITES
    for fn, cases, theorem_backed in cli.SUITES.values():
        assert callable(fn)
        assert type(cases) is int and cases > 0
        assert type(theorem_backed) is bool
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert set(suite.choices) - {"all"} == set(cli.SUITES)
    cfg = harness.GeneratorConfig()
    reports = [fn(cfg, cases=1).suite for fn, _, _ in cli.SUITES.values()]
    assert len(set(reports)) == len(reports)


def test_experiment_subcommands(capsys):
    assert main(["experiment", "geometric", "--factor", "2", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "k=2, 6, 6, 6" in out
    assert main(["experiment", "homothety", "--lam", "3/2", "--sizes", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "N=2, 1, 1, 1" in out


def test_verify_exits_1_on_theorem_suite_failure(monkeypatch, capsys):
    from netline import cli
    from netline.harness import CaseFailure, SuiteReport

    def broken(cfg, cases=10):
        return SuiteReport(
            "bounded-cloud", cfg.seed, cases, (CaseFailure(0, "{}", "boom"),)
        )

    monkeypatch.setitem(cli.SUITES, "bounded-cloud", (broken, 10, True))
    assert main(["verify", "bounded-cloud"]) == 1
    assert "failures: 1" in capsys.readouterr().out


def test_invariant_breach_exits_3(spaces, monkeypatch, capsys):
    # a solver result with lower > upper is a defect, not malformed input
    from netline import cli
    from netline.solver import GHResult

    def broken(x, y, budget=None):
        return GHResult(F(1), F(0), None, 0)

    monkeypatch.setattr(cli, "gh_branch_bound", broken)
    code = main(["dist-gh", spaces["x"], spaces["y"], "--method", "branch-bound"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: ")
    assert "lower bound exceeds upper bound" in captured.err
    assert captured.out == ""


def test_parse_error_exits_2(tmp_path, capsys):
    bad = write(tmp_path / "bad.json", {"kind": "points", "coords": [0.5]})
    assert main(["dist-h", bad, bad]) == 2
    err = capsys.readouterr().err
    assert "coords[0]" in err
    missing = str(tmp_path / "missing.json")
    assert main(["dist-h", missing, missing]) == 2


def test_gh_exact_over_limit_exits_2(tmp_path, capsys):
    x = write(
        tmp_path / "six.json",
        {"kind": "grid", "start": "0", "step": "1", "count": 6},
    )
    y = write(
        tmp_path / "five.json",
        {"kind": "grid", "start": "0", "step": "1", "count": 5},
    )
    assert main(["dist-gh", x, y, "--method", "exact"]) == 2
    assert "branch_bound" in capsys.readouterr().err


def test_cli_outputs_are_byte_identical_on_rerun(spaces, capsys):
    main(["dist-gh", spaces["x"], spaces["y"]])
    first = capsys.readouterr().out
    main(["dist-gh", spaces["x"], spaces["y"]])
    assert capsys.readouterr().out == first
    main(["verify", "order-lemmas", "--seed", "9", "--cases", "30"])
    r1 = capsys.readouterr().out
    main(["verify", "order-lemmas", "--seed", "9", "--cases", "30"])
    assert capsys.readouterr().out == r1


def test_repeated_main_calls_leave_no_garbage(spaces, capsys):
    # the parser is built once per process; rebuilding it on every call left
    # reference cycles that only the cyclic collector reclaims
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert main(["dist-h", spaces["a"], spaces["b"]]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().out == "2\n" * 3
