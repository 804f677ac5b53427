"""Command-line behaviour: outputs, exit codes, byte-determinism."""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import random
import sys
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
    # a 5x6 matrix pair whose search is still open after 700 nodes
    x = write(
        tmp_path / "bx.json",
        {"kind": "matrix", "dist": [
            ["0", "4", "3", "3", "4"], ["4", "0", "2", "7/2", "5/2"],
            ["3", "2", "0", "2", "5/2"], ["3", "7/2", "2", "0", "2"],
            ["4", "5/2", "5/2", "2", "0"]]},
    )
    y = write(
        tmp_path / "by.json",
        {"kind": "matrix", "dist": [
            ["0", "3", "7/2", "5/2", "7/2", "4"], ["3", "0", "2", "4", "5/2", "2"],
            ["7/2", "2", "0", "5/2", "7/2", "3"],
            ["5/2", "4", "5/2", "0", "5/2", "7/2"],
            ["7/2", "5/2", "7/2", "5/2", "0", "5/2"],
            ["4", "2", "3", "7/2", "5/2", "0"]]},
    )
    code = main(["dist-gh", x, y, "--method", "branch-bound", "--budget", "700"])
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


def test_trace_beyond_the_float_range_writes_inf(spaces, tmp_path, capsys):
    # 10**400 is beyond the float range: the exact columns hold it, the decimal twins read inf
    w = write(tmp_path / "far.json", {"kind": "window", "lo": "0", "hi": "1e400"})
    assert main(["trace", spaces["a"], "--window", w, "--grid", "0,1/2,1"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[6:] for row in rows] == [
        ["0", "inf", "0"], ["0.5", "inf", "1"], ["1", "0", "inf"]]
    assert [rows[0][3], rows[2][4]] == [str(10**400), str(10**400 - 1)]


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


@pytest.mark.parametrize("flag", ["--budget", "--limit"])
def test_dist_gh_rejects_negative_budget_and_limit(flag, spaces, capsys):
    argv = ["dist-gh", spaces["x"], spaces["y"], "--method", "branch-bound"]
    assert main(argv + [flag, "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag}: ")
    assert main(argv + [flag, "0"]) == 0  # zero stays valid


def test_experiment_rejects_negative_budget(capsys):
    argv = ["experiment", "homothety", "--sizes", "2,3"]
    assert main(argv + ["--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --budget: ")
    assert main(argv + ["--budget", "0"]) == 0


def test_experiment_rejects_malformed_sizes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "homothety", "--sizes", "2,x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --sizes: " in captured.err


def test_experiment_names_the_type_of_a_malformed_size_list(capsys):
    with pytest.raises(SystemExit):
        main(["experiment", "homothety", "--sizes", "2,,3"])
    err = capsys.readouterr().err
    assert "<lambda>" not in err
    assert "argument --sizes: invalid comma_separated_ints value: '2,,3'" in err


@pytest.mark.parametrize("args,flag", [
    (["homothety", "--sizes", "0,2"], "--sizes"),
    (["homothety", "--lam", "1/2"], "--lam"),
    (["geometric", "--factor", "-1"], "--factor"),
    (["geometric", "--k", "-1"], "--k"),
])
def test_experiment_parameter_errors_name_their_flag(args, flag, capsys):
    assert main(["experiment", *args, "--budget", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag}: expected ")


def test_experiment_accepts_the_edge_values(capsys):
    # lam 1 gives isometric pairs, and k 0 an empty table, as before
    assert main(["experiment", "homothety", "--lam", "1", "--sizes", "1"]) == 0
    assert "N=1, 0, 0, 0" in capsys.readouterr().out
    assert main(["experiment", "geometric", "--k", "0"]) == 0
    assert capsys.readouterr().out.endswith("2dGH_exact, nodes\n")


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
    from netline.correspondence import Correspondence
    from netline.solver import GHResult

    def broken(x, y, budget=None):
        corr = Correspondence.of([(0, 0), (1, 1)], 2, 2)
        return GHResult(F(1), F(0), None, 0, corr, ((0, 0), (1, 1)))

    monkeypatch.setattr(cli, "gh_branch_bound", broken)
    code = main(["dist-gh", spaces["x"], spaces["y"], "--method", "branch-bound"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: ")
    assert "lower bound exceeds upper bound" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("method, name, value_at", [
    ("branch-bound", "_best_staircase", 0),
    ("exact", "_start", 4),
])
def test_lying_incumbent_exits_3(tmp_path, monkeypatch, capsys, method, name, value_at):
    # an incumbent that under-reports its distortion by one scaled unit is
    # refused when the solver re-derives it, before anything is printed
    from netline import solver

    honest = getattr(solver, name)

    def lying(*args):
        found = list(honest(*args))
        found[value_at] -= 1
        return tuple(found)

    monkeypatch.setattr(solver, name, lying)
    x = write(tmp_path / "x.json", {"kind": "points", "coords": ["0", "1/3", "2", "7"]})
    y = write(tmp_path / "y.json",
              {"kind": "points", "coords": ["0", "1", "5", "6", "19/2"]})
    assert main(["dist-gh", x, y, "--method", method]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: ")
    assert captured.out == ""


def test_parse_error_exits_2(tmp_path, capsys):
    bad = write(tmp_path / "bad.json", {"kind": "points", "coords": [0.5]})
    assert main(["dist-h", bad, bad]) == 2
    err = capsys.readouterr().err
    assert "coords[0]" in err
    missing = str(tmp_path / "missing.json")
    assert main(["dist-h", missing, missing]) == 2


def test_invalid_json_exits_2_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    for command in ("dist-h", "dist-gh"):
        assert main([command, str(bad), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: invalid JSON")


def test_too_deeply_nested_json_exits_2_naming_the_file(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    for command in ("dist-h", "dist-gh"):
        assert main([command, str(deep), str(deep)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {deep}: unreadable JSON: maximum recursion")
        assert "Traceback" not in captured.err and captured.out == ""


def test_a_document_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"kind": "points", "coords": ["0", "\xff"]}')
    ok = write(tmp_path / "ok.json", {"kind": "points", "coords": ["0", "1"]})
    for argv in (["dist-h", str(bad), ok], ["dist-h", ok, str(bad)], ["dist-gh", ok, str(bad)],
                 ["trace", ok, "--window", str(bad), "--grid", "0,1"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == (f"error: {bad}: not UTF-8: 'utf-8' codec can't decode "
                                "byte 0xff in position 36: invalid start byte\n")
        assert captured.out == ""


def test_integer_too_long_to_convert_exits_2_naming_the_file(tmp_path, capsys):
    # a JSON number past int()'s digit limit; where the running Python has no
    # limit, the number parses and is refused as a coordinate list instead
    big = tmp_path / "big.json"
    big.write_text('{"kind": "points", "coords": ' + "7" * 5000 + "}", encoding="utf-8")
    for command in ("dist-h", "dist-gh"):
        assert main([command, str(big), str(big)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {big}")
        if hasattr(sys, "get_int_max_str_digits"):
            assert err.startswith(f"error: {big}: unreadable JSON: Exceeds the limit")


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


def test_gh_exact_on_1600_slots_closed_at_the_start_exits_0(tmp_path, capsys):
    # 1,600 pair slots within --limit; the identity seed meets the diameter
    # bound, so the answer needs no search node, however deep the search
    rng = random.Random(1)
    x = write(tmp_path / "x.json", {"kind": "points", "coords": [
        str(v) for v in sorted(rng.sample(range(48), 40))]})
    assert main(["dist-gh", x, x, "--method", "exact", "--limit", "2000"]) == 0
    captured = capsys.readouterr()
    assert "status: exact\n" in captured.out and "d_gh: 0\n" in captured.out
    assert captured.out.endswith("nodes: 0\n") and captured.err == ""


def test_branch_bound_deeper_than_the_recursion_limit_solves(tmp_path, capsys):
    # 1,200 points against a 2-point matrix: refinement leaves the root open,
    # and the search walks 1,203 steps, more than the default recursion limit
    x = write(tmp_path / "x.json", {"kind": "points", "coords": [
        str(2 * k) for k in range(1200)]})
    y = write(tmp_path / "y.json", {"kind": "matrix", "dist": [["0", "7"], ["7", "0"]]})
    assert main(["dist-gh", x, y, "--method", "branch-bound"]) == 0
    captured = capsys.readouterr()
    assert "status: exact\n" in captured.out and "d_gh: 2391/2\n" in captured.out
    assert captured.out.endswith("nodes: 1203\n") and captured.err == ""


def test_branch_bound_well_below_the_recursion_limit_still_searches(tmp_path, capsys):
    x = write(tmp_path / "x.json", {"kind": "points", "coords": [
        str(2 * k) for k in range(30)]})
    y = write(tmp_path / "y.json", {"kind": "matrix", "dist": [["0", "7"], ["7", "0"]]})
    assert main(["dist-gh", x, y, "--method", "branch-bound"]) == 0
    out = capsys.readouterr().out
    assert "status: exact\n" in out and "d_gh: 51/2\n" in out
    assert "nodes: 0\n" not in out


@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("field", ["coords", "window", "--lam"])
def test_huge_exponent_exits_2_at_its_field(tmp_path, capsys, sign, field):
    # Fraction(str) would compute 10**100000000 before any check; the parser
    # refuses an exponent beyond the int() digit limit first
    huge = f"1e{sign}100000000"
    coords = ["0", huge] if field == "coords" else ["0"]
    x = write(tmp_path / "x.json", {"kind": "points", "coords": coords})
    w = write(tmp_path / "w.json", {"kind": "window", "lo": "0",
                                    "hi": huge if field == "window" else "1"})
    lam = huge if field == "--lam" else "1/2"
    assert main(["contract", x, "--lam", lam, "--window", w]) == 2
    where = {"coords": f"{x}.coords[1]", "window": f"{w}.hi", "--lam": "--lam"}[field]
    captured = capsys.readouterr()
    assert captured.err == (f"error: {where}: not a rational: {huge!r} "
                            "(exponent beyond +-4300)\n")
    assert captured.out == ""


@pytest.fixture
def digit_limit_4300():
    """Python's default limit on the digits of a printed int, for this test."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python prints ints of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


TOO_LONG = "exact value of more than 4300 digits, too long to print\n"


def test_dist_h_too_long_to_print_exits_2_naming_the_result(tmp_path, capsys,
                                                            digit_limit_4300):
    # "1e4300" parses (its exponent is within bounds), but has 4,301 digits
    a = write(tmp_path / "a.json", {"kind": "points", "coords": ["0", "1e4300"]})
    b = write(tmp_path / "b.json", {"kind": "points", "coords": ["0"]})
    assert main(["dist-h", a, b]) == 2
    assert capsys.readouterr() == ("", f"error: dist-h result: {TOO_LONG}")


def test_contract_too_long_to_print_exits_2_naming_the_interval_end(
        spaces, tmp_path, capsys, digit_limit_4300):
    w = write(tmp_path / "w.json", {"kind": "window", "lo": "0", "hi": "1e4300"})
    out = tmp_path / "out.json"
    assert main(["contract", spaces["x"], "--lam", "1", "--window", w,
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: contract output.intervals[0][1]: {TOO_LONG}")
    assert not out.exists()


def test_trace_too_long_to_print_exits_2_naming_the_column(spaces, tmp_path, capsys,
                                                           digit_limit_4300):
    w = write(tmp_path / "w.json", {"kind": "window", "lo": "0", "hi": "1e4300"})
    assert main(["trace", spaces["a"], "--window", w, "--grid", "0,1"]) == 2
    assert capsys.readouterr() == (
        "", f"error: trace row 1, column d_H_to_window: {TOO_LONG}")
    # a parameter too long to print is named at its own row and column
    assert main(["trace", spaces["x"], "--window", spaces["w"],
                 "--grid", "0,1e-4300"]) == 2
    assert capsys.readouterr() == ("", f"error: trace row 2, column lam: {TOO_LONG}")


def test_dist_gh_too_long_to_print_exits_2_before_its_first_line(tmp_path, capsys,
                                                                 digit_limit_4300):
    # d_gh = 10**4300: nothing is printed, and no certificate is written
    x = write(tmp_path / "x.json", {"kind": "points", "coords": ["0", "2e4300"]})
    y = write(tmp_path / "y.json", {"kind": "points", "coords": ["0"]})
    assert main(["dist-gh", x, y]) == 2
    assert capsys.readouterr() == ("", f"error: dist-gh d_gh: {TOO_LONG}")
    cert = tmp_path / "cert.json"
    assert main(["dist-gh", x, y, "--certificate", str(cert)]) == 2
    assert capsys.readouterr() == ("", f"error: {cert}: lower: {TOO_LONG}")
    assert not cert.exists()


@pytest.mark.parametrize("kind, field", [
    ("points", "x.coords[0]"), ("matrix", "x.dist[0][1]"),
])
def test_a_certificate_input_too_long_to_print_is_named_at_its_path(
        kind, field, tmp_path, capsys, digit_limit_4300):
    # d_gh = 0 prints, but the certificate restates an input of 4,301 digits
    doc = ({"kind": "points", "coords": ["2e4300"]} if kind == "points"
           else {"kind": "matrix", "dist": [["0", "2e4300"], ["2e4300", "0"]]})
    x = write(tmp_path / "x.json", doc)
    y = write(tmp_path / "y.json", doc if kind == "matrix" else {"kind": "points",
                                                                 "coords": ["0"]})
    cert = tmp_path / "cert.json"
    assert main(["dist-gh", x, y, "--certificate", str(cert)]) == 2
    assert capsys.readouterr() == ("", f"error: {cert}: {field}: {TOO_LONG}")
    assert not cert.exists()


@pytest.mark.parametrize("argv, field", [
    (["homothety", "--lam", "1e4300", "--sizes", "1"], "param lam"),
    (["geometric", "--factor", "1e4300", "--k", "2"], "param factor"),
    # 3e4299 prints, but 2 d_GH = 10 (3e4299 - 1) has 4,301 digits
    (["homothety", "--lam", "3e4299", "--sizes", "10"], "row 1, column 2dGH_lower"),
], ids=["lam", "factor", "row"])
def test_experiment_too_long_to_print_exits_2_naming_the_field(argv, field, tmp_path,
                                                              capsys, digit_limit_4300):
    out = tmp_path / "table.txt"
    assert main(["experiment", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: experiment {field}: {TOO_LONG}")
    assert main(["experiment", *argv, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("target, command", [
    ("contract", "contract"), ("run_trace", "trace"), ("trace_csv", "trace"),
], ids=["contract", "trace", "trace-render"])
def test_an_internal_error_exits_3(target, command, spaces, monkeypatch, capsys):
    # a defect inside a deformation is not a parameter error (`_naming` lets
    # it through), and one inside a render is not a field too long to print
    from netline import cli
    from netline.errors import InvariantError

    def broken(*args):
        raise InvariantError("broken invariant")

    monkeypatch.setattr(cli, target, broken)
    flags = (["--lam", "1/2"] if command == "contract" else ["--grid", "0,1"])
    assert main([command, spaces["x"], "--window", spaces["w"], *flags]) == 3
    assert capsys.readouterr() == ("", "internal error: broken invariant\n")


@pytest.mark.parametrize("coords, flags, field, message", [
    (["0", "3"], ["--lam", "2"], "--lam", "lam must lie in [0, 1]"),
    (["0", "3"], ["--grid", "0,3/2"], "--grid", "lam must lie in [0, 1]"),
    (["0", "7"], ["--lam", "1/2"], "{x}", "point set must lie inside the window"),
    (["0", "7"], ["--grid", "0,1/2"], "{x}", "point set must lie inside the window"),
    # the library's order: the first parameter, the window, the rest
    (["0", "7"], ["--lam", "2"], "--lam", "lam must lie in [0, 1]"),
    (["0", "7"], ["--grid", "2,3/2"], "--grid", "grid must be sorted ascending"),
    (["0", "7"], ["--grid", "2,3"], "--grid", "lam must lie in [0, 1]"),
    (["0", "7"], ["--grid", "0,3/2"], "{x}", "point set must lie inside the window"),
])
def test_deformation_refusals_name_their_field(coords, flags, field, message,
                                               tmp_path, capsys):
    x = write(tmp_path / "x.json", {"kind": "points", "coords": coords})
    w = write(tmp_path / "w.json", {"kind": "window", "lo": "0", "hi": "5"})
    command = "contract" if flags[0] == "--lam" else "trace"
    assert main([command, x, "--window", w, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {field.format(x=x)}: {message}\n"
    assert captured.out == ""


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


@pytest.mark.parametrize("command", [
    ["contract", "{u}", "--lam", "1/2", "--window", "{w}"],
    ["trace", "{u}", "--window", "{w}", "--grid", "0,1"],
], ids=["contract", "trace"])
def test_deformation_of_an_intervals_document_exits_2(command, tmp_path, capsys):
    u = write(tmp_path / "u.json", {"kind": "intervals", "intervals": [["0", "1"]]})
    w = write(tmp_path / "w.json", {"kind": "window", "lo": "-1", "hi": "4"})
    argv = [a.format(u=u, w=w) for a in command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {u}: {command[0]} expects a points document\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["contract", "{x}", "--lam", "1/2", "--window", "{w}"],
    ["trace", "{x}", "--window", "{w}", "--grid", "0,1"],
], ids=["contract", "trace"])
def test_window_given_a_points_document_exits_2(command, spaces, capsys):
    argv = [a.format(x=spaces["x"], w=spaces["pts"]) for a in command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {spaces['pts']}: expected a window document\n"
    assert captured.out == ""


def os_error(code: int, path: str) -> str:
    return f"error: [Errno {code}] {os.strerror(code)}: {path!r}\n"


@pytest.mark.parametrize("argv", [
    ["dist-h", "{missing}", "{x}"], ["dist-h", "{x}", "{missing}"],
    ["dist-gh", "{x}", "{missing}", "--certificate", "{cert}"],
    ["contract", "{x}", "--lam", "1/2", "--window", "{missing}"],
    ["trace", "{missing}", "--window", "{w}", "--grid", "0,1"],
], ids=["dist-h-a", "dist-h-b", "dist-gh", "contract", "trace"])
def test_a_missing_input_file_exits_2_naming_it(argv, spaces, tmp_path, capsys):
    missing, cert = str(tmp_path / "missing.json"), tmp_path / "cert.json"
    names = dict(spaces, missing=missing, cert=str(cert))
    assert main([a.format(**names) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == os_error(errno.ENOENT, missing)
    assert captured.out == "" and not cert.exists()


@pytest.mark.parametrize("target, code", [
    ("nodir/cert.json", errno.ENOENT), ("adir", errno.EISDIR),
], ids=["in-a-missing-directory", "a-directory"])
@pytest.mark.parametrize("method", ["exact", "branch-bound"])
def test_a_failed_certificate_write_prints_no_answer(target, code, method, spaces,
                                                     tmp_path, capsys):
    (tmp_path / "adir").mkdir()
    path = str(tmp_path / target)
    argv = ["dist-gh", spaces["x"], spaces["y"], "--method", method, "--certificate", path]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == os_error(code, path)
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["contract", "{x}", "--lam", "1/2", "--window", "{w}", "--out", "{out}"],
    ["trace", "{x}", "--window", "{w}", "--grid", "0,1", "--out", "{out}"],
    ["verify", "ultrametric-h", "--cases", "2", "--out", "{out}"],
], ids=["contract", "trace", "verify"])
def test_a_failed_out_write_exits_2_and_prints_nothing(argv, spaces, tmp_path, capsys):
    out = str(tmp_path / "nodir" / "out.txt")
    assert main([a.format(out=out, **spaces) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == os_error(errno.ENOENT, out)
    assert captured.out == ""
