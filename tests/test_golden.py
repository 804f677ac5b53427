"""Byte-identity of command-line outputs against recorded golden files.

Each case runs one `netline` command line in-process, from a temporary
working directory holding the input documents below, and compares stdout
(and the certificate document, when one is written) byte for byte with the
files under tests/golden/.  Certificate paths are relative because dist-gh
prints the path it wrote.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from netline.cli import main

GOLDEN = Path(__file__).parent / "golden"

INPUTS = {
    "p1.json": {"kind": "points", "coords": ["0", "1/3", "2", "7"]},
    "p2.json": {"kind": "points", "coords": ["0", "1", "5", "6", "19/2"]},
    "iv.json": {"kind": "intervals",
                "intervals": [["-1", "1/2"], ["3", "4"], ["6", "6"]]},
    "win.json": {"kind": "window", "lo": "-2", "hi": "11"},
    "w10.json": {"kind": "window", "lo": "0", "hi": "10"},
    "wf.json": {"kind": "window", "lo": "-37/6", "hi": "13/4"},
    "net.json": {"kind": "points", "coords": ["1", "5/2", "6"]},
    "mx.json": {"kind": "matrix",
                "dist": [["0", "2", "3"], ["2", "0", "5/2"], ["3", "5/2", "0"]]},
    "m3.json": {"kind": "points", "coords": ["0", "1", "3"]},
    "b1.json": {"kind": "points", "coords": [
        "0", "3", "4", "9", "11", "14", "20", "22", "27", "31", "35", "39"]},
    "b2.json": {"kind": "points", "coords": [
        "1", "2", "6", "8", "13", "17", "18", "24", "29", "30", "33", "38"]},
    "ivp.json": {"kind": "intervals", "intervals": [
        ["-29/7", "-11/5"], ["-3/13", "-3/13"], ["5/11", "19/17"],
        ["23/19", "41/13"]]},
    "pp.json": {"kind": "points", "coords": [
        "-61/11", "-17/7", "-2/5", "7/17", "13/19", "31/13"]},
    "c1.json": {"kind": "points", "coords": [
        "0", "3", "4", "6", "7", "8", "15", "16", "24", "25", "28", "30", "31",
        "36"]},
    "c2.json": {"kind": "points", "coords": [
        "0", "1", "6", "14", "17", "20", "24", "27", "28", "29", "30", "32",
        "35", "37"]},
    "bx.json": {"kind": "matrix", "dist": [
        ["0", "4", "3", "3", "4"], ["4", "0", "2", "7/2", "5/2"],
        ["3", "2", "0", "2", "5/2"], ["3", "7/2", "2", "0", "2"],
        ["4", "5/2", "5/2", "2", "0"]]},
    "by.json": {"kind": "matrix", "dist": [
        ["0", "3", "7/2", "5/2", "7/2", "4"], ["3", "0", "2", "4", "5/2", "2"],
        ["7/2", "2", "0", "5/2", "7/2", "3"], ["5/2", "4", "5/2", "0", "5/2", "7/2"],
        ["7/2", "5/2", "7/2", "5/2", "0", "5/2"], ["4", "2", "3", "7/2", "5/2", "0"]]},
    # the largest gh-solve size: without refinement the search took 776
    # nodes to close d and left e open at budget 1000; refinement at the
    # staircase incumbent proves both at the root
    "d1.json": {"kind": "points", "coords": [
        "2", "3", "4", "7", "13", "15", "16", "22", "24", "25", "28", "30", "31",
        "34", "35", "39"]},
    "d2.json": {"kind": "points", "coords": [
        "0", "1", "2", "3", "4", "12", "13", "17", "18", "22", "25", "26", "31",
        "36", "37", "38"]},
    "e1.json": {"kind": "points", "coords": [
        "2", "5", "6", "8", "16", "18", "20", "21", "26", "28", "31", "33", "34",
        "36", "38", "39"]},
    "e2.json": {"kind": "points", "coords": [
        "1", "2", "4", "7", "11", "13", "18", "19", "20", "26", "27", "30", "31",
        "34", "38", "39"]},
    # a line pair whose best staircase (13) is not optimal: d_GH = 12 through
    # the non-monotone correspondence (0,0) (1,3) (2,2) (3,1) (3,2)
    "s1.json": {"kind": "points", "coords": ["0", "42", "48", "51"]},
    "s2.json": {"kind": "points", "coords": ["0", "30", "34", "63"]},
    # unnormalised and mixed scalar forms, in increasing order
    "pu.json": {"kind": "points", "coords": [
        "-7/14", "-0", "6/4", "2.50", "007", "1e1"]},
    # spans out of order, overlapping and touching, so merge has to sort
    "ivu.json": {"kind": "intervals", "intervals": [
        ["5", "6"], ["0", "2"], ["3/2", "3"], ["12/4", "4"]]},
    "mxu.json": {"kind": "matrix",
                 "dist": [["0", "4/2", "3.0"], ["2", "0", "5/2"],
                          ["3", "10/4", "-0"]]},
}

# (case name, argv, certificate file written by the command or None)
CASES = [
    ("dist-h-points", ["dist-h", "p1.json", "p2.json"], None),
    ("dist-h-intervals", ["dist-h", "iv.json", "p2.json"], None),
    ("dist-h-window", ["dist-h", "win.json", "iv.json"], None),
    ("dist-h-coprime", ["dist-h", "ivp.json", "pp.json"], None),
    ("dist-h-unnormalised", ["dist-h", "pu.json", "ivu.json"], None),
    ("dist-gh-line", ["dist-gh", "p1.json", "p2.json", "--method", "exact",
                      "--certificate", "line.cert.json"], "line.cert.json"),
    ("dist-gh-matrix", ["dist-gh", "mx.json", "m3.json", "--method", "exact",
                        "--certificate", "matrix.cert.json"], "matrix.cert.json"),
    ("dist-gh-matrix-unnormalised", ["dist-gh", "mxu.json", "m3.json",
                                     "--method", "exact", "--certificate",
                                     "mu.cert.json"], "mu.cert.json"),
    ("dist-gh-bb", ["dist-gh", "b1.json", "b2.json", "--method", "branch-bound",
                    "--budget", "5000", "--certificate", "bb.cert.json"],
     "bb.cert.json"),
    ("dist-gh-bb-refuted", ["dist-gh", "c1.json", "c2.json", "--method",
                            "branch-bound", "--budget", "5000",
                            "--certificate", "ref.cert.json"], "ref.cert.json"),
    ("dist-gh-bb-matrix", ["dist-gh", "bx.json", "by.json", "--method",
                           "branch-bound", "--certificate", "bm.cert.json"],
     "bm.cert.json"),
    ("dist-gh-bb-matrix-truncated", ["dist-gh", "bx.json", "by.json", "--method",
                                     "branch-bound", "--budget", "700",
                                     "--certificate", "bmt.cert.json"],
     "bmt.cert.json"),
    ("dist-gh-bb-16", ["dist-gh", "d1.json", "d2.json", "--method",
                       "branch-bound", "--budget", "1000", "--certificate",
                       "b16.cert.json"], "b16.cert.json"),
    ("dist-gh-bb-16-refuted", ["dist-gh", "e1.json", "e2.json", "--method",
                               "branch-bound", "--budget", "1000",
                               "--certificate", "r16.cert.json"],
     "r16.cert.json"),
    ("dist-gh-bb-line-search", ["dist-gh", "s1.json", "s2.json", "--method",
                                "branch-bound", "--certificate", "ls.cert.json"],
     "ls.cert.json"),
    # at budget 0 the root does not close the pair: bounds-only [21/2, 13]
    ("dist-gh-bb-line-search-budget-0", ["dist-gh", "s1.json", "s2.json",
                                         "--method", "branch-bound", "--budget",
                                         "0", "--certificate", "ls0.cert.json"],
     "ls0.cert.json"),
    ("trace", ["trace", "net.json", "--window", "w10.json",
               "--grid", "0,1/8,1/3,1/2,3/4,1,1"], None),
    ("contract", ["contract", "net.json", "--lam", "1/3", "--window", "w10.json"],
     None),
    ("trace-coprime", ["trace", "pp.json", "--window", "wf.json",
                       "--grid", "0,1/7,2/9,5/11,3/5,1"], None),
    ("contract-coprime", ["contract", "pp.json", "--lam", "3/5", "--window",
                          "wf.json"], None),
    ("verify-all", ["verify", "all", "--seed", "3", "--cases", "40"], None),
    # enough cases to pin lambda-hits' hit count and its five examples
    ("verify-all-400", ["verify", "all", "--seed", "1", "--cases", "400"], None),
    ("experiment-geometric", ["experiment", "geometric"], None),
    ("experiment-homothety", ["experiment", "homothety", "--sizes", "2,3,4,5"],
     None),
]


def run_case(argv: list[str], cert: str | None, workdir: Path,
             capsys) -> tuple[int, str, str | None]:
    """Run one command line from workdir; (exit code, stdout, certificate)."""
    for name, doc in INPUTS.items():
        (workdir / name).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    code = main(argv)
    out = capsys.readouterr().out
    cert_text = (workdir / cert).read_text(encoding="utf-8") if cert else None
    return code, out, cert_text


@pytest.mark.parametrize("name,argv,cert", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, argv, cert, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, cert_text = run_case(argv, cert, tmp_path, capsys)
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    if cert is not None:
        assert cert_text == (GOLDEN / f"{name}.cert.json").read_text(encoding="utf-8")
