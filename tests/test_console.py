"""What an installed `netline` promises, checked in-process.

Each command-line test calls `cli.main` from a temporary working directory
holding the documents it names, and asserts an exit status, an output
line, or that two runs print the same bytes:

- every suite at seed 0 with 1,000 cases (300 for gh-bounds);
- the solver runs, whose certificates must verify;
- written scalar forms against their canonical twins;
- malformed documents, which exit 2 naming the field.

One test runs `python -m netline.cli` in a subprocess, so the module's
`sys.exit(main())` runs too; the last pins the package's public names.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

import netline
from netline.cli import main
from netline.formats import verify_gh_certificate

ROOT = Path(__file__).resolve().parent.parent

X = {"kind": "points", "coords": ["0", "1/3", "2", "7"]}
Y = {"kind": "points", "coords": ["0", "1", "5", "6", "19/2"]}
# refinement leaves this staircase open; singleton refinement proves it at
# the root, where the search alone takes 1,648 nodes
QX = {"kind": "points", "coords": [
    "1", "5", "7", "10", "14", "17", "18", "23", "24", "33"]}
QY = {"kind": "points", "coords": ["9", "13", "17", "18", "29", "32", "33", "36"]}
# a 5x6 matrix pair that refinement leaves open: the bounds-only path
BX = {"kind": "matrix", "dist": [
    ["0", "4", "3", "3", "4"], ["4", "0", "2", "7/2", "5/2"],
    ["3", "2", "0", "2", "5/2"], ["3", "7/2", "2", "0", "2"],
    ["4", "5/2", "5/2", "2", "0"]]}
BY = {"kind": "matrix", "dist": [
    ["0", "3", "7/2", "5/2", "7/2", "4"], ["3", "0", "2", "4", "5/2", "2"],
    ["7/2", "2", "0", "5/2", "7/2", "3"], ["5/2", "4", "5/2", "0", "5/2", "7/2"],
    ["7/2", "5/2", "7/2", "5/2", "0", "5/2"], ["4", "2", "3", "7/2", "5/2", "0"]]}

# canonical scalars ("c") and written forms of the same values ("n"); a list
# holding "0.25" or "0.5", and every window scalar, is read by Fraction(str),
# while a list of written forms alone is read in one int() step
CX = {"kind": "points", "coords": ["0", "1/4", "3/2", "2", "7"]}
NX = {"kind": "points", "coords": ["-0", "0.25", "6/4", "10/5", "7"]}
CU = {"kind": "intervals", "intervals": [["0", "1/4"], ["3/2", "2"]]}
NU = {"kind": "intervals", "intervals": [["6/4", "10/5"], ["-0", "0.25"]]}
CW = {"kind": "window", "lo": "0", "hi": "10"}
NW = {"kind": "window", "lo": "-0", "hi": "20/2"}
CM = {"kind": "matrix", "dist": [
    ["0", "1/2", "3/2", "1"], ["1/2", "0", "1", "1"], ["3/2", "1", "0", "1"],
    ["1", "1", "1", "0"]]}
NM = {"kind": "matrix", "dist": [
    ["-0", "0.5", "6/4", "1"], ["1/2", "0", "2/2", "1"], ["1.5", "1", "0", "3/3"],
    ["1", "1", "1", "-0"]]}
WM = {"kind": "matrix", "dist": [
    ["-0", "2/4", "6/4", "1"], ["1/2", "0", "2/2", "1"], ["3/2", "1", "0", "3/3"],
    ["1", "1", "1", "-0"]]}
# 999 canonical coordinates from -2000/7 up
LONG = [str(Fraction(k - 2000, 7)) for k in range(999)]


@pytest.fixture
def run(tmp_path, monkeypatch, capsys):
    """Write name -> document into a fresh working directory, then run main.

    Returns a function of (argv, documents) giving (exit status, stdout,
    stderr) of one command line run there.
    """
    monkeypatch.chdir(tmp_path)

    def run(argv: list[str], **docs: dict) -> tuple[int, str, str]:
        for name, doc in docs.items():
            Path(f"{name}.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


SUITE_RUNS = [
    ("construction-bounds", 1000),
    ("order-lemmas", 1000),
    # the staircase sweep against gh_exact, up to the 5/4 theorem bound
    ("gh-bounds", 300),
    ("bounded-cloud", 1000),
    ("ultrametric-gh", 1000),
    ("ultrametric-h", 1000),
    ("continuity", 1000),
    ("stability", 1000),
    ("lambda-hits", 1000),
]


@pytest.mark.parametrize("suite, cases", SUITE_RUNS, ids=[s for s, _ in SUITE_RUNS])
def test_suite_passes_at_seed_0(suite, cases, run):
    code, out, _ = run(["verify", suite, "--seed", "0", "--cases", str(cases)])
    assert code == 0
    if suite == "lambda-hits":
        # not theorem-backed, so it exits 0 whatever it finds
        assert "record: certificate violations: 0" in out.splitlines()


SOLVES = [
    ("branch-bound", X, Y, ["--method", "branch-bound"], []),
    ("exact", X, Y, ["--method", "exact"], []),
    # refinement at the staircase proves it optimal within any budget
    ("budget-20", X, Y, ["--method", "branch-bound", "--budget", "20"],
     ["status: exact", "nodes: 0"]),
    ("singleton-refinement", QX, QY, ["--method", "branch-bound", "--budget", "0"],
     ["status: exact", "nodes: 0"]),
    ("bounds-only", BX, BY, ["--method", "branch-bound", "--budget", "700"],
     ["status: bounds-only (budget exhausted)", "nodes: 701"]),
]


@pytest.mark.parametrize("x, y, flags, lines", [s[1:] for s in SOLVES],
                         ids=[s[0] for s in SOLVES])
def test_dist_gh_writes_a_certificate_that_verifies(x, y, flags, lines, run):
    code, out, _ = run(["dist-gh", "x.json", "y.json", *flags,
                        "--certificate", "c.json"], x=x, y=y)
    assert code == 0
    printed = out.splitlines()
    for line in lines:
        assert line in printed
    assert any(line.startswith("correspondence: ") for line in printed)
    cert = json.loads(Path("c.json").read_text(encoding="utf-8"))
    assert verify_gh_certificate(cert) is True


def test_written_and_canonical_scalars_print_the_same_answers(run):
    outs = []
    for x, u, w in ((NX, NU, NW), (CX, CU, CW)):
        results = [run(["dist-h", "x.json", "u.json"], x=x, u=u, w=w),
                   run(["dist-h", "u.json", "w.json"]),
                   run(["trace", "x.json", "--window", "w.json",
                        "--grid", "0,1/4,1/2,3/4,1"])]
        assert [code for code, _, _ in results] == [0, 0, 0]
        outs.append("".join(out for _, out, _ in results))
    assert outs[0] == outs[1]


def test_a_long_list_prints_the_same_read_whole_or_scalar_by_scalar(run):
    # one "0.25" at its end sends the whole list to the scalar-by-scalar reader
    outs = []
    for last in ("0.25", "1/4"):
        results = [run(["dist-h", "big.json", "cx.json"],
                       big={"kind": "points", "coords": LONG + [last]}, cx=CX),
                   run(["dist-h", "big.json", "cu.json"], cu=CU)]
        assert [code for code, _, _ in results] == [0, 0]
        outs.append("".join(out for _, out, _ in results))
    assert outs[0] == outs[1]


def test_written_matrix_scalars_solve_like_their_canonical_twin(run):
    # "0.5" sends a matrix to Fraction(str); written forms alone take one step
    outs = []
    for m in (NM, WM, CM):
        outs.append("")
        for method in ("exact", "branch-bound"):
            code, out, _ = run(["dist-gh", "m.json", "cx.json", "--method", method,
                                "--certificate", "m.cert.json"], m=m, cx=CX)
            assert code == 0
            outs[-1] += out + Path("m.cert.json").read_text(encoding="utf-8")
    nm, wm, cm = outs
    assert nm == cm
    assert wm == cm
    assert cm.splitlines().count("status: exact") == 2


@pytest.mark.parametrize("argv, docs, field", [
    # a bad scalar deep in a list
    (["dist-h", "bad900.json", "cx.json"],
     {"bad900": {"kind": "points", "coords": LONG[:900] + ["1/0"] + LONG[901:]},
      "cx": CX},
     "bad900.json.coords[900]"),
    # a bad scalar is reported before "must be square"
    (["dist-gh", "badm.json", "cm.json"],
     {"badm": {"kind": "matrix", "dist": [["0", "1/0"], ["1"]]}, "cm": CM},
     "badm.json.dist[0][1]"),
], ids=["bad900", "badm"])
def test_a_bad_scalar_exits_2_naming_its_field(argv, docs, field, run):
    assert run(argv, **docs) == (
        2, "", f"error: {field}: not a rational: '1/0' (Fraction(1, 0))\n")


def test_module_entry_point_exits_with_the_status_of_main(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def netline_cli(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "netline.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, encoding="utf-8", timeout=120)

    done = netline_cli("verify", "all", "--seed", "0", "--cases", "2")
    assert done.returncode == 0, done.stderr
    golden = (ROOT / "tests" / "golden" / "verify-all.out").read_text(encoding="utf-8")
    headers = [line for line in golden.splitlines() if line.startswith("suite: ")]
    assert len(headers) == 9
    assert [line for line in done.stdout.splitlines()
            if line.startswith("suite: ")] == headers
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "points", "coords": [0.5]}\n', encoding="utf-8")
    done = netline_cli("dist-h", "bad.json", "bad.json")
    assert done.returncode == 2
    assert done.stderr.startswith("error: bad.json.coords[0]: ")
    assert done.stdout == ""


def test_public_names_are_the_sorted_non_module_imports():
    names = netline.__all__
    assert len(names) == 55 and names == sorted(names)
    values = [getattr(netline, name) for name in names]
    assert not any(isinstance(value, ModuleType) for value in values)
    namespace: dict = {}
    exec("from netline import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == names
