"""Seeded input generation for the three benchmark workloads.

Every workload is a list of operations, each one `netline` command line plus
what the oracle needs to check its answer.  Inputs are written as JSON
documents before timing starts; the program sees only those documents and
the command line.  The same seed always gives the same documents.

Sizes are not drawn at random: each operation type takes one size from
each of its log-spaced strata, and pairs are matched by a fixed
permutation, so two seeds differ in coordinates, radii and metrics but
carry the same mix of small and large work.  Operations are ordered by the
van der Corput sequence over their stratum index, so any prefix of a pass
holds small and large sizes in the same proportion as the whole pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("hausdorff-sweep", "gh-solve", "certify-suites")

# hausdorff-sweep: operation counts per pass and the size range
POINT_PAIRS = 52
INTERVAL_PAIRS = 50
TRACES = 4
SIZE_LO, SIZE_HI = 10, 300
MAX_DENOMINATOR = 64
LAMBDA_GRID = ",".join(str(Fraction(k, 16)) for k in range(17))

# gh-solve: every (|X|, |Y|) cell of 8..16 points on {0..39}, BB_REPS times,
# searched with a node budget of BB_BUDGET; plus exhaustive calls on every
# (|X|, |Y|) with 1..5 points, for each pairing of band metric and line
BB_SIZES = range(8, 17)
BB_REPS = 5
BB_BUDGET = 1000
# the bound-quality set: branch_bound_ops under this fixed seed, with
# BB_QUALITY_REPS instances per size cell, on every run
BB_QUALITY_SEED = 0
BB_QUALITY_REPS = 2
EXACT_SIZES = range(1, 6)
EXACT_KINDS = (("band", "band"), ("line", "line"), ("band", "line"))

# certify-suites: every suite at its default case count divided by 32,
# CERTIFY_ROUNDS times per pass, each time under a fresh suite seed
SUITE_CASES = {
    "ultrametric-h": 312,
    "ultrametric-gh": 31,
    "bounded-cloud": 31,
    "continuity": 312,
    "stability": 312,
    "order-lemmas": 31,
    "construction-bounds": 15,
    "lambda-hits": 312,
}
CERTIFY_ROUNDS = 13

# the smoke scale shrinks every count and size so a self-test runs in seconds
TINY = {
    "pairs": 4, "traces": 2, "size_hi": 30, "bb_sizes": range(8, 10),
    "bb_reps": 1, "exact_sizes": range(1, 4), "rounds": 1, "case_div": 32,
}


@dataclass
class Op:
    """One command line and the facts its answer is checked against."""

    kind: str
    argv: list[str]
    check: dict = field(default_factory=dict)


def _vdc(i: int) -> float:
    """Base-2 van der Corput radical inverse of i."""
    x, f = 0.0, 0.5
    while i:
        if i & 1:
            x += f
        i >>= 1
        f /= 2
    return x


def _interleave(groups: list[list[Op]]) -> list[Op]:
    keyed = [
        (_vdc(i), g, i, op)
        for g, group in enumerate(groups)
        for i, op in enumerate(group)
    ]
    keyed.sort(key=lambda t: t[:3])
    return [t[3] for t in keyed]


def _strata(k: int, lo: int, hi: int) -> list[int]:
    """k sizes spread log-uniformly over [lo, hi], one per log-spaced stratum."""
    ratio = hi / lo
    return [round(lo * ratio ** ((i + 0.5) / k)) for i in range(k)]


def _coords(rng: random.Random, n: int, span: int) -> list[Fraction]:
    """n distinct rationals in [0, span] with denominators at most 64."""
    pts: set[Fraction] = set()
    while len(pts) < n:
        q = rng.randint(1, MAX_DENOMINATOR)
        pts.add(Fraction(rng.randint(0, span * q), q))
    return sorted(pts)


def _merge(spans: list[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    merged: list[tuple[Fraction, Fraction]] = []
    for a, b in sorted(spans):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def points_doc(coords) -> dict:
    return {"kind": "points", "coords": [str(c) for c in coords]}


def intervals_doc(spans) -> dict:
    return {"kind": "intervals", "intervals": [[str(a), str(b)] for a, b in spans]}


def matrix_doc(rows) -> dict:
    return {"kind": "matrix", "dist": [[str(v) for v in row] for row in rows]}


class DocWriter:
    """Writes input documents under one directory and remembers them."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.paths: list[str] = []
        root.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, doc: dict) -> str:
        path = self.root / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        self.paths.append(str(path))
        return str(path)


def hausdorff_sweep(seed: int, docs: DocWriter, tiny: bool = False) -> list[Op]:
    rng = random.Random(f"hausdorff-sweep:{seed}")
    pairs = TINY["pairs"] if tiny else POINT_PAIRS
    ipairs = TINY["pairs"] if tiny else INTERVAL_PAIRS
    traces = TINY["traces"] if tiny else TRACES
    hi = TINY["size_hi"] if tiny else SIZE_HI

    def sized_pairs(k: int) -> list[tuple[int, int]]:
        # a fixed pairing, so every seed carries the same n * m work
        left, right = _strata(k, SIZE_LO, hi), _strata(k, SIZE_LO, hi)
        random.Random(k).shuffle(right)
        return list(zip(left, right))

    point_ops = []
    for i, (n, m) in enumerate(sized_pairs(pairs)):
        span = max(n, m)
        a, b = _coords(rng, n, span), _coords(rng, m, span)
        argv = ["dist-h", docs.write(f"pa{i}", points_doc(a)),
                docs.write(f"pb{i}", points_doc(b))]
        point_ops.append(Op("dist-h", argv, {"a": [(p, p) for p in a],
                                             "b": [(p, p) for p in b]}))

    interval_ops = []
    for i, (n, m) in enumerate(sized_pairs(ipairs)):
        span = max(n, m)
        sides = []
        for j, size in enumerate((n, m)):
            # radii from 1/64 to 1/4 in a fixed cycle, like the sizes
            r = Fraction(1 + (5 * (2 * i + j)) % 16, MAX_DENOMINATOR)
            sides.append(_merge([(p - r, p + r) for p in _coords(rng, size, span)]))
        argv = ["dist-h", docs.write(f"ia{i}", intervals_doc(sides[0])),
                docs.write(f"ib{i}", intervals_doc(sides[1]))]
        interval_ops.append(Op("dist-h", argv, {"a": sides[0], "b": sides[1]}))

    trace_ops = []
    for i, n in enumerate(_strata(traces, SIZE_LO, hi)):
        x = _coords(rng, n, n)
        window = {"kind": "window", "lo": "0", "hi": str(n)}
        argv = ["trace", docs.write(f"tx{i}", points_doc(x)),
                "--window", docs.write(f"tw{i}", window), "--grid", LAMBDA_GRID]
        trace_ops.append(Op("trace", argv, {"x": x, "lo": Fraction(0),
                                            "hi": Fraction(n), "grid": LAMBDA_GRID}))
    return _interleave([point_ops, interval_ops, trace_ops])


def _band(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Distances all within a 2:1 range, so the triangle inequality holds."""
    q = rng.randint(1, MAX_DENOMINATOR)
    scale = Fraction(rng.randint(4, 24), 8)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = scale * Fraction(q + rng.randint(0, q), q)
    return rows


def _line_rows(coords: list[Fraction]) -> list[list[Fraction]]:
    return [[abs(p - q) for q in coords] for p in coords]


def branch_bound_ops(seed: int, docs: DocWriter, tiny: bool = False,
                     reps: int = BB_REPS) -> list[Op]:
    """The budgeted branch-and-bound instances of gh-solve; under
    BB_QUALITY_SEED and BB_QUALITY_REPS, the bound-quality set."""
    rng = random.Random(f"branch-bound:{seed}")
    sizes = TINY["bb_sizes"] if tiny else BB_SIZES
    reps = TINY["bb_reps"] if tiny else reps
    ops = []
    for n in sizes:
        for m in sizes:
            for _ in range(reps):
                k = len(ops)
                x = [Fraction(v) for v in sorted(rng.sample(range(40), n))]
                y = [Fraction(v) for v in sorted(rng.sample(range(40), m))]
                argv = ["dist-gh", docs.write(f"bx{k}", points_doc(x)),
                        docs.write(f"by{k}", points_doc(y)),
                        "--method", "branch-bound", "--budget", str(BB_BUDGET),
                        "--certificate", str(docs.root / f"cert{k}.json")]
                ops.append(Op("dist-gh-bb", argv, {
                    "x": x, "y": y, "budget": BB_BUDGET,
                    "certificate": argv[-1],
                }))
    return ops


def gh_solve(seed: int, docs: DocWriter, tiny: bool = False) -> list[Op]:
    rng = random.Random(f"gh-exact:{seed}")
    sizes = TINY["exact_sizes"] if tiny else EXACT_SIZES
    exact_ops = []
    for n in sizes:
        for m in sizes:
            for kinds in EXACT_KINDS:
                k = len(exact_ops)
                spaces = []
                for kind, size in zip(kinds, (n, m)):
                    if kind == "band":
                        rows = _band(rng, size)
                        doc = matrix_doc(rows)
                    else:
                        coords = _coords(rng, size, 10)
                        rows, doc = _line_rows(coords), points_doc(coords)
                    spaces.append((rows, doc))
                argv = ["dist-gh", docs.write(f"ex{k}", spaces[0][1]),
                        docs.write(f"ey{k}", spaces[1][1]), "--method", "exact"]
                exact_ops.append(Op("dist-gh-exact", argv, {
                    "x": spaces[0][0], "y": spaces[1][0],
                    "xdoc": spaces[0][1], "ydoc": spaces[1][1],
                }))
    return _interleave([branch_bound_ops(seed, docs, tiny), exact_ops])


def certify_suites(seed: int, docs: DocWriter, tiny: bool = False) -> list[Op]:
    rng = random.Random(f"certify-suites:{seed}")
    rounds = TINY["rounds"] if tiny else CERTIFY_ROUNDS
    ops = []
    for _ in range(rounds):
        for suite, cases in SUITE_CASES.items():
            if tiny:
                cases = max(1, cases // TINY["case_div"])
            suite_seed = rng.randrange(2**31)
            argv = ["verify", suite, "--seed", str(suite_seed),
                    "--cases", str(cases)]
            ops.append(Op("verify", argv, {"seed": suite_seed, "cases": cases}))
    return ops


GENERATORS = {
    "hausdorff-sweep": hausdorff_sweep,
    "gh-solve": gh_solve,
    "certify-suites": certify_suites,
}
