"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything asserts
exact equality or exact inequalities; there are no tolerances anywhere.
Criterion 1 sweeps every pair of point sets with sizes <= 4 drawn from
integer coordinates {0..5} and compares the solver against an independent
vectorized full-mask enumeration.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F
from itertools import combinations

import numpy as np

from netline import (
    FiniteMetricSpace,
    GeneratorConfig,
    PointSet,
    Window,
    contract,
    diam,
    geometric_progression_experiment,
    gh_exact,
    gh_to_point,
    homothety_experiment,
    scale_space,
    verify_construction_bounds,
    verify_continuity,
    verify_order_lemmas,
    verify_stability,
    verify_ultrametric_gh,
    verify_ultrametric_hausdorff,
)
from netline.cli import main
from netline.harness import random_metric_space, random_point_set

SEED = 2026


def line(coords) -> FiniteMetricSpace:
    return FiniteMetricSpace.from_line(PointSet.of(coords))


def oracle_min_distortion(xs: tuple[int, ...], ys: tuple[int, ...]) -> F:
    """Full-mask enumeration over subsets of X x Y, surjectivity-filtered.

    Integer coordinates keep everything in exact int16 arithmetic; masks are
    processed in chunks to bound memory.
    """
    n, m = len(xs), len(ys)
    nm = n * m
    table = np.empty((nm, nm), dtype=np.int16)
    for k in range(nm):
        i, j = divmod(k, m)
        for l in range(nm):
            i2, j2 = divmod(l, m)
            table[k, l] = abs(abs(xs[i] - xs[i2]) - abs(ys[j] - ys[j2]))
    row_id = np.arange(nm) // m
    col_id = np.arange(nm) % m
    best: int | None = None
    chunk = 1 << 14
    for start in range(1, 1 << nm, chunk):
        masks = np.arange(start, min(start + chunk, 1 << nm), dtype=np.uint32)
        bits = ((masks[:, None] >> np.arange(nm)[None, :]) & 1).astype(bool)
        ok = np.ones(len(masks), dtype=bool)
        for r in range(n):
            ok &= bits[:, row_id == r].any(axis=1)
        for c in range(m):
            ok &= bits[:, col_id == c].any(axis=1)
        bits = bits[ok]
        if not len(bits):
            continue
        pair_on = bits[:, :, None] & bits[:, None, :]
        dis = np.where(pair_on, table[None, :, :], -1).max(axis=(1, 2))
        low = int(dis.min())
        if best is None or low < best:
            best = low
    assert best is not None
    return F(best)


def test_criterion_1_solver_oracle_equivalence():
    universe = range(6)
    point_sets = [
        tuple(sorted(c))
        for size in (1, 2, 3, 4)
        for c in combinations(universe, size)
    ]
    assert len(point_sets) == 56
    spaces = {pts: line(pts) for pts in point_sets}
    pairs_checked = 0
    for a, b in combinations(point_sets, 2):
        expected = oracle_min_distortion(a, b) / 2
        assert gh_exact(spaces[a], spaces[b]).exact == expected, (a, b)
        pairs_checked += 1
    for a in point_sets:
        assert gh_exact(spaces[a], spaces[a]).exact == 0
        pairs_checked += 1
    print(
        f"\nACCEPTANCE 1 PASS: gh_exact equals the full-mask oracle on all "
        f"{pairs_checked} pairs (sizes <= 4, coordinates 0..5), exactly"
    )


def test_criterion_2_concrete_exact_values():
    assert gh_exact(line([0, 1]), line([0, 2])).exact == F(1, 2)
    assert gh_exact(line([0, 1]), line([0, 3])).exact == 1
    assert 2 * gh_exact(line([3, 9]), line([6, 18])).exact == 6
    rng = random.Random(SEED)
    cfg = GeneratorConfig(seed=SEED)
    point = FiniteMetricSpace.singleton()
    for _ in range(100):
        x = random_metric_space(rng, cfg, max_points=4)
        assert gh_exact(x, point).exact == gh_to_point(x) == diam(x) / 2
    print(
        "\nACCEPTANCE 2 PASS: d_GH({0,1},{0,2}) = 1/2, d_GH({0,1},{0,3}) = 1, "
        "2 d_GH({3,9},{6,18}) = 6, and d_GH(X, point) = diam/2 on 100 random X"
    )


def test_criterion_3_geodesic_property():
    rng = random.Random(SEED + 1)
    cfg = GeneratorConfig(seed=SEED)
    for _ in range(100):
        x = random_metric_space(rng, cfg, max_points=4)
        l1 = F(rng.randint(0, 24), 8)  # rationals in [0, 3]
        l2 = F(rng.randint(0, 24), 8)
        got = gh_exact(scale_space(x, l1), scale_space(x, l2)).exact
        assert got == abs(l1 - l2) * diam(x) / 2
    print(
        "\nACCEPTANCE 3 PASS: gh_exact(l1 X, l2 X) = |l1 - l2| diam(X)/2 on "
        "100 random (X, l1, l2), exactly"
    )


def test_criterion_4_ultrametric_suites():
    cfg = GeneratorConfig(seed=SEED)
    hausdorff_rep = verify_ultrametric_hausdorff(cfg, cases=10_000)
    assert hausdorff_rep.passed, hausdorff_rep.render()
    gh_rep = verify_ultrametric_gh(cfg, cases=1_000)
    assert gh_rep.passed, gh_rep.render()
    print(
        "\nACCEPTANCE 4 PASS: ultrametric inequalities, zero failures over "
        "10000 Hausdorff cases and 1000 solver-backed cases"
    )


def test_criterion_5_homotopy_certificates():
    cfg = GeneratorConfig(seed=SEED)
    cont = verify_continuity(cfg, cases=10_000)
    assert cont.passed, cont.render()
    stab = verify_stability(cfg, cases=10_000)
    assert stab.passed, stab.render()
    rng = random.Random(SEED + 2)
    w = cfg.window
    for _ in range(200):
        x = random_point_set(rng, cfg)
        assert contract(x, 0, w) == x.to_intervals()
        assert contract(x, 1, w) == w.span()
    print(
        "\nACCEPTANCE 5 PASS: continuity and stability certificates, zero "
        "failures over 10000 cases each; endpoint identities exact"
    )


def test_criterion_6_construction_bounds():
    cfg = GeneratorConfig(seed=SEED)
    rep = verify_construction_bounds(cfg, cases=500)
    assert rep.passed, rep.render()
    ratio_line = next(r for r in rep.records if "slack halving ratio" in r)
    avg = F(ratio_line.split(":")[1].strip())
    assert F(2, 5) <= avg <= F(3, 5)
    print(
        "\nACCEPTANCE 6 PASS: segment and extension certificates within "
        f"bound + slack on 500 instances; slack halving ratio {avg}"
    )


def test_criterion_7_order_lemmas():
    cfg = GeneratorConfig(seed=SEED)
    rep = verify_order_lemmas(cfg, cases=1_000)
    assert rep.passed, rep.render()
    refusals_line = next(r for r in rep.records if "gate refusals" in r)
    refusals = int(refusals_line.split(":")[1])
    assert refusals == 250  # exactly the constructed out-of-hypothesis cases
    print(
        "\nACCEPTANCE 7 PASS: order lemmas, zero failures over 1000 cases; "
        "the hypothesis gate refused exactly the 250 out-of-hypothesis twins"
    )


def test_criterion_8_infinite_space_trends():
    table = homothety_experiment(F(3, 2), range(2, 9))
    lows = [r.lower_double for r in table.rows]
    assert all(a <= b for a, b in zip(lows, lows[1:])), lows
    geom = geometric_progression_experiment(4, 2)
    assert geom.rows[1].exact_double == 6  # d_GH = 3 at k = 2
    increasing = [r.lower_double for r in geom.rows[1:]]
    assert all(a < b for a, b in zip(increasing, increasing[1:])), increasing
    print(
        "\nACCEPTANCE 8 PASS: homothety lower bounds nondecreasing for "
        "N = 2..8; progression bounds strictly increase for k = 2, 3, 4 "
        "with exact 2 d_GH = 6 at k = 2"
    )


def test_criterion_9_determinism(tmp_path, capsys):
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    x.write_text(json.dumps({"kind": "points", "coords": ["0", "1", "5"]}),
                 encoding="utf-8")
    y.write_text(json.dumps({"kind": "points", "coords": ["0", "2", "7"]}),
                 encoding="utf-8")
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"kind": "window", "lo": "0", "hi": "8"}),
                 encoding="utf-8")

    runs = []
    for _ in range(2):
        main(["dist-gh", str(x), str(y)])
        main(["dist-h", str(x), str(y)])
        main(["trace", str(x), "--window", str(w), "--grid", "0,1/2,1"])
        main(["verify", "order-lemmas", "--seed", "11", "--cases", "50"])
        main(["experiment", "geometric", "--factor", "2", "--k", "3"])
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]

    cfg = GeneratorConfig(seed=SEED)
    r1 = verify_ultrametric_hausdorff(cfg, cases=500).render()
    r2 = verify_ultrametric_hausdorff(cfg, cases=500).render()
    assert r1 == r2
    print(
        "\nACCEPTANCE 9 PASS: identical command lines and seeds reproduce "
        "byte-identical outputs and reports"
    )
