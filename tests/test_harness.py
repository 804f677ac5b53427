"""Suites: determinism, zero failures at reduced budgets, shrinking, trends."""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest

from netline import (
    Correspondence,
    GeneratorConfig,
    PointSet,
    Window,
    geometric_progression_experiment,
    gh_branch_bound,
    gh_exact,
    homothety_experiment,
    lambda_bound_counterexample_search,
    verify_bounded_cloud,
    verify_construction_bounds,
    verify_continuity,
    verify_gh_bounds,
    verify_order_lemmas,
    verify_stability,
    verify_ultrametric_gh,
    verify_ultrametric_hausdorff,
)
from netline import harness
from netline.correspondence import FiniteMetricSpace
from netline.errors import InvariantError
from netline.formats import parse_metric_space, parse_scalar, parse_space
from netline.harness import Tally, shrink_instance


def test_reports_are_byte_deterministic():
    cfg = GeneratorConfig(seed=5)
    a = verify_ultrametric_hausdorff(cfg, cases=300).render()
    b = verify_ultrametric_hausdorff(cfg, cases=300).render()
    assert a == b
    c = verify_ultrametric_hausdorff(GeneratorConfig(seed=6), cases=300)
    assert c.render() != a  # seed is part of the report


def test_theorem_suites_pass_at_reduced_budgets():
    cfg = GeneratorConfig(seed=1)
    assert verify_ultrametric_hausdorff(cfg, cases=800).passed
    assert verify_ultrametric_gh(cfg, cases=150).passed
    assert verify_bounded_cloud(cfg, cases=150).passed
    assert verify_continuity(cfg, cases=500).passed
    assert verify_stability(cfg, cases=500).passed
    assert verify_order_lemmas(cfg, cases=150).passed
    assert verify_construction_bounds(cfg, cases=40).passed


def test_report_renders_failures_with_instances():
    cfg = GeneratorConfig(seed=2)
    rep = verify_ultrametric_hausdorff(cfg, cases=50)
    text = rep.render()
    assert "suite: ultrametric-hausdorff" in text
    assert "failures: 0" in text
    assert "exact: yes" in text


def test_gh_bounds_suite_passes_and_serialises_failures(monkeypatch):
    cfg = GeneratorConfig(seed=4)
    rep = verify_gh_bounds(cfg, cases=150)
    assert rep.passed
    assert rep.records[0].startswith("lower bound tight: ")
    # an overshooting lower bound must surface with a replayable instance
    real = harness.gh_lower_bound
    monkeypatch.setattr(harness, "gh_lower_bound", lambda x, y: real(x, y) + 1)
    rep = verify_gh_bounds(cfg, cases=20)
    assert len(rep.failures) == 20
    doc = json.loads(rep.failures[0].instance)
    assert doc.keys() == {"check", "x", "y"} and doc["check"] == "check_gh_bounds"
    assert "refinement bound" in rep.failures[0].detail


def test_gh_bounds_refuses_a_staircase_above_five_quarters(monkeypatch):
    # on X = Y = {0, 10} d_GH is 0, and the full relation has distortion
    # 10: its true value 5 is above d_GH, so only the 5/4 check refuses it
    x = FiniteMetricSpace.from_line(PointSet.of([0, 10]))
    full = Correspondence.of([(i, j) for i in range(2) for j in range(2)], 2, 2)
    monkeypatch.setattr(harness, "staircase_bound", lambda x, y: (F(5), full))
    tally = Tally()
    assert harness._check_gh_bounds(tally, x, x) == (
        "staircase bound 5 exceeds 5/4 of d_GH 0")
    assert tally["line pairs"] == 1


def test_shrinking_reaches_a_minimal_culprit():
    a = PointSet.of([0, 3, 7, 9])
    b = PointSet.of([1, 2, 8])
    m = FiniteMetricSpace.from_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])

    def fails(tally, a, b, m, lam):
        return f"7 is in a, {len(b)} in b" if F(7) in a.points else None

    inst, detail = shrink_instance(fails, {"a": a, "b": b, "m": m, "lam": F(1, 2)}, "")
    assert inst["a"].points == (F(7),)
    assert len(inst["b"]) == 1
    assert inst["m"].n == 1 and inst["lam"] == F(1, 2)
    assert detail == "7 is in a, 1 in b"


def test_shrinker_skips_rejected_candidates_and_keeps_invariant_errors():
    a = PointSet.of([0, 1, 2])

    def rejects(tally, a):
        if len(a) < 3:
            raise ValueError("needs three points")
        return "boom"

    assert shrink_instance(rejects, {"a": a}, "boom") == ({"a": a}, "boom")

    def breaks(tally, a):
        if len(a) < 3:
            raise InvariantError("lower bound exceeds upper bound")
        return "boom"

    with pytest.raises(InvariantError):
        shrink_instance(breaks, {"a": a}, "boom")


def _scaled(fn, *factors):
    """``fn`` with each of its int results multiplied by its factor."""
    def faulty(*args):
        return tuple(v * f for v, f in zip(fn(*args), factors))
    return faulty


def _shifted_staircase(fn):
    def faulty(x, y):
        high, corr = fn(x, y)
        return high + 1, corr
    return faulty


def _loose_extension(fn):
    def faulty(*args):
        return fn(*args)._replace(bound=F(-1))
    return faulty


# suite: (harness dependency, fault, the suite's checks)
FAULTS = {
    # the int kernels' faults keep the value of the Fraction faults they
    # replace: (v, 2·s) halves a radius, (2·d, b, 2·s) halves a bound
    "ultrametric-h": ("_covering", lambda fn: _scaled(fn, 1, 2),
                      [harness._check_ultrametric_h]),
    "ultrametric-gh": ("hausdorff", lambda fn: lambda a, b: F(0),
                       [harness._check_ultrametric_gh]),
    "bounded-cloud": ("diam", lambda fn: lambda x: fn(x) / 4,
                      [harness._check_bounded_cloud]),
    "gh-bounds": ("staircase_bound", _shifted_staircase, [harness._check_gh_bounds]),
    "continuity": ("_continuity", lambda fn: _scaled(fn, 2, 1, 2),
                   [harness._check_continuity]),
    "stability": ("_stability", lambda fn: _scaled(fn, 2, 1, 1),
                  [harness._check_stability]),
    "order-lemmas": ("order_violation_bound",
                     lambda fn: lambda r, x, y: replace(fn(r, x, y), status="fail"),
                     [harness._check_betweenness, harness._check_refusal,
                      harness._check_inverted_gap]),
    "construction-bounds": ("extend_correspondence", _loose_extension,
                            [harness._check_segment, harness._check_extension]),
    "lambda-hits": ("_continuity",
                    lambda fn: lambda x, l1, l2, w: (2, 1, 1),
                    [harness._check_lambda_hits]),
}


# checks whose point documents are line metric spaces, not point sets
METRIC_CHECKS = {harness._check_bounded_cloud, harness._check_gh_bounds}


def _parse_instance(doc: dict, metric: bool) -> dict:
    parsed = {}
    for key, val in doc.items():
        if isinstance(val, dict) and val["kind"] != "window" and metric:
            parsed[key] = parse_metric_space(val, key)
        elif isinstance(val, dict):
            parsed[key] = parse_space(val, key)
        elif isinstance(val, str):
            parsed[key] = parse_scalar(val, key)
        else:
            parsed[key] = val
    return parsed


def _one_point_short(value):
    """Every copy of a point set or metric space with one point removed."""
    if isinstance(value, PointSet) and len(value) > 1:
        return [PointSet(value.points[:k] + value.points[k + 1:])
                for k in range(len(value))]
    if isinstance(value, FiniteMetricSpace) and value.line_coords is not None:
        return [FiniteMetricSpace.from_line(p)
                for p in _one_point_short(value.line_coords)]
    if isinstance(value, FiniteMetricSpace) and value.n > 1:
        keep = [[j for j in range(value.n) if j != k] for k in range(value.n)]
        return [FiniteMetricSpace.from_matrix(
                    [[value.dist[i][j] for j in ks] for i in ks]) for ks in keep]
    return []


def _fails(check, instance) -> bool:
    try:
        return check(Tally(), **instance) is not None
    except InvariantError:
        raise
    except ValueError:
        return False


@pytest.mark.parametrize("name", list(FAULTS))
def test_injected_faults_give_shrunk_replayable_failures(name, monkeypatch):
    attr, make_fault, checks = FAULTS[name]
    monkeypatch.setattr(harness, attr, make_fault(getattr(harness, attr)))
    verify, _, _ = harness.SUITES[name]
    cases = 12
    rep = verify(GeneratorConfig(seed=1), cases=cases)
    assert rep.failures
    for failure in rep.failures:
        doc = json.loads(failure.instance)
        check = getattr(harness, "_" + doc.pop("check"))
        assert check in checks
        instance = _parse_instance(doc, check in METRIC_CHECKS)
        assert check(Tally(), **instance) == failure.detail
        for key, value in instance.items():
            for smaller in _one_point_short(value):
                assert not _fails(check, {**instance, key: smaller}), (key, failure)
    # shrink re-runs count into throwaway tallies, never into the records
    for record in rep.records:
        counted = re.match(r"[a-z -]+: (\d+)", record)
        if counted:
            assert int(counted.group(1)) <= cases, record
    if name == "construction-bounds":
        assert "average slack halving ratio: 1/2" in rep.records
    if name == "lambda-hits":
        assert f"certificate violations: {len(rep.failures)}" in rep.records


def test_lambda_search_records_hits_not_failures():
    cfg = GeneratorConfig(seed=3)
    rep = lambda_bound_counterexample_search(cfg, cases=400)
    assert rep.passed  # the certificate itself never breaks
    hits_line = next(r for r in rep.records if r.startswith("naive-bound hits"))
    hits = int(hits_line.split(":")[1].split("/")[0])
    assert hits > 0  # the stronger naive bound really does fail


def test_lambda_search_counts_certificate_violations(monkeypatch):
    # a step above its own certificate is a failure, and the record says so
    monkeypatch.setattr(harness, "_continuity", lambda x, l1, l2, w: (2, 1, 1))
    rep = lambda_bound_counterexample_search(GeneratorConfig(seed=0), cases=3)
    assert len(rep.failures) == 3
    assert "certificate violations: 3" in rep.records


def _fraction_decision(draw, instance, seen):
    """(failure detail, hit) of a check as Fraction comparisons of the
    kernels' results ``seen``, each a list of values over its own scale."""
    if draw is harness._draw_ultrametric_h:
        [dh], [ra], [rb] = seen
        return (f"d_H = {dh} exceeds both covering radii"
                if dh > max(ra, rb) else None), False
    [[d, bound]] = seen
    if draw is harness._draw_stability:
        return (f"deformed distance {d} exceeds input distance {bound}"
                if d > bound else None), False
    if draw is harness._draw_continuity:
        return (f"step {d} exceeds certificate {bound}" if d > bound else None), False
    return (f"certificate {bound} violated by step {d}" if d > bound else None,
            d > abs(instance["lam1"] - instance["lam2"]))


@pytest.mark.parametrize("draw", [harness._draw_ultrametric_h, harness._draw_continuity,
                                  harness._draw_stability, harness._draw_lambda_hits])
def test_int_checks_decide_like_fraction_comparisons(draw, monkeypatch):
    # each kernel result is stretched by small random factors, value and
    # scale apart, so the two sides of a comparison come out either way, and
    # equal, over scales that differ
    rng, seen = random.Random(11), []

    def stretched(fn):
        def faulty(*args):
            *values, scale = fn(*args)
            values = [v * (1 + rng.randrange(3)) for v in values]
            scale *= 1 + rng.randrange(3)
            seen.append([F(v, scale) for v in values])
            return (*values, scale)
        return faulty

    for name in ("_hausdorff", "_covering", "_continuity", "_stability"):
        monkeypatch.setattr(harness, name, stretched(getattr(harness, name)))
    cfg, draws, outcomes = GeneratorConfig(seed=2), random.Random(2), Counter()
    for index in range(300):
        [(check, instance)] = draw(draws, cfg, index)
        tally = Tally()
        seen.clear()
        detail = check(tally, **instance)
        expected, hit = _fraction_decision(draw, instance, seen)
        assert (detail, tally["hits"]) == (expected, hit), instance
        outcomes[detail is None, hit] += 1
    assert outcomes[False, False] + outcomes[False, True] > 0  # both ways
    assert outcomes[True, False] + outcomes[True, True] > 0


def test_int_checks_at_equality_neither_fail_nor_hit():
    w = Window(F(0), F(10))
    # d_H = 10 equals both covering radii
    assert harness._check_ultrametric_h(Tally(), PointSet.of([0]), PointSet.of([10]), w) is None
    # {5} and [4, 6]: the step 1 equals its certificate f(1/2) - f(0)
    step_at_bound = {"x": PointSet.of([5]), "lam1": F(0), "lam2": F(1, 2), "window": w}
    assert harness._check_continuity(Tally(), **step_at_bound) is None
    # {0} and {1} stay 1 apart at lam = 0
    assert harness._check_stability(
        Tally(), PointSet.of([0]), PointSet.of([1]), F(0), w) is None
    tally = Tally()
    assert harness._check_lambda_hits(tally, **step_at_bound) is None
    assert tally["hits"] == 1 and not tally["violations"]
    # {0, 1} against [0, 1]: the step 1/2 equals |lam1 - lam2|, no hit
    tally = Tally()
    assert harness._check_lambda_hits(tally, PointSet.of([0, 1]), F(0), F(1, 2),
                                      Window(F(0), F(1))) is None
    assert not tally["hits"] and not tally["violations"]


def test_homothety_experiment_examples():
    # N = 1 with doubling: {0,1} vs {0,2} has 2 d_GH exactly 1
    table = homothety_experiment(2, [1])
    assert table.rows[0].exact_double == 1
    # lam = 1 is allowed and gives isometric pairs
    flat = homothety_experiment(1, [1, 2, 3])
    assert all(r.exact_double == 0 for r in flat.rows)
    with pytest.raises(ValueError):
        homothety_experiment(F(1, 2), [1])


def test_homothety_lower_bounds_nondecreasing():
    table = homothety_experiment(F(3, 2), range(2, 9))
    lows = [r.lower_double for r in table.rows]
    assert all(a <= b for a, b in zip(lows, lows[1:]))


def test_geometric_progression_examples():
    table = geometric_progression_experiment(4, 2)
    rows = table.rows
    assert rows[0].exact_double == 0  # singletons are isometric
    assert rows[1].exact_double == 6  # {3,9} vs {6,18}
    lows = [r.lower_double for r in rows[1:]]
    assert all(a < b for a, b in zip(lows, lows[1:]))


def test_geometric_progression_searches_above_the_exhaustive_limit(monkeypatch):
    # k = 6 is a 6 x 6 pair, 36 cells: its row comes from branch and bound
    searched = []

    def counted(x, y, budget):
        searched.append((x.n, y.n, budget))
        return gh_branch_bound(x, y, budget=budget)

    monkeypatch.setattr(harness, "gh_branch_bound", counted)
    table = geometric_progression_experiment(6, 2)
    assert searched == [(6, 6, 200_000)]
    x = FiniteMetricSpace.from_line(PointSet.of(3 ** i for i in range(1, 7)))
    y = FiniteMetricSpace.from_line(PointSet.of(2 * 3 ** i for i in range(1, 7)))
    exact = 2 * gh_exact(x, y, limit=36).exact
    row = table.rows[5]
    assert (row.label, row.lower_double, row.upper_double, row.exact_double) == (
        "k=6", exact, exact, exact)
    assert table.params == (("factor", 2), ("budget", 200_000))


def test_experiment_render_is_deterministic():
    t1 = geometric_progression_experiment(3, 2).render()
    t2 = geometric_progression_experiment(3, 2).render()
    assert t1 == t2
    assert t1.startswith("experiment: geometric-progression")


def reference_point_set(rng, window, min_points=1, max_points=6):
    """The generator's draws, with ceil and floor taken on Fractions."""
    k = rng.randint(min_points, max_points)
    accepted = []
    attempts = 0
    while len(accepted) < k and attempts < 64 * k:
        attempts += 1
        q = rng.randint(1, harness.DENOMINATOR_BOUND)
        c = F(rng.randint(math.ceil(window.lo * q), math.floor(window.hi * q)), q)
        if c not in accepted:
            accepted.append(c)
    return PointSet(tuple(sorted(accepted)))


@pytest.mark.parametrize(
    "lo,hi",
    [(F(-7, 3), F(5, 2)), (F(-10), F(-1, 3)), (F(0), F(10)), (F(1, 3), F(29, 4))],
)
def test_generator_draws_match_ceil_floor_reference(lo, hi):
    cfg = GeneratorConfig(window=Window(lo, hi))
    ours, ref = random.Random(5), random.Random(5)
    for _ in range(300):
        drawn = harness.random_point_set(ours, cfg)
        expected = reference_point_set(ref, cfg.window)
        assert drawn == expected
        assert drawn.points == expected.points
        assert hash(drawn) == hash(expected)
    assert ours.random() == ref.random()


def test_below_matches_randrange():
    # the same bits give the same value: n = 1 still draws, and n just past
    # a power of two redraws most often
    for seed in range(3):
        ours, ref = random.Random(seed), random.Random(seed)
        for n in range(1, 71):
            for _ in range(20):
                assert harness._below(ours, n) == ref.randrange(n)
        assert ours.random() == ref.random()
    with pytest.raises(ValueError):
        harness._below(random.Random(0), 0)


@pytest.mark.parametrize("seed", [0, 5, 104729])
def test_lambda_and_scalar_draws_match_randint_reference(seed):
    ours, ref = random.Random(seed), random.Random(seed)
    for k in range(300):
        qmax = 2 + k % 20
        q = ref.randint(2, qmax)
        assert harness.random_lambda(ours, qmax) == F(ref.randint(0, q - 1), q)
        lo = F(k % 7 - 3, 1 + k % 4)
        hi = lo + 1 + F(k % 5, 1 + k % 3)  # at least one unit: never empty
        q = ref.randint(1, qmax)
        expected = F(ref.randint(math.ceil(lo * q), math.floor(hi * q)), q)
        assert harness.random_scalar(ours, lo, hi, qmax) == expected
    assert ours.random() == ref.random()


def reference_order_lemmas_draw(rng, index):
    """`_draw_order_lemmas` as it drew in Fractions, frozen as the reference."""
    n = rng.randint(3, 6)
    spacing = F(rng.randint(2, 4), 2)
    jitter_den = rng.randint(1, 4)
    x = PointSet(tuple(
        k * spacing + F(rng.randrange(-jitter_den, jitter_den + 1), 16 * jitter_den)
        * spacing for k in range(n)))
    y = PointSet(tuple(p + F(rng.randrange(-2, 3), 64) * spacing for p in x.points))
    grid = PointSet(tuple(k * spacing for k in range(n)))
    return x, y, grid, spacing, rng.randint(0, n - 2), index % 5 != 0


@pytest.mark.parametrize("seed", [0, 3, 104729])
def test_order_lemmas_draws_match_fraction_reference(seed):
    ours, ref = random.Random(seed), random.Random(seed)
    cfg = GeneratorConfig(seed=seed)
    for index in range(300):
        items = harness._draw_order_lemmas(ours, cfg, index)
        x, y, grid, spacing, k, witness = reference_order_lemmas_draw(ref, index)
        assert items[0][1] == {"x": x, "y": y}
        assert (items[0][1]["x"].points, items[0][1]["y"].points) == (x.points, y.points)
        assert items[-1][1] == {"x": grid, "spacing": spacing, "k": k, "witness": witness}
        assert len(items) == 2 + (index % 4 == 0)
    assert ours.random() == ref.random()


def reference_construction_bounds_draw(rng):
    """`_draw_construction_bounds` as it drew with randint, choice and
    Fraction points, frozen as the reference: (segment, extension)."""
    def scalar(hi):
        q = rng.randint(1, 8)
        return F(rng.randint(0, math.floor(hi * q)), q)

    n = rng.randint(2, 3)
    spacing = F(rng.randint(2, 3), 4)
    jitter_den = rng.randint(1, 3)
    x = PointSet(tuple(
        k * spacing + F(rng.randrange(-jitter_den, jitter_den + 1), 16 * jitter_den)
        * spacing for k in range(n)))
    r1, r2 = scalar(F(3, 4)), scalar(F(3, 4))
    if rng.random() < 0.2:
        r1 = F(0)
    segment = {"x": x, "r1": r1, "r2": r2, "step": F(1, rng.choice((3, 4, 5)))}
    lam = F(rng.randint(2, 4), rng.randint(6, 8))
    if rng.random() < 0.3:  # a grid with one very close extra point
        n = rng.randint(3, 4)
        spacing = F(rng.randint(2, 3), 4)
        tiny = lam / rng.randint(40, 64)
        pts = [k * spacing for k in range(n)]
        k = rng.randint(0, n - 2)
        pts.insert(k + 1, pts[k] + tiny)
        extension = {"x": PointSet(tuple(pts)), "k": k}
    else:  # a grid and its perturbation
        n = rng.randint(3, 4)
        spacing = F(rng.randint(2, 4), 4)
        x = PointSet(tuple(k * spacing for k in range(n)))
        delta = lam / 64
        xn = PointSet(tuple(p + F(rng.randint(-16, 16), 16) * delta for p in x.points))
        extension = {"x": x, "xn": xn}
    extension.update(lam=lam, step=F(1, rng.choice((3, 4))))
    return segment, extension


@pytest.mark.parametrize("seed", [0, 3, 104729])
def test_construction_bounds_draws_match_fraction_reference(seed):
    ours, ref = random.Random(seed), random.Random(seed)
    cfg = GeneratorConfig(seed=seed)
    kinds = Counter()
    for index in range(300):
        (_, segment), (_, extension) = harness._draw_construction_bounds(ours, cfg, index)
        want_segment, want_extension = reference_construction_bounds_draw(ref)
        assert segment == want_segment and extension == want_extension
        for key in ("x", "xn"):
            if key in extension:
                assert extension[key].points == want_extension[key].points
        kinds["swap" if "k" in extension else "perturbed"] += 1
    assert ours.getstate() == ref.getstate()
    assert min(kinds.values()) > 50, kinds


def reference_random_metric_space(rng, cfg, max_points=4):
    """`random_metric_space` as it drew band matrices in Fractions, frozen."""
    n = rng.randrange(1, max_points + 1)
    if n == 1:
        return FiniteMetricSpace.singleton()
    if rng.random() < 0.5:
        return FiniteMetricSpace.from_line(
            harness.random_point_set(rng, cfg, min_points=n, max_points=n))
    q = rng.randrange(1, harness.DENOMINATOR_BOUND + 1)
    scale = harness.random_scalar(rng, F(1, 2), F(3), 8)
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = scale * F(q + rng.randrange(0, q + 1), q)
    return FiniteMetricSpace(tuple(tuple(row) for row in rows))


@pytest.mark.parametrize("seed", [0, 3, 104729])
def test_metric_space_draws_match_fraction_reference(seed):
    ours, ref = random.Random(seed), random.Random(seed)
    cfg = GeneratorConfig(seed=seed)
    kinds = Counter()
    for k in range(400):
        max_points = 4 + k % 5
        x = harness.random_metric_space(ours, cfg, max_points)
        want = reference_random_metric_space(ref, cfg, max_points)
        assert x == want and x.dist == want.dist
        kinds["line" if x.line_coords is not None else "matrix"] += 1
    assert ours.getstate() == ref.getstate()
    assert min(kinds.values()) > 100, kinds


def test_dropping_a_point_matches_the_fraction_reference():
    rng = random.Random(24)
    cfg = GeneratorConfig()
    for _ in range(200):
        x = harness.random_metric_space(rng, cfg, max_points=7)
        rows = x.dist
        for k in range(x.n if x.n > 1 else 0):  # never the last point
            dropped = harness._drop_point(x, k)
            keep = [i for i in range(x.n) if i != k]
            assert dropped.dist == tuple(tuple(rows[i][j] for j in keep) for i in keep)
            assert (dropped.line_coords is None) == (x.line_coords is None)
            if x.line_coords is not None:
                pts = x.line_coords.points
                assert dropped.line_coords == PointSet(pts[:k] + pts[k + 1:])
                assert harness._drop_point(x.line_coords, k) == dropped.line_coords


def test_inverted_gap_far_witness_is_101_spacings_out(monkeypatch):
    seen = []
    bound = harness.order_violation_bound

    def spy(r, x, y):
        seen.append(x.line_coords)
        return bound(r, x, y)

    monkeypatch.setattr(harness, "order_violation_bound", spy)
    x = PointSet.of([0, F(1, 3), 3, F(9, 2)])
    tally = Counter()
    assert harness._check_inverted_gap(tally, x, F(3, 2), 1, True) is None
    assert harness._check_inverted_gap(tally, x, F(3, 2), 1, False) is None
    assert seen == [PointSet.of([0, F(1, 3), 3, F(9, 2), F(9, 2) + 101 * F(3, 2)]), x]
    assert tally["inconclusive"] == 1
