"""GH solvers against a plain full-mask oracle and each other."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from netline import (
    Correspondence,
    ExhaustiveLimitError,
    FiniteMetricSpace,
    PointSet,
    Window,
    covering_radius,
    diam,
    distortion,
    gh_branch_bound,
    gh_exact,
    sample,
    scale_space,
)
from netline.harness import (
    GeneratorConfig,
    random_metric_space,
    random_point_set,
    random_scalar,
)
from netline.correspondence import int_distortion, scaled_int_matrices
from netline.solver import GHResult, gh_lower_bound, staircase_bound


def line(*coords) -> FiniteMetricSpace:
    return FiniteMetricSpace.from_line(PointSet.of(coords))


def brute_force_min_distortion(x: FiniteMetricSpace, y: FiniteMetricSpace) -> F:
    """Flat mask sweep over all subsets of X x Y, surjectivity-filtered."""
    n, m = x.n, y.n
    all_pairs = [(i, j) for i in range(n) for j in range(m)]
    best = None
    for mask in range(1, 1 << (n * m)):
        chosen = [all_pairs[k] for k in range(n * m) if mask >> k & 1]
        if {i for i, _ in chosen} != set(range(n)):
            continue
        if {j for _, j in chosen} != set(range(m)):
            continue
        d = max(
            abs(x.dist[i][i2] - y.dist[j][j2])
            for i, j in chosen
            for i2, j2 in chosen
        )
        if best is None or d < best:
            best = d
    assert best is not None
    return best


def test_gh_exact_frozen_examples():
    # brute force over all correspondences of {0,1} x {0,2} gives min dis 1
    assert brute_force_min_distortion(line(0, 1), line(0, 2)) == 1
    assert gh_exact(line(0, 1), line(0, 2)).exact == F(1, 2)
    # diameter lower bound (1/2)|1-3| = 1 is attained
    assert brute_force_min_distortion(line(0, 1), line(0, 3)) == 2
    assert gh_exact(line(0, 1), line(0, 3)).exact == 1
    z = line(0, 2, 5)
    assert gh_exact(z, z).exact == 0
    assert 2 * gh_exact(line(3, 9), line(6, 18)).exact == 6


def test_gh_exact_matches_oracle_on_random_small_instances():
    rng = random.Random(21)
    cfg = GeneratorConfig(seed=0)
    for _ in range(60):
        x = random_metric_space(rng, cfg, max_points=3)
        y = random_metric_space(rng, cfg, max_points=3)
        assert 2 * gh_exact(x, y).exact == brute_force_min_distortion(x, y)


def test_gh_exact_optimal_correspondence_attains_value():
    rng = random.Random(22)
    cfg = GeneratorConfig(seed=0)
    for _ in range(40):
        x = random_metric_space(rng, cfg, max_points=4)
        y = random_metric_space(rng, cfg, max_points=4)
        res = gh_exact(x, y)
        assert distortion(res.upper_witness, x, y).value == 2 * res.exact


def test_gh_exact_limit_refusal():
    big = line(*range(6))
    other = line(*range(5))
    with pytest.raises(ExhaustiveLimitError, match="branch_bound"):
        gh_exact(big, other)
    # a custom limit loosens or tightens the gate
    with pytest.raises(ExhaustiveLimitError):
        gh_exact(line(0, 1), line(0, 1, 2), limit=5)


def test_branch_bound_agrees_with_exact():
    rng = random.Random(23)
    cfg = GeneratorConfig(seed=0)
    for _ in range(80):
        x = random_metric_space(rng, cfg, max_points=4)
        y = random_metric_space(rng, cfg, max_points=4)
        res = gh_branch_bound(x, y)
        assert res.exact is not None
        assert res.exact == gh_exact(x, y).exact


def test_branch_bound_known_values():
    g = line(0, 1, 2, 3, 4)
    assert gh_branch_bound(g, g).exact == 0
    a, b = line(0, 1), line(0, 2)
    bb = gh_branch_bound(a, b)
    exact = gh_exact(a, b)
    assert bb.exact == F(1, 2)
    assert bb.nodes_explored <= exact.nodes_explored
    x4 = line(0, 1, 2, 3)
    y3 = line(0, F(3, 2), 3)
    assert gh_branch_bound(x4, y3).exact == gh_exact(x4, y3).exact


def test_budget_exhaustion_certified_bounds():
    # a 14-point pair whose search is still open after 5000 nodes
    x = line(0, 3, 4, 6, 7, 8, 15, 16, 24, 25, 28, 30, 31, 36)
    y = line(0, 1, 6, 14, 17, 20, 24, 27, 28, 29, 30, 32, 35, 37)
    res = gh_branch_bound(x, y, budget=5000)
    assert res.exact is None
    full = gh_branch_bound(x, y)
    assert abs(diam(x) - diam(y)) / 2 <= res.lower <= full.exact <= res.upper
    # the upper-bound witness is a genuine correspondence attaining it
    assert distortion(res.upper_witness, x, y).value == 2 * res.upper


def test_gh_metric_axioms_random():
    rng = random.Random(24)
    cfg = GeneratorConfig(seed=0)
    for _ in range(40):
        x = random_metric_space(rng, cfg, max_points=4)
        y = random_metric_space(rng, cfg, max_points=4)
        z = random_metric_space(rng, cfg, max_points=4)
        dxy = gh_exact(x, y).exact
        assert dxy == gh_exact(y, x).exact
        assert dxy <= gh_exact(x, z).exact + gh_exact(z, y).exact


def test_bounded_cloud_sandwich_on_solver_outputs():
    rng = random.Random(25)
    cfg = GeneratorConfig(seed=0)
    for _ in range(60):
        x = random_metric_space(rng, cfg, max_points=4)
        y = random_metric_space(rng, cfg, max_points=4)
        v = gh_exact(x, y).exact
        assert abs(diam(x) - diam(y)) / 2 <= v <= max(diam(x), diam(y)) / 2


def test_geodesic_scaling_random():
    rng = random.Random(26)
    cfg = GeneratorConfig(seed=0)
    for _ in range(40):
        x = random_metric_space(rng, cfg, max_points=4)
        l1 = random_scalar(rng, F(0), F(3), 8)
        l2 = random_scalar(rng, F(0), F(3), 8)
        got = gh_exact(scale_space(x, l1), scale_space(x, l2)).exact
        assert got == abs(l1 - l2) * diam(x) / 2


def test_line_identity_consistency():
    # upper bound against a sampled window never beats d_H(A, window) + slack
    rng = random.Random(27)
    cfg = GeneratorConfig(seed=0, window=Window.of(0, 4))
    w = cfg.window
    for _ in range(20):
        a = random_point_set(rng, cfg, max_points=3)
        step = F(1, 2)
        grid = sample(w.span(), step)
        res = gh_branch_bound(
            FiniteMetricSpace.from_line(a), FiniteMetricSpace.from_line(grid),
            budget=20_000,
        )
        assert res.upper <= covering_radius(a, w) + step / 2


def test_monotone_reduction_safe_on_separated_grids():
    # branch-and-bound must match the exhaustive value on well-separated grids
    rng = random.Random(28)
    for _ in range(30):
        n = rng.randint(2, 4)
        m = rng.randint(2, 4)
        x = line(*[5 * k + rng.randint(0, 1) for k in range(n)])
        y = line(*[5 * k + rng.randint(0, 1) for k in range(m)])
        assert gh_branch_bound(x, y).exact == gh_exact(x, y).exact


def test_determinism_of_node_counts():
    x = line(0, F(1, 3), 2, 7)
    y = line(0, 1, 5, 6)
    a = gh_branch_bound(x, y)
    b = gh_branch_bound(x, y)
    assert (a.exact, a.nodes_explored) == (b.exact, b.nodes_explored)
    c = gh_exact(x, y)
    d = gh_exact(x, y)
    assert (c.exact, c.nodes_explored) == (d.exact, d.nodes_explored)


def test_ghresult_invariants():
    with pytest.raises(ValueError):
        GHResult(F(1), F(0), None, 0)
    with pytest.raises(ValueError):
        GHResult(F(0), F(1), F(1), 0)
    with pytest.raises(ValueError):
        GHResult(F(1), F(1), F(1), 0)  # exact without its witness


def random_pairs(seed: int, count: int, kind: str):
    """Pairs of spaces with at most 5 points: line subsets, or band metrics
    and line metrics both given as matrices."""
    rng = random.Random(seed)
    cfg = GeneratorConfig(seed=0)
    for _ in range(count):
        if kind == "line":
            yield (
                FiniteMetricSpace.from_line(random_point_set(rng, cfg, 1, 5)),
                FiniteMetricSpace.from_line(random_point_set(rng, cfg, 1, 5)),
            )
        else:
            yield tuple(
                FiniteMetricSpace.from_matrix(
                    random_metric_space(rng, cfg, max_points=5).dist
                )
                for _ in range(2)
            )


def test_polynomial_bounds_bracket_exact_on_line_pairs():
    for x, y in random_pairs(29, 300, "line"):
        exact = gh_exact(x, y).exact
        low = gh_lower_bound(x, y)
        assert abs(diam(x) - diam(y)) / 2 <= low <= exact
        high, corr = staircase_bound(x, y)
        assert exact <= high
        # the DP's offset range is the true distortion of its staircase
        den, dx, dy = scaled_int_matrices(x, y)
        assert isinstance(corr, Correspondence)
        assert int_distortion(corr.pairs, dx, dy)[0] == 2 * den * high
        assert gh_branch_bound(x, y).exact == exact


def test_profile_bound_below_exact_on_matrix_pairs():
    for x, y in random_pairs(30, 300, "matrix"):
        exact = gh_exact(x, y).exact
        assert abs(diam(x) - diam(y)) / 2 <= gh_lower_bound(x, y) <= exact
        assert gh_branch_bound(x, y).exact == exact


def test_budgeted_bounds_bracket_exact():
    for kind in ("line", "matrix"):
        for x, y in random_pairs(31, 150, kind):
            exact = gh_exact(x, y).exact
            for budget in (0, 1, 3):
                res = gh_branch_bound(x, y, budget=budget)
                assert gh_lower_bound(x, y) <= res.lower <= exact <= res.upper
                assert distortion(res.upper_witness, x, y).value == 2 * res.upper
                assert res.exact in (None, exact)


def test_profile_bound_two_point_example():
    # rows {0, 1} and {0, 3} lie at Hausdorff distance c = 2, so every
    # correspondence has distortion at least 2 and d_GH >= 1
    x, y = line(0, 1), line(0, 3)
    res = gh_branch_bound(x, y, budget=0)
    assert gh_lower_bound(x, y) == 1
    assert res.lower == 1 == gh_exact(x, y).exact


def test_staircase_needs_line_spaces():
    band = FiniteMetricSpace.from_matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="line"):
        staircase_bound(band, line(0, 1))
