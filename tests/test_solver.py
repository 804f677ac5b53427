"""GH solvers against a plain full-mask oracle and each other."""

from __future__ import annotations

import itertools
import random
import sys
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
from netline import solver
from netline.solver import (
    GHResult,
    _best_staircase,
    _eccentric,
    _fixpoint,
    _near,
    _reach,
    _refine,
    _singleton_refine,
    _staircase,
    gh_lower_bound,
    staircase_bound,
)


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


def _short_stack_limit() -> int:
    """A recursion limit 48 frames above the caller's stack: room for library
    calls (``fractions`` nests a few), not for one frame per search step."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth + 48


def test_gh_exact_solves_under_a_short_recursion_limit():
    # a band matrix against a relabelled copy: the search reaches a leaf, 25
    # pair slots deep, before it finds the relabelling
    d = [[0, 16, 16, 10, 14], [16, 0, 18, 17, 16], [16, 18, 0, 14, 17],
         [10, 17, 14, 0, 15], [14, 16, 17, 15, 0]]
    perm = [2, 4, 0, 1, 3]
    x = FiniteMetricSpace.from_matrix(d)
    y = FiniteMetricSpace.from_matrix([[d[a][b] for b in perm] for a in perm])
    old = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(_short_stack_limit())
        found = gh_exact(x, y)
    finally:
        sys.setrecursionlimit(old)
    assert found.exact == 0 and found.nodes_explored > 25


def test_branch_bound_solves_under_a_short_recursion_limit():
    # refinement closes the first line pair at the root; the 1,200- and
    # 30-point sets against a 2-point matrix need a search of |X| + 1 + |Y|
    # steps, far deeper than the limit leaves room for
    qx = line(1, 5, 7, 10, 14, 17, 18, 23, 24, 33)
    qy = line(9, 13, 17, 18, 29, 32, 33, 36)
    long = line(*range(0, 2400, 2))
    far = line(*range(0, 60, 2))
    pair = FiniteMetricSpace.from_matrix([[0, 7], [7, 0]])
    old = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(_short_stack_limit())
        closed = gh_branch_bound(qx, qy)
        solved = gh_branch_bound(long, pair)
        budgeted = [gh_branch_bound(far, pair, budget=b) for b in (3, 30)]
    finally:
        sys.setrecursionlimit(old)
    assert closed.exact is not None and closed.nodes_explored == 0
    assert solved.exact == F(2391, 2) and solved.nodes_explored == 1203
    assert [r.nodes_explored for r in budgeted] == [4, 31]
    assert all(r.exact is None and r.lower < r.upper for r in budgeted)


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


# a 5x6 matrix pair whose search is still open after 700 nodes; it closes
# at 1014
BX = [[0, 4, 3, 3, 4], [4, 0, 2, F(7, 2), F(5, 2)], [3, 2, 0, 2, F(5, 2)],
      [3, F(7, 2), 2, 0, 2], [4, F(5, 2), F(5, 2), 2, 0]]
BY = [[0, 3, F(7, 2), F(5, 2), F(7, 2), 4], [3, 0, 2, 4, F(5, 2), 2],
      [F(7, 2), 2, 0, F(5, 2), F(7, 2), 3], [F(5, 2), 4, F(5, 2), 0, F(5, 2), F(7, 2)],
      [F(7, 2), F(5, 2), F(7, 2), F(5, 2), 0, F(5, 2)], [4, 2, 3, F(7, 2), F(5, 2), 0]]


def test_budget_exhaustion_certified_bounds():
    x, y = FiniteMetricSpace.from_matrix(BX), FiniteMetricSpace.from_matrix(BY)
    res = gh_branch_bound(x, y, budget=700)
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
    corr, witness = Correspondence.of([(0, 0)], 1, 1), ((0, 0), (0, 0))
    with pytest.raises(ValueError):
        GHResult(F(1), F(0), None, 0, corr, witness)
    with pytest.raises(ValueError):
        GHResult(F(0), F(1), F(1), 0, corr, witness)
    with pytest.raises(TypeError):
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
        # the sweep's band width is the true distortion of its staircase
        den, dx, dy = scaled_int_matrices(x, y)
        assert isinstance(corr, Correspondence)
        assert int_distortion(corr.pairs, dx, dy)[0] == 2 * den * high
        assert gh_branch_bound(x, y).exact == exact
        # a translation moves every offset by one constant: same value, same path
        for shift in (F(-7, 3), F(5), F(1, 64)):
            moved = [FiniteMetricSpace.from_line(s.line_coords.shift(shift)) for s in (x, y)]
            assert staircase_bound(moved[0], y) == (high, corr)
            assert staircase_bound(x, moved[1]) == (high, corr)


def directed(a, b):
    return max(min(abs(v - w) for w in b) for v in a)


def profile_bound(dx, dy):
    """Memoli's profile bound on the least distortion, in full: a
    correspondence holding (i, j) has distortion at least the Hausdorff
    distance c(i, j) of the two distance rows, and it covers every row and
    every column."""
    c = [[max(directed(rx, ry), directed(ry, rx)) for ry in dy] for rx in dx]
    return max(max(min(row) for row in c), max(min(col) for col in zip(*c)))


def test_profile_bound_below_exact_on_matrix_pairs():
    for x, y in random_pairs(30, 300, "matrix"):
        exact = gh_exact(x, y).exact
        den, dx, dy = scaled_int_matrices(x, y)
        profile = F(profile_bound(dx, dy), 2 * den)
        assert abs(diam(x) - diam(y)) / 2 <= profile <= gh_lower_bound(x, y) <= exact
        assert gh_branch_bound(x, y).exact == exact


def test_budgeted_bounds_bracket_exact():
    for kind in ("line", "matrix"):
        for x, y in random_pairs(31, 150, kind):
            results = [gh_exact(x, y), gh_branch_bound(x, y)]
            exact = results[0].exact
            for budget in (0, 1, 3):
                res = gh_branch_bound(x, y, budget=budget)
                assert gh_lower_bound(x, y) <= res.lower <= exact <= res.upper
                assert distortion(res.upper_witness, x, y).value == 2 * res.upper
                assert res.exact in (None, exact)
                results.append(res)
            # both solvers, bounded or not, carry the witness distortion finds
            for res in results:
                assert res.witness == distortion(res.upper_witness, x, y).witness


def test_profile_bound_two_point_example():
    # rows {0, 1} and {0, 3} lie at Hausdorff distance c = 2, so every cell
    # dies in refinement's first pass at 2 and d_GH >= 1
    x, y = line(0, 1), line(0, 3)
    res = gh_branch_bound(x, y, budget=0)
    assert gh_lower_bound(x, y) == 1
    assert res.lower == 1 == gh_exact(x, y).exact


def test_refinement_is_sound_and_monotone():
    for kind in ("line", "matrix"):
        for x, y in random_pairs(44, 120, kind):
            den, dx, dy = scaled_int_matrices(x, y)
            least = 2 * den * gh_exact(x, y).exact
            # the optimal correspondence survives one unit above its distortion
            assert _refine(dx, dy, least + 1) is not None
            assert _singleton_refine(dx, dy, least + 1) is not None
            low = 2 * den * gh_lower_bound(x, y)
            assert max(abs(max(map(max, dx)) - max(map(max, dy))),
                       profile_bound(dx, dy)) <= low <= least
            # live cells only grow with the threshold
            gaps = {abs(a - b) for rx in dx for a in rx for ry in dy for b in ry}
            prev = None
            for t in sorted(gaps | {g + 1 for g in gaps}):
                live = _refine(dx, dy, t)
                if prev is not None:
                    assert live is not None
                    assert all(a & ~b == 0 for a, b in zip(prev, live))
                prev = live
                # singleton probes only delete more
                sac = _singleton_refine(dx, dy, t)
                if sac is not None:
                    assert live is not None
                    assert all(a & ~b == 0 for a, b in zip(sac, live))


def test_eccentric_start_reaches_the_full_relation_fixpoint():
    for kind in ("line", "matrix"):
        for x, y in random_pairs(46, 100, kind):
            _, dx, dy = scaled_int_matrices(x, y)
            for t in sorted({abs(a - b) for rx in dx for a in rx for ry in dy for b in ry}):
                near = _near(dx, dy, t)
                start = _eccentric(dx, dy, t)
                live, full = list(start), [(1 << len(dy)) - 1] * len(dx)
                # the same refutation, or the same live cells, all inside the start
                kept = _fixpoint(dx, near, live)
                assert kept == _fixpoint(dx, near, full)
                if kept:
                    assert live == full
                    assert all(a & ~b == 0 for a, b in zip(live, start))


def arc_consistent(dx, dy, t, cells):
    """Greatest subset of ``cells`` in which each cell (i, j) has, in every
    row, a cell (i2, j2) with |dx[i][i2] - dy[j][j2]| < t, and those cells
    cover every column; None once a row empties."""
    rows, cols = set(range(len(dx))), set(range(len(dy)))
    cells = set(cells)
    changed = True
    while changed:
        changed = False
        for i, j in sorted(cells):
            near = {(i2, j2) for i2, j2 in cells if abs(dx[i][i2] - dy[j][j2]) < t}
            if {i2 for i2, _ in near} != rows or {j2 for _, j2 in near} != cols:
                cells.discard((i, j))
                changed = True
    return cells if {i for i, _ in cells} == rows else None


def singleton_reference(dx, dy, t):
    """Singleton refinement by its definition, as live-column masks: delete
    a cell when assuming it refutes, and refine again from scratch."""
    n, m = len(dx), len(dy)
    cells = arc_consistent(dx, dy, t, [(i, j) for i in range(n) for j in range(m)])
    deleted = True
    while cells is not None and deleted:
        deleted = False
        for i, j in sorted(cells):
            probe = {(i2, j2) for i2, j2 in cells if abs(dx[i][i2] - dy[j][j2]) < t}
            if arc_consistent(dx, dy, t, probe) is None:
                cells = arc_consistent(dx, dy, t, cells - {(i, j)})
                deleted = True
                break
    if cells is None:
        return None
    return [sum(1 << j for j in range(m) if (i, j) in cells) for i in range(n)]


def test_singleton_refinement_matches_its_definition():
    for kind in ("line", "matrix"):
        for x, y in random_pairs(44, 120, kind):
            den, dx, dy = scaled_int_matrices(x, y)
            least = 2 * den * gh_exact(x, y).exact
            for t in (least, least + 1):
                assert _singleton_refine(dx, dy, t) == singleton_reference(dx, dy, t)
    # on this pair a probe that keeps distances equal to t, not only below
    # it, leaves more cells live at t = 8 (least distortion 6, den 2)
    _, dx, dy = scaled_int_matrices(line(0, 5, 7), line(0, 2, 4, 5, 7, 8))
    for t in range(1, 20):
        assert _singleton_refine(dx, dy, t) == singleton_reference(dx, dy, t)


def test_refinement_closes_a_pair_the_search_left_open():
    # this 14-point pair took 21,065 nodes to close by search alone, and
    # was still open at budget 5000; refinement proves the staircase optimal
    x = line(0, 3, 4, 6, 7, 8, 15, 16, 24, 25, 28, 30, 31, 36)
    y = line(0, 1, 6, 14, 17, 20, 24, 27, 28, 29, 30, 32, 35, 37)
    res = gh_branch_bound(x, y, budget=0)
    assert res.exact == F(5, 2) and res.nodes_explored == 0
    assert gh_lower_bound(x, y) == F(5, 2)
    assert distortion(res.upper_witness, x, y).value == 5


def test_singleton_refinement_closes_a_pair_refinement_leaves_open():
    # quality instance 37: refinement leaves the staircase unproved, and the
    # search alone needs 1,648 nodes to prove it; singleton probes need none
    x = line(1, 5, 7, 10, 14, 17, 18, 23, 24, 33)
    y = line(9, 13, 17, 18, 29, 32, 33, 36)
    den, dx, dy = scaled_int_matrices(x, y)
    assert _refine(dx, dy, 8 * den) is not None
    assert _singleton_refine(dx, dy, 8 * den) is None
    res = gh_branch_bound(x, y, budget=0)
    assert res.exact == 4 and res.nodes_explored == 0
    assert gh_branch_bound(x, y) == res


def staircase_dp(xs, ys, cap):
    """The least offset range of a monotone lattice path from (0, 0) to
    (n-1, m-1) below ``cap``, or None, by a bottleneck DP, the reference for
    the sweep: for each candidate least offset lo, taken downward, the least
    greatest offset of a path whose offsets all lie in [lo, lo + cap)."""
    n, m = len(xs), len(ys)
    off = [[a - b for b in ys] for a in xs]
    start, end = off[0][0], off[n - 1][m - 1]
    top, floor = max(start, end), min(start, end)
    best = None
    for lo in sorted({o for row in off for o in row if o <= floor}, reverse=True):
        if top - lo >= cap:
            break
        hi = lo + cap
        # prev[j], cur[j]: least greatest offset of a path to (i - 1, j), (i, j)
        prev = [None] * m
        for i in range(n):
            row = off[i]
            cur = [None] * m
            for j in range(m):
                o = row[j]
                if o < lo or o >= hi:
                    continue
                if i == 0 and j == 0:
                    cur[0] = o
                    continue
                b = prev[j]
                if j:
                    for c in (cur[j - 1], prev[j - 1]):
                        if c is not None and (b is None or c < b):
                            b = c
                if b is not None:
                    cur[j] = o if o > b else b
            prev = cur
        if prev[m - 1] is not None:
            cap = best = prev[m - 1] - lo
    return best


def best_staircase_dp(xs, ys, cap):
    """The lesser of the increasing and the decreasing DP values."""
    up = staircase_dp(xs, ys, cap)
    down = staircase_dp(xs, [-v for v in reversed(ys)], cap if up is None else up)
    return up if down is None else down


def line_pairs_containing_zero(top, size):
    sets = [(0, *rest) for k in range(size)
            for rest in itertools.combinations(range(1, top + 1), k)]
    return [(xs, ys) for xs in sets for ys in sets]


def test_staircase_sweep_matches_the_bottleneck_dp():
    rng = random.Random(45)
    drawn = [[sorted(rng.sample(range(60), rng.randint(8, 16))) for _ in "xy"]
             for _ in range(300)]
    for xs, ys in line_pairs_containing_zero(9, 4) + drawn:
        dx = [[abs(a - b) for b in xs] for a in xs]
        dy = [[abs(a - b) for b in ys] for a in ys]
        big = max(xs[-1] - xs[0], ys[-1] - ys[0]) + 1
        for sweep, dp in ((_staircase, staircase_dp),
                          (_best_staircase, best_staircase_dp)):
            least = dp(xs, ys, big)
            small = (least + 1) // 2 + 1
            for cap, want in ((big, least), (small, dp(xs, ys, small))):
                got = sweep(xs, ys, cap)
                if want is None:
                    assert got is None
                    continue
                value, pairs = got
                assert value == want
                corr = Correspondence.of(pairs, len(xs), len(ys))
                assert int_distortion(corr.pairs, dx, dy)[0] == value


def test_staircase_sweep_stops_where_the_ends_span_the_cap(monkeypatch):
    # the path ends have offsets 0 and 2, so no band of width below 2 holds
    # both, and the sweep ends before its first band
    calls = []
    monkeypatch.setattr(solver, "bisect_right", lambda *a: calls.append(a))
    monkeypatch.setattr(solver, "bisect_left", lambda *a: calls.append(a))
    assert _staircase([0, 3], [0, 1], 2) is None
    assert calls == []


def test_staircase_needs_line_spaces():
    band = FiniteMetricSpace.from_matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="line"):
        staircase_bound(band, line(0, 1))


# The capped scan: the search only ever asks "value < incumbent", so each
# scan may stop once it reaches the cap.  Caps run below, at and above the
# true values; the references below scan in full.


def caps_around(values, rng):
    """0, every value and its neighbours, and a random cap past them all."""
    caps = {0, max(values) + 1, rng.randint(0, 2 * max(values) + 2)}
    for v in values:
        caps.update((v - 1, v, v + 1))
    return sorted(c for c in caps if c >= 0)


def test_reach_is_exact_below_cap_and_at_least_cap_otherwise():
    rng = random.Random(43)
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        row_x = [rng.randint(0, 20) for _ in range(n)]
        row_y = [rng.randint(0, 20) for _ in range(m)]
        cells = [(i, j) for i in range(n) for j in range(m)]
        pairs = rng.sample(cells, rng.randint(0, len(cells)))
        cur = rng.randint(0, 10)
        full = max([cur] + [abs(row_x[i] - row_y[j]) for i, j in pairs])
        for cap in caps_around([full], rng):
            got = _reach(cur, row_x, row_y, pairs, cap)
            if full < cap:
                assert got == full
            else:
                assert cap <= got <= full
