"""Deformation map: endpoints, monotonicity, certified moduli, traces."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from netline import (
    FiniteMetricSpace,
    IntervalUnion,
    PointSet,
    Window,
    contract,
    continuity_in_lambda,
    covering_radius,
    f_map,
    gh_branch_bound,
    hausdorff,
    sample,
    stability_in_space,
    trace,
    trace_csv,
)
from netline.harness import GeneratorConfig, random_lambda, random_point_set
from netline.geometry import _directed_sup, _symmetric_sup
from netline.homotopy import HomotopyTrace, TraceRow, _deformations
from test_geometry import COPRIME_DENOMINATORS, coprime_scalar, sup_norm_hausdorff


def test_f_map_values():
    assert f_map(0) == 0
    assert f_map(F(1, 2)) == 1
    assert f_map(F(3, 4)) == 3
    assert f_map(1) is None
    with pytest.raises(ValueError):
        f_map(F(5, 4))
    with pytest.raises(ValueError):
        f_map(F(-1, 4))
    for q in range(1, 33):
        for a in range(q):
            lam = F(a, q)
            assert f_map(lam) == lam / (1 - lam)
    for one in (1, "1", F(7, 7)):
        assert f_map(one) is None
    # ints, strings and Fractions coerce alike
    assert f_map(0) == f_map("-0") == f_map(F(0)) == 0
    assert f_map("3/4") == f_map(F(3, 4)) == 3
    assert f_map("0.25") == F(1, 3)
    for bad in (F(-1, 64), F(65, 64)):
        with pytest.raises(ValueError, match=r"^lam must lie in \[0, 1\]$"):
            f_map(bad)


def test_contract_endpoints_and_example():
    w = Window.of(-1, 4)
    x = PointSet.of([0, 3])
    assert contract(x, 0, w) == x.to_intervals()
    assert contract(x, F(1, 2), w).intervals == ((F(-1), F(1)), (F(2), F(4)))
    assert contract(x, 1, w) == w.span()
    with pytest.raises(ValueError):
        contract(PointSet.of([99]), 0, w)
    # both window clamps apply, and the clamped spans fuse at each end
    x = PointSet.of([-1, F(-1, 2), 1, F(7, 2), 4])
    assert contract(x, F(1, 3), w).intervals == (
        (F(-1), F(0)), (F(1, 2), F(3, 2)), (F(3), F(4))
    )


def test_contract_monotone_in_lambda():
    rng = random.Random(41)
    cfg = GeneratorConfig(seed=0)
    w = cfg.window
    for _ in range(200):
        x = random_point_set(rng, cfg)
        l1, l2 = sorted((random_lambda(rng), random_lambda(rng)))
        assert contract(x, l1, w).subset_of(contract(x, l2, w))


def test_continuity_examples_and_property():
    wide = Window.of(-10, 10)
    assert continuity_in_lambda(PointSet.of([0]), 0, 0, wide) == (0, 0)
    assert continuity_in_lambda(PointSet.of([0]), 0, F(1, 2), wide) == (1, 1)
    with pytest.raises(ValueError):
        continuity_in_lambda(PointSet.of([0]), 0, 1, wide)
    rng = random.Random(42)
    cfg = GeneratorConfig(seed=0)
    for _ in range(500):
        x = random_point_set(rng, cfg)
        d, bound = continuity_in_lambda(
            x, random_lambda(rng), random_lambda(rng), cfg.window
        )
        assert d <= bound


def test_covering_radius_saturates_window():
    w = Window.of(0, 10)
    assert covering_radius(PointSet.of(range(11)), w) == F(1, 2)
    assert covering_radius(PointSet.of([5]), w) == 5
    rng = random.Random(43)
    cfg = GeneratorConfig(seed=0)
    for _ in range(100):
        x = random_point_set(rng, cfg)
        r = covering_radius(x, w)
        # lam = s/(1+s) deforms by radius exactly s
        assert contract(x, r / (1 + r), w) == w.span()
        if r > 0:
            s = r - F(1, 1000)
            assert contract(x, s / (1 + s), w) != w.span()
        s = r + F(1, 7)
        assert contract(x, s / (1 + s), w) == w.span()


def test_endpoint_convergence_at_saturation():
    # once the radius reaches the covering radius the deformation IS the
    # window; lam = r/(1+r) maps to radius exactly r
    rng = random.Random(46)
    cfg = GeneratorConfig(seed=0)
    w = cfg.window
    for _ in range(100):
        x = random_point_set(rng, cfg)
        r = covering_radius(x, w)
        lam = r / (1 + r) if r > 0 else F(0)
        deformed = contract(x, lam, w)
        if r > 0:
            assert hausdorff(deformed, w.span()) == 0
        beyond = (r + 1) / (r + 2)  # f(beyond) = r + 1 > r
        assert hausdorff(contract(x, beyond, w), w.span()) == 0


def test_stability_examples_and_property():
    w = Window.of(0, 10)
    x = PointSet.of([2, 5])
    assert stability_in_space(x, x, F(1, 3), w) == (0, 0)
    shifted = x.shift(F(1, 2))
    d, bound = stability_in_space(x, shifted, F(1, 3), w)
    assert bound == F(1, 2)
    assert d <= F(1, 2)
    rng = random.Random(44)
    cfg = GeneratorConfig(seed=0)
    for _ in range(500):
        a = random_point_set(rng, cfg)
        b = random_point_set(rng, cfg)
        d, bound = stability_in_space(a, b, random_lambda(rng), w)
        assert d <= bound


def test_trace_shape_and_monotonicity():
    w = Window.of(0, 10)
    x = PointSet.of([2, 7])
    single = trace(x, w, [0])
    assert len(single.rows) == 1
    assert single.rows[0].d_to_window == covering_radius(x, w)

    tr = trace(x, w, [0, F(1, 4), F(1, 2), F(3, 4), 1])
    assert tr.rows[-1].d_to_window == 0
    for a, b in zip(tr.rows, tr.rows[1:]):
        assert b.d_to_window <= a.d_to_window
    with pytest.raises(ValueError):
        trace(x, w, [F(1, 2), 0])

    rng = random.Random(45)
    cfg = GeneratorConfig(seed=0)
    for _ in range(50):
        y = random_point_set(rng, cfg)
        grid = sorted(random_lambda(rng) for _ in range(4))
        rows = trace(y, cfg.window, grid).rows
        for a, b in zip(rows, rows[1:]):
            assert b.d_to_window <= a.d_to_window


def test_trace_row_invariant_is_enforced():
    with pytest.raises(ValueError):
        HomotopyTrace(
            (
                TraceRow(
                    F(0),
                    IntervalUnion(((F(0), F(1)),)),
                    F(0),
                    F(2),
                    F(1),
                ),
            )
        )


def test_trace_csv_layout():
    w = Window.of(0, 4)
    tr = trace(PointSet.of([1, 3]), w, [0, F(1, 2), 1])
    text = trace_csv(tr)
    lines = text.strip().split("\n")
    assert lines[0].startswith("lam,f_lam,num_intervals,d_H_to_window")
    assert len(lines) == 4
    # lam = 1/2 thickens by 1: [0,2] u [2,4] merges to the full window
    assert lines[2].split(",")[0] == "1/2"
    assert lines[3].split(",")[1] == "inf"
    assert text == trace_csv(tr)  # deterministic


def test_gh_side_consistency_on_samples():
    # GH distance of the sampled deformation to the sampled window is within
    # the Hausdorff distance plus sampling slack
    w = Window.of(0, 4)
    x = PointSet.of([1, 3])
    step = F(1, 2)
    for lam in (F(0), F(1, 4), F(1, 2)):
        deformed = contract(x, lam, w)
        a = FiniteMetricSpace.from_line(sample(deformed, step))
        b = FiniteMetricSpace.from_line(sample(w.span(), step))
        res = gh_branch_bound(a, b, budget=50_000)
        dh = hausdorff(deformed, w.span())
        assert res.upper <= dh + step


# ---------------------------------------------------------------------------
# differential check against a Fraction reference


def reference_contract(x: PointSet, lam: F, w: Window) -> IntervalUnion:
    """Thicken by lam/(1-lam), fuse, then clip to the window, all in Fractions."""
    if lam == 1:
        return w.span()
    r = lam / (1 - lam)
    fused: list[list[F]] = []
    for p in x.points:
        if fused and p - r <= fused[-1][1]:
            fused[-1][1] = p + r
        else:
            fused.append([p - r, p + r])
    clipped = [(max(a, w.lo), min(b, w.hi)) for a, b in fused]
    return IntervalUnion(tuple((a, b) for a, b in clipped if a <= b))


def window_scalar(rng: random.Random, lo: F, hi: F) -> F:
    q = rng.choice(COPRIME_DENOMINATORS)
    return F(rng.randint(math.ceil(lo * q), math.floor(hi * q)), q)


def differential_lambda(rng: random.Random, width: F) -> F:
    kind = rng.randrange(4)
    if kind == 0:
        return F(0)
    if kind == 1:  # a radius past the window width: clamp both sides, fuse all
        r = width + rng.randint(0, 3)
        return r / (1 + r)
    return F(rng.randint(0, 96), rng.choice((97, 101, 103)))


def test_deformations_match_fraction_reference():
    rng = random.Random(47)
    seen = Counter()
    for _ in range(500):
        lo = coprime_scalar(rng, -20, 5)
        w = Window(lo, lo + coprime_scalar(rng, 1, 15))
        width = w.hi - w.lo
        x, xn = (PointSet.of(window_scalar(rng, w.lo, w.hi)
                             for _ in range(rng.randint(1, 8))) for _ in range(2))
        l1, l2 = differential_lambda(rng, width), differential_lambda(rng, width)
        ref1, ref2 = reference_contract(x, l1, w), reference_contract(x, l2, w)
        assert contract(x, l1, w) == ref1
        d, bound = continuity_in_lambda(x, l1, l2, w)
        assert d == sup_norm_hausdorff(ref1, ref2)
        assert bound == abs(l1 / (1 - l1) - l2 / (1 - l2))
        assert stability_in_space(x, xn, l1, w) == (
            sup_norm_hausdorff(ref1, reference_contract(xn, l1, w)),
            sup_norm_hausdorff(x, xn),
        )
        grid = [l1, l2, differential_lambda(rng, width)] + [F(1)] * rng.randint(0, 1)
        grid.sort()
        prev = None
        for row, lam in zip(trace(x, w, grid).rows, grid):
            ref = reference_contract(x, lam, w)
            assert row.space == ref
            assert row.d_to_window == sup_norm_hausdorff(ref, w.span())
            assert row.step_d == (0 if prev is None else sup_norm_hausdorff(ref, prev))
            prev = ref
        seen["lam 0"] += F(0) in (l1, l2)
        left, right = ref1.intervals[0][0], ref1.intervals[-1][1]
        seen["both clamps"] += left == w.lo and right == w.hi
        seen["one span"] += len(ref1) == 1 < len(x)
        seen["denominator 1"] += any(p.denominator == 1 for p in x.points)
    assert min(seen.values()) >= 50, seen


def test_trace_rows_read_the_one_direction_that_can_be_nonzero():
    rng = random.Random(48)
    seen = Counter()
    for _ in range(300):
        lo = coprime_scalar(rng, -20, 5)
        w = Window(lo, lo + coprime_scalar(rng, 1, 15))
        width = w.hi - w.lo
        x = PointSet.of(window_scalar(rng, w.lo, w.hi) for _ in range(rng.randint(1, 8)))
        grid = [differential_lambda(rng, width) for _ in range(rng.randint(1, 4))]
        grid += rng.choice(([], grid[:1], [F(1)], [F(1), F(1)]))
        grid.sort()
        scale, window, _, _, [flats] = _deformations([x], grid, w)
        for row, flat, prev in zip(trace(x, w, grid).rows, flats, flats[:1] + flats):
            # an ascending grid nests each deformation in the next
            assert _directed_sup(prev, flat) == 0
            assert row.d_to_window == F(_symmetric_sup(flat, window), scale)
            assert row.step_d == F(_symmetric_sup(flat, prev), scale)
        seen["repeated lam"] += len(set(grid)) < len(grid)
        seen["lam 1"] += grid[-1] == 1
        seen["radius past the window"] += any(lam < 1 and f_map(lam) > width for lam in grid)
        seen["inner gap"] += any(len(flat) > 2 for flat in flats)
    assert min(seen.values()) >= 50, seen


def test_deformation_checks_reject_sets_outside_the_window():
    w = Window.of(F(-7, 3), F(5, 2))
    inside, outside = PointSet.of([-2, 0, F(5, 2)]), PointSet.of([0, 3])
    message = "point set must lie inside the window"
    with pytest.raises(ValueError, match=message):
        continuity_in_lambda(outside, 0, F(1, 2), w)
    with pytest.raises(ValueError, match=message):
        stability_in_space(outside, inside, F(1, 2), w)
    with pytest.raises(ValueError, match=message):
        stability_in_space(inside, outside, F(1, 2), w)
    # the parameter range is checked before the window
    with pytest.raises(ValueError, match="lam must lie in"):
        stability_in_space(inside, outside, 1, w)
    with pytest.raises(ValueError, match="both parameters"):
        continuity_in_lambda(outside, 0, 1, w)
    # invalid twice over: the first parameter is checked, then the window,
    # then the rest of the grid
    with pytest.raises(ValueError, match=message):
        trace(outside, w, [0, 2])
    with pytest.raises(ValueError, match="lam must lie in"):
        trace(outside, w, [2])
    with pytest.raises(ValueError, match="lam must lie in"):
        contract(outside, -1, w)


def test_trace_refuses_an_empty_grid():
    with pytest.raises(ValueError) as exc:
        trace(PointSet.of([0, 1]), Window.of(-1, 4), [])
    assert str(exc.value) == "grid must be nonempty"
