"""Deformation map: endpoints, monotonicity, certified moduli, traces."""

from __future__ import annotations

import random
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
    thicken,
    trace,
    trace_csv,
)
from netline.harness import GeneratorConfig, random_lambda, random_point_set
from netline.homotopy import HomotopyTrace, TraceRow


def test_f_map_values():
    assert f_map(0) == 0
    assert f_map(F(1, 2)) == 1
    assert f_map(F(3, 4)) == 3
    assert f_map(1) is None
    with pytest.raises(ValueError):
        f_map(F(5, 4))
    with pytest.raises(ValueError):
        f_map(F(-1, 4))


def test_contract_endpoints_and_example():
    w = Window.of(-1, 4)
    x = PointSet.of([0, 3])
    assert contract(x, 0, w) == x.to_intervals()
    assert contract(x, F(1, 2), w).intervals == ((F(-1), F(1)), (F(2), F(4)))
    assert contract(x, 1, w) == w.span()
    with pytest.raises(ValueError):
        contract(PointSet.of([99]), 0, w)


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
        assert thicken(x, r).clip(w.lo, w.hi) == w.span()
        if r > 0:
            assert thicken(x, r - F(1, 1000)).clip(w.lo, w.hi) != w.span()
        assert thicken(x, r + F(1, 7)).clip(w.lo, w.hi) == w.span()


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
