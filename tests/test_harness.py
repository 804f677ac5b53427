"""Suites: determinism, zero failures at reduced budgets, shrinking, trends."""

from __future__ import annotations

import json
from fractions import Fraction as F

import pytest

from netline import (
    GeneratorConfig,
    PointSet,
    geometric_progression_experiment,
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
from netline.harness import shrink_point_pair


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
    assert set(doc) == {"x", "y"}
    assert "profile bound" in rep.failures[0].detail


def test_shrinking_reaches_a_minimal_culprit():
    a = PointSet.of([0, 3, 7, 9])
    b = PointSet.of([1, 2, 8])

    def fails(pa: PointSet, pb: PointSet) -> bool:
        return F(7) in pa.points

    sa, sb = shrink_point_pair(a, b, fails)
    assert sa.points == (F(7),)
    assert len(sb) == 1


def test_lambda_search_records_hits_not_failures():
    cfg = GeneratorConfig(seed=3)
    rep = lambda_bound_counterexample_search(cfg, cases=400)
    assert rep.passed  # the certificate itself never breaks
    hits_line = next(r for r in rep.records if r.startswith("naive-bound hits"))
    hits = int(hits_line.split(":")[1].split("/")[0])
    assert hits > 0  # the stronger naive bound really does fail


def test_lambda_search_counts_certificate_violations(monkeypatch):
    # a step above its own certificate is a failure, and the record says so
    monkeypatch.setattr(harness, "continuity_in_lambda", lambda x, l1, l2, w: (F(2), F(1)))
    rep = lambda_bound_counterexample_search(GeneratorConfig(seed=0), cases=3)
    assert len(rep.failures) == 3
    assert "certificate violations: 3" in rep.records


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


def test_experiment_render_is_deterministic():
    t1 = geometric_progression_experiment(3, 2).render()
    t2 = geometric_progression_experiment(3, 2).render()
    assert t1 == t2
    assert t1.startswith("experiment: geometric-progression")
