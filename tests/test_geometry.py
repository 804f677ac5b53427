"""Exact geometry: frozen examples plus seeded property suites.

The Hausdorff sweep is cross-checked against an independent oracle built on
a different identity: d_H(A, B) = sup_x | d(x, A) - d(x, B) |, whose sup is
attained at an endpoint or gap midpoint of either set.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from netline import (
    IntervalUnion,
    PointSet,
    Window,
    covering_radius,
    hausdorff,
    is_eps_net,
    point_to_set_distance,
    sample,
    separation,
    thicken,
)
from netline.geometry import _spans
from netline.harness import GeneratorConfig, random_point_set, random_scalar


def linear_dist_to_spans(x: F, spans) -> F:
    """Independent oracle: distance to the nearest span, by a linear scan."""
    return min(a - x if x < a else (x - b if x > b else F(0)) for a, b in spans)


def sup_norm_hausdorff(a, b) -> F:
    """Independent oracle: max over breakpoints of |d(x,A) - d(x,B)|."""
    sa, sb = _spans(a), _spans(b)
    candidates = []
    for spans in (sa, sb):
        for lo, hi in spans:
            candidates.append(lo)
            candidates.append(hi)
        for (_, b0), (a1, _) in zip(spans, spans[1:]):
            candidates.append((b0 + a1) / 2)
    return max(
        abs(linear_dist_to_spans(x, sa) - linear_dist_to_spans(x, sb))
        for x in candidates
    )


def random_union(rng: random.Random, lo=F(0), hi=F(10), max_parts=3) -> IntervalUnion:
    parts = []
    for _ in range(rng.randint(1, max_parts)):
        a = random_scalar(rng, lo, hi, 16)
        width = random_scalar(rng, F(0), F(2), 8)
        parts.append((a, a + width))
    return IntervalUnion.merge(parts)


# ---------------------------------------------------------------------------
# construction invariants


def test_point_set_rejects_empty_and_unsorted():
    with pytest.raises(ValueError):
        PointSet(())
    with pytest.raises(ValueError):
        PointSet((F(1), F(1)))
    with pytest.raises(ValueError):
        PointSet((F(2), F(1)))


def test_interval_union_invariants():
    with pytest.raises(ValueError):
        IntervalUnion(((F(1), F(0)),))
    with pytest.raises(ValueError):
        IntervalUnion(((F(0), F(1)), (F(1), F(2))))  # touching: not canonical
    merged = IntervalUnion.merge([(0, 1), (1, 2), (5, 5)])
    assert merged.intervals == ((F(0), F(2)), (F(5), F(5)))
    # a span inside the one before it must not cut that one short
    assert IntervalUnion.merge([(0, 5), (1, 2)]).intervals == ((F(0), F(5)),)


def test_window_invariant():
    with pytest.raises(ValueError):
        Window(F(1), F(1))


# ---------------------------------------------------------------------------
# operation examples


def test_point_to_set_distance_examples():
    assert point_to_set_distance(5, PointSet.of([0, 10])) == 5
    assert point_to_set_distance(3, IntervalUnion.merge([(0, 2), (7, 9)])) == 1
    assert point_to_set_distance(2, PointSet.of([2])) == 0
    rng = random.Random(17)
    for _ in range(300):
        s = random_union(rng, max_parts=4)
        x = random_scalar(rng, F(-2), F(14), 16)
        assert point_to_set_distance(x, s) == linear_dist_to_spans(x, _spans(s))


def test_hausdorff_examples():
    assert hausdorff(PointSet.of([0]), PointSet.of([0, 2])) == 2
    # evaluated by hand: sup_a d(a,B) = 0, sup_b d(b,A) = d(5, {0,10}) = 5
    assert hausdorff(PointSet.of([0, 10]), PointSet.of([0, 5, 10])) == 5
    assert hausdorff(IntervalUnion.merge([(-1, 1)]), IntervalUnion.merge([(0, 1)])) == 1
    s = IntervalUnion.merge([(0, 1), (3, 4)])
    assert hausdorff(s, s) == 0


def test_thicken_examples():
    assert thicken(PointSet.of([0, 3]), 1).intervals == ((F(-1), F(1)), (F(2), F(4)))
    assert thicken(PointSet.of([0, 2]), 1).intervals == ((F(-1), F(3)),)
    assert thicken(PointSet.of([0]), 0).intervals == ((F(0), F(0)),)
    # thickened spans of a union that touch fuse, with no re-sort
    union = IntervalUnion.merge([(0, 1), (3, 4), (7, 8)])
    assert thicken(union, 1).intervals == ((F(-1), F(5)), (F(6), F(9)))
    with pytest.raises(ValueError):
        thicken(PointSet.of([0]), -1)


def test_covering_radius_examples():
    w = Window.of(0, 10)
    assert covering_radius(PointSet.of(range(11)), w) == F(1, 2)
    assert covering_radius(PointSet.of([0]), w) == 10
    assert covering_radius(PointSet.of([0, 4, 10]), w) == 3
    with pytest.raises(ValueError):
        covering_radius(PointSet.of([0, 11]), w)


def test_is_eps_net_examples():
    w = Window.of(0, 10)
    grid = PointSet.of(range(11))
    assert is_eps_net(grid, w, F(1, 2))
    assert not is_eps_net(grid, w, F(1, 3))
    assert is_eps_net(PointSet.of([0, 4, 10]), w, 3)


def test_separation_examples():
    assert separation(PointSet.of([0, 3, 100])) == 3
    assert separation(PointSet.of([0, 1])) == 1
    assert separation(PointSet.of([0, 5, 10, 15])) == 5
    with pytest.raises(ValueError):
        separation(PointSet.of([0]))


def test_sample_examples():
    assert sample(IntervalUnion.merge([(0, 1)]), F(1, 2)).points == (F(0), F(1, 2), F(1))
    assert sample(IntervalUnion.merge([(0, 1), (3, 3)]), 1).points == (F(0), F(1), F(3))
    with pytest.raises(ValueError):
        sample(IntervalUnion.merge([(0, 1)]), 0)


# ---------------------------------------------------------------------------
# property suites (seeded, exact)


def test_hausdorff_matches_sup_norm_oracle():
    rng = random.Random(101)
    for _ in range(400):
        a = random_union(rng)
        b = random_union(rng)
        assert hausdorff(a, b) == sup_norm_hausdorff(a, b)


COPRIME_DENOMINATORS = (1, 2, 97, 101, 103)


def coprime_scalar(rng: random.Random, lo: int, hi: int) -> F:
    q = rng.choice(COPRIME_DENOMINATORS)
    return F(rng.randint(lo * q, hi * q), q)


def rich_set(rng: random.Random, must_touch=()):
    """A point set or union of up to 40 parts over [-20, 20], with pairwise
    coprime denominators, zero-width spans, and must_touch as endpoints."""
    parts = rng.randint(1, rng.choice((1, 4, 12, 40)))
    pts = [coprime_scalar(rng, -20, 20) for _ in range(parts)]
    if rng.random() < 0.4:
        return PointSet.of(pts + list(must_touch))
    spans = [(a, a + rng.choice((F(0), coprime_scalar(rng, 0, 2)))) for a in pts]
    for t in must_touch:
        w = coprime_scalar(rng, 0, 1)
        spans.append(rng.choice(((t, t), (t, t + w), (t - w, t))))
    return IntervalUnion.merge(spans)


def gap_midpoints(s) -> list[F]:
    return [(b0 + a1) / 2 for (_, b0), (a1, _) in zip(_spans(s), _spans(s)[1:])]


def test_hausdorff_matches_oracle_on_coprime_denominators():
    rng = random.Random(106)
    touched = 0
    for _ in range(600):
        b = rich_set(rng)
        mids = gap_midpoints(b)
        # half the time, put a gap midpoint of b exactly on an endpoint of a
        touch = [rng.choice(mids)] if mids and rng.random() < 0.5 else []
        a = rich_set(rng, touch)
        touched += any(t in span for span in _spans(a) for t in touch)
        if rng.random() < 0.5:
            a, b = b, a
        assert hausdorff(a, b) == sup_norm_hausdorff(a, b)
        x = coprime_scalar(rng, -25, 25)
        assert point_to_set_distance(x, a) == linear_dist_to_spans(x, _spans(a))
    assert touched >= 100


def test_hausdorff_metric_axioms():
    rng = random.Random(102)
    for _ in range(200):
        a, b, c = (random_union(rng) for _ in range(3))
        assert hausdorff(a, b) == hausdorff(b, a)
        assert hausdorff(a, a) == 0
        assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c)


def test_thicken_monotone_and_lipschitz():
    rng = random.Random(103)
    for _ in range(300):
        a = random_union(rng)
        r1 = random_scalar(rng, F(0), F(2), 8)
        r2 = random_scalar(rng, F(0), F(2), 8)
        if r1 > r2:
            r1, r2 = r2, r1
        assert thicken(a, r1).subset_of(thicken(a, r2))
        assert hausdorff(thicken(a, r1), thicken(a, r2)) <= r2 - r1


def test_covering_radius_is_hausdorff_to_window():
    rng = random.Random(104)
    cfg = GeneratorConfig(seed=0)
    w = cfg.window
    for _ in range(300):
        a = random_point_set(rng, cfg)
        assert covering_radius(a, w) == hausdorff(a, w.span())


def test_sampling_approximates_within_half_step():
    rng = random.Random(105)
    for _ in range(200):
        s = random_union(rng)
        step = F(1, rng.randint(2, 8))
        assert hausdorff(sample(s, step), s) <= step / 2


def test_ultrametric_small_cases():
    w = Window.of(0, 1)
    assert hausdorff(PointSet.of([0]), PointSet.of([1])) <= max(
        covering_radius(PointSet.of([0]), w), covering_radius(PointSet.of([1]), w)
    )
    w10 = Window.of(0, 10)
    a, b = PointSet.of([0, 10]), PointSet.of([0, 5, 10])
    # equality case: d_H = 5 and the sparse set has covering radius 5
    assert hausdorff(a, b) == 5
    assert max(covering_radius(a, w10), covering_radius(b, w10)) == 5
