"""Constructive correspondences: certified bounds and their slack."""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction as F

import pytest

from netline import (
    Correspondence,
    FiniteMetricSpace,
    PointSet,
    PreconditionError,
    Window,
    distortion,
    extend_correspondence,
    segment_correspondence,
)
from netline import harness
from netline.harness import random_scalar


def test_segment_equal_radii_is_near_identity():
    x = PointSet.of([0, 2])
    res = segment_correspondence(x, F(1, 2), F(1, 2), F(1, 4))
    assert res.continuum_bound == 0
    assert res.certificate.value == 0  # identical samples pair with themselves
    assert res.certificate.value <= res.continuum_bound + res.slack


def test_segment_point_to_interval_example():
    # one point blown up to radius 1: every sampled target point pairs with
    # the single source, so the distortion is the target diameter 2 = bound
    res = segment_correspondence(PointSet.of([0]), 0, 1, F(1, 2))
    assert res.certificate.value == 2
    assert res.continuum_bound == 2
    assert res.slack == 1
    assert res.left.line_coords.points == (F(0),)
    assert len(res.right.line_coords.points) == 5


def test_segment_bound_on_random_instances():
    rng = random.Random(31)
    for _ in range(60):
        coords = sorted({rng.randint(0, 6) for _ in range(rng.randint(1, 3))})
        x = PointSet.of(coords)
        r1 = random_scalar(rng, F(0), F(1), 6)
        r2 = random_scalar(rng, F(0), F(1), 6)
        step = F(1, rng.randint(2, 5))
        res = segment_correspondence(x, r1, r2, step)
        assert res.certificate.value <= res.continuum_bound + res.slack
        # the certificate is honest: recompute from the returned pieces
        again = distortion(res.correspondence, res.left, res.right)
        assert again.value == res.certificate.value


def test_segment_slack_halves_with_step():
    x = PointSet.of([0, 1, 3])
    a = segment_correspondence(x, F(1, 4), F(3, 4), F(1, 3))
    b = segment_correspondence(x, F(1, 4), F(3, 4), F(1, 6))
    assert b.slack / a.slack == F(1, 2)
    assert b.certificate.value <= b.continuum_bound + b.slack


def test_segment_rejects_bad_inputs():
    x = PointSet.of([0])
    with pytest.raises(ValueError):
        segment_correspondence(x, -1, 0, F(1, 2))
    with pytest.raises(ValueError):
        segment_correspondence(x, 0, 1, 0)


def test_extension_identity_degenerates_to_identity():
    x = PointSet.of([0, 1, 2])
    r = Correspondence.of([(0, 0), (1, 1), (2, 2)], 3, 3)
    res = extend_correspondence(r, x, x, F(1, 2), F(1, 4))
    assert res.base_distortion == 0
    assert res.certificate.value == 0
    assert res.certificate.value <= 2 * F(1, 4)


def test_extension_grid_with_one_sided_perturbation():
    # wide grid, one-sided perturbation below lam/8: nearest pairing keeps
    # the order, and the certificate respects 5*dis + slack
    x = PointSet.of([0, 10, 20, 30])
    xn = PointSet.of([F(1, 10), 10, F(201, 10), 30])
    pairs = [(i, i) for i in range(4)]
    r = Correspondence.of(pairs, 4, 4)
    base = distortion(
        r, FiniteMetricSpace.from_line(x), FiniteMetricSpace.from_line(xn)
    ).value
    lam = F(9, 10)
    assert base < lam / 8
    res = extend_correspondence(r, x, xn, lam, F(1, 2))
    assert res.base_distortion == base
    assert res.bound == 5 * base
    assert res.certificate.value <= res.bound + res.slack


def test_extension_inverted_order_case():
    # a very close pair with swapped images: the inverted gap is tiny and
    # within twice the distortion, so the 5x bound still holds
    lam = F(1, 2)
    tiny = lam / 48
    x = PointSet.of([0, tiny, 1, 2])
    pairs = [(0, 1), (1, 0), (2, 2), (3, 3)]
    r = Correspondence.of(pairs, 4, 4)
    res = extend_correspondence(r, x, x, lam, F(1, 4))
    assert res.base_distortion == tiny
    assert res.certificate.value <= res.bound + res.slack


def test_extension_gate_refuses_large_distortion():
    # the doubled pair (1 -> 0) and (1 -> 1) forces distortion 1 >= lam/8
    x = PointSet.of([0, 1])
    r = Correspondence.of([(0, 0), (1, 0), (1, 1)], 2, 2)
    with pytest.raises(PreconditionError):
        extend_correspondence(r, x, x, F(1, 2), F(1, 4))


def test_extension_output_is_doubly_surjective():
    rng = random.Random(32)
    for _ in range(20):
        n = rng.randint(2, 4)
        spacing = F(rng.randint(2, 4), 4)
        x = PointSet.of([k * spacing for k in range(n)])
        lam = F(rng.randint(2, 4), rng.randint(6, 9))
        delta = lam / 64
        xn = PointSet(
            tuple(p + F(rng.randint(-8, 8), 8) * delta for p in x.points)
        )
        r = Correspondence.of([(i, i) for i in range(n)], n, n)
        res = extend_correspondence(r, x, xn, lam, F(1, 3))
        corr = res.correspondence
        # Correspondence construction already proves double surjectivity;
        # check the ground sets contain the originals as promised
        assert all(p in res.left.line_coords.points for p in x.points)
        assert all(p in res.right.line_coords.points for p in xn.points)
        assert corr.n_left == len(res.left.line_coords.points)
        assert res.certificate.value <= res.bound + res.slack


def test_extension_slack_halves_with_step():
    x = PointSet.of([0, 1, 2])
    r = Correspondence.of([(0, 0), (1, 1), (2, 2)], 3, 3)
    a = extend_correspondence(r, x, x, F(1, 2), F(1, 3))
    b = extend_correspondence(r, x, x, F(1, 2), F(1, 6))
    assert b.slack / a.slack == F(1, 2)


# ---------------------------------------------------------------------------
# exact ties: "ties resolve to the smaller coordinate", pair by pair


def test_nearest_correspondence_ties_to_the_smaller_point():
    # 1 is midway between 0 and 2; no other pairing reaches (1, 0)
    corr = Correspondence.nearest(PointSet.of([0, 2]), PointSet.of([1, F(3, 2)]))
    assert corr.pairs == ((0, 0), (1, 1))


def test_segment_affine_ties_to_the_smaller_sample():
    # [0, 2] onto [1/2, 3/2] around 1: the images 3/4 and 5/4 of the samples
    # 1/2 and 3/2 fall midway between two targets
    res = segment_correspondence(PointSet.of([1]), 1, F(1, 2), F(1, 2))
    assert res.left.line_coords.points == (0, F(1, 2), 1, F(3, 2), 2)
    assert res.right.line_coords.points == (F(1, 2), 1, F(3, 2))
    assert res.correspondence.pairs == ((0, 0), (1, 0), (2, 1), (3, 1), (4, 2))


def test_extension_shift_ties_to_the_smaller_sample():
    # the uncovered right sample 5/4 shifts from its source 19/16 back to
    # 9/8 + 1/16 = 19/16, midway between the left samples 9/8 and 5/4
    x = PointSet.of([F(1, 2), F(9, 8)])
    xn = PointSet.of([F(1, 2), F(19, 16)])
    r = Correspondence.of([(0, 0), (1, 1)], 2, 2)
    res = extend_correspondence(r, x, xn, F(5, 9), F(2, 3))
    assert res.left.line_coords.points[4:6] == (F(9, 8), F(5, 4))
    assert res.right.line_coords.points[4:6] == (F(19, 16), F(5, 4))
    assert res.correspondence.pairs == (
        (0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (4, 5), (5, 5), (6, 6), (7, 7)
    )


def test_extension_shifts_by_the_smallest_image():
    # 2 has the images 2 and 131/64: the uncovered sample 39/20 shifts by the
    # smaller one and stays put, where the larger would carry it to 2
    x, xn = PointSet.of([2]), PointSet.of([2, F(131, 64)])
    r = Correspondence.of([(0, 0), (0, 1)], 1, 2)
    res = extend_correspondence(r, x, xn, F(4, 9), F(1, 4))
    assert res.left.line_coords.points[3:5] == (F(39, 20), 2)
    assert res.right.line_coords.points[3:5] == (F(39, 20), 2)
    assert res.correspondence.pairs == (
        (0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)
    )


# ---------------------------------------------------------------------------
# differential test: the constructions against a plain Fraction reference


def _ref_nearest(pts, x):
    k = bisect_left(pts, x)
    if k == 0:
        return 0
    if k == len(pts):
        return len(pts) - 1
    return k - 1 if x - pts[k - 1] <= pts[k] - x else k


def _ref_sampled_thickening(x, r, h):
    spans = []
    for p in x.points:
        if spans and p - r <= spans[-1][1]:
            spans[-1][1] = p + r
        else:
            spans.append([p - r, p + r])
    pts = []
    for a, b in spans:
        pts.extend(a + i * h for i in range(int((b - a) // h) + 1))
        if pts[-1] != b:
            pts.append(b)
    return pts


def _ref_certified(pairs, left, right):
    corr = Correspondence.of(pairs, len(left), len(right))
    sx = FiniteMetricSpace.from_line(PointSet(tuple(left)))
    sy = FiniteMetricSpace.from_line(PointSet(tuple(right)))
    cert = distortion(corr, sx, sy)
    return tuple(left), tuple(right), corr.pairs, cert.value, cert.witness


def _ref_segment(x, r1, r2, h):
    s1 = _ref_sampled_thickening(x, r1, h)
    s2 = _ref_sampled_thickening(x, r2, h)
    pairs = set()
    for p in x.points:
        for ai, a in enumerate(s1):
            if p - r1 <= a <= p + r1:
                image = p + (a - p) * r2 / r1 if r1 > 0 else p
                pairs.add((ai, _ref_nearest(s2, image)))
        for bi, b in enumerate(s2):
            if p - r2 <= b <= p + r2:
                preimage = p + (b - p) * r1 / r2 if r2 > 0 else p
                pairs.add((_ref_nearest(s1, preimage), bi))
    return _ref_certified(pairs, s1, s2)


def _ref_extension(r, x, xn, lam, h):
    radius = lam / (1 - lam)
    left = sorted(set(x.points) | set(_ref_sampled_thickening(x, radius, h)))
    right = sorted(set(xn.points) | set(_ref_sampled_thickening(xn, radius, h)))
    pairs = {(left.index(x.points[i]), right.index(xn.points[j])) for i, j in r.pairs}
    covered_left = {a for a, _ in pairs}
    covered_right = {b for _, b in pairs}
    for ai, a in enumerate(left):
        if ai not in covered_left:
            src = _ref_nearest(x.points, a)
            shifted = xn.points[min(r.image_of(src))] + (a - x.points[src])
            pairs.add((ai, _ref_nearest(right, shifted)))
    for bi, b in enumerate(right):
        if bi not in covered_right:
            src = _ref_nearest(xn.points, b)
            shifted = x.points[min(r.preimage_of(src))] + (b - xn.points[src])
            pairs.add((_ref_nearest(left, shifted), bi))
    return _ref_certified(pairs, left, right)


def _result(res):
    return (
        res.left.line_coords.points,
        res.right.line_coords.points,
        res.correspondence.pairs,
        res.certificate.value,
        res.certificate.witness,
    )


def _random_radius(rng):
    # a fifth of the radii are zero; the rest rarely divide by the step
    return F(0) if rng.random() < 0.2 else random_scalar(rng, F(0), F(1), 9)


def test_segment_matches_fraction_reference():
    rng = random.Random(41)
    zero_radii = 0
    for _ in range(300):
        x = harness.random_point_set(
            rng, harness.GeneratorConfig(window=Window.of(0, 3)), max_points=4
        )
        r1, r2 = _random_radius(rng), _random_radius(rng)
        h = F(rng.randint(1, 3), rng.randint(2, 7))
        zero_radii += r1 == 0 or r2 == 0
        res = segment_correspondence(x, r1, r2, h)
        assert _result(res) == _ref_segment(x, r1, r2, h), (x, r1, r2, h)
        assert (res.continuum_bound, res.slack) == (2 * abs(r1 - r2), 2 * h)
    assert zero_radii >= 60


def _random_relation(rng, x, xn):
    """The nearest-point correspondence, sometimes with extra pairs."""
    pairs = set(Correspondence.nearest(x, xn).pairs)
    for _ in range(rng.choice((0, 0, 1, 2))):
        pairs.add((rng.randrange(len(x)), rng.randrange(len(xn))))
    return Correspondence.of(pairs, len(x), len(xn))


def test_extension_matches_fraction_reference():
    rng = random.Random(42)
    kinds = Counter()
    for case in range(320):
        lam = F(rng.randint(2, 5), rng.randint(6, 9))
        h = F(rng.randint(1, 2), rng.randint(3, 7))
        kind = ("perturbed", "swapped", "random", "doubled")[case % 4]
        if kind == "perturbed":
            inst = harness._perturbed_instance(rng, lam)
            x, xn = inst["x"], inst["xn"]
            r = _random_relation(rng, x, xn)
        elif kind == "swapped":
            inst = harness._swap_instance(rng, lam)
            x = xn = inst["x"]
            r = harness._swapped(len(x), inst["k"])
        else:
            x = harness.random_point_set(
                rng, harness.GeneratorConfig(window=Window.of(0, 2)), max_points=3
            )
            # distinct points differ by at least 1/4032: the jitter keeps the order
            xn = PointSet(tuple(p + F(rng.randint(-2, 2), 16384) for p in x.points))
            if kind == "doubled":  # a second image close to one point
                xn = PointSet.of([*xn, rng.choice(xn.points) + F(rng.randint(1, 6), 64)])
            r = _random_relation(rng, x, xn)
        try:
            res = extend_correspondence(r, x, xn, lam, h)
        except PreconditionError:
            kinds["refused"] += 1
            continue
        kinds[kind] += 1
        assert _result(res) == _ref_extension(r, x, xn, lam, h), (r, x, xn, lam, h)
        base = distortion(
            r, FiniteMetricSpace.from_line(x), FiniteMetricSpace.from_line(xn)
        ).value
        assert (res.base_distortion, res.bound, res.slack) == (base, 5 * base, 2 * h)
    assert min(kinds.values()) >= 10, kinds


@pytest.mark.parametrize("lam, step, right, message", [
    (0, "1/8", [0, 1], "lam must lie strictly between 0 and 1"),
    (1, "1/8", [0, 1], "lam must lie strictly between 0 and 1"),
    ("1/2", 0, [0, 1], "step must be positive"),
    ("1/2", "1/8", [0, 1, 2], "correspondence shape does not match the point sets"),
], ids=["lam-0", "lam-1", "step-0", "shape"])
def test_extend_correspondence_refusals(lam, step, right, message):
    r = Correspondence.of([(0, 0), (1, 1)], 2, 2)
    x = PointSet.of([0, 1])
    with pytest.raises(ValueError) as exc:
        extend_correspondence(r, x, PointSet.of(right), lam, step)
    assert type(exc.value) is ValueError and str(exc.value) == message
