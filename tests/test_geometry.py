"""Exact geometry: frozen examples plus seeded property suites.

The Hausdorff sweep is cross-checked against an independent oracle built on
a different identity: d_H(A, B) = sup_x | d(x, A) - d(x, B) |, whose sup is
attained at an endpoint or gap midpoint of either set.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from netline import (
    FiniteMetricSpace,
    IntervalUnion,
    PointSet,
    Window,
    as_scalar,
    contract,
    covering_radius,
    hausdorff,
    is_eps_net,
    point_to_set_distance,
    sample,
    separation,
    thicken,
)
from netline.formats import format_space, loads_space
from netline.geometry import _directed_sup, _point_sup
from netline.harness import GeneratorConfig, random_point_set, random_scalar


def _spans(s) -> tuple:
    """The set's spans as Fraction pairs, from its public views."""
    if isinstance(s, IntervalUnion):
        return s.intervals
    return tuple(zip(s.points, s.points))


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


def written(v: F, rng: random.Random) -> str:
    """v as a portable but non-canonical scalar, when it has one: "-0",
    integer-valued ("10/5"), decimal ("0.25") or unreduced ("6/4")."""
    q = v.denominator
    k = max(q.bit_length() - 1, 0)
    if v == 0 and rng.random() < 0.5:
        return "-0"
    if q == 1 and rng.random() < 0.5:
        return f"{v.numerator * 5}/5"
    if q > 1 and 10 ** k % q == 0 and rng.random() < 0.5:  # q = 2^a 5^b, a <= k
        digits = str(abs(v.numerator) * 10 ** k // q).rjust(k + 1, "0")
        return f"{'-' * (v < 0)}{digits[:-k]}.{digits[-k:]}"
    m = rng.randint(2, 4)
    return f"{v.numerator * m}/{q * m}"


def reparsed(s, rng: random.Random):
    """s through a document written with non-canonical scalars and shuffled
    spans: the parsed set equals and hashes like s, and prints canonically."""
    if isinstance(s, PointSet):
        doc = {"kind": "points", "coords": [written(p, rng) for p in s.points]}
    else:
        spans = [[written(a, rng), written(b, rng)] for a, b in s.intervals]
        doc = {"kind": "intervals", "intervals": rng.sample(spans, len(spans))}
    parsed = loads_space(json.dumps(doc))
    assert parsed == s and hash(parsed) == hash(s)
    assert format_space(parsed) == format_space(s)
    return parsed


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
    with pytest.raises(ValueError, match="at least one interval"):
        IntervalUnion.merge([])
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
    with pytest.raises(TypeError, match="got Window"):
        hausdorff(Window.of(0, 1), PointSet.of([0]))


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
        want = sup_norm_hausdorff(a, b)
        assert hausdorff(a, b) == want
        # the same sets parsed straight to ints from documents
        assert hausdorff(reparsed(a, rng), reparsed(b, rng)) == want


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
        want = sup_norm_hausdorff(a, b)
        assert hausdorff(a, b) == want
        pa, pb = reparsed(a, rng), reparsed(b, rng)
        assert hausdorff(pa, pb) == want
        x = coprime_scalar(rng, -25, 25)
        near = linear_dist_to_spans(x, _spans(a))
        assert point_to_set_distance(x, a) == point_to_set_distance(x, pa) == near
    assert touched >= 100


def points_hausdorff(a: PointSet, b: PointSet) -> F:
    """Independent oracle for two point sets: each directed sup is attained
    at a point of the source."""
    return max(max(linear_dist_to_spans(x, _spans(t)) for x in s.points)
               for s, t in ((a, b), (b, a)))


def point_pair(rng: random.Random, kind: str) -> tuple[PointSet, PointSet]:
    a = [coprime_scalar(rng, -20, 20) for _ in range(rng.randint(1, 30))]
    if kind == "in-gap":  # b inside one gap of a, its midpoint now and then
        ends = sorted({*a, max(a) + coprime_scalar(rng, 1, 3)})
        lo, hi = rng.choice(list(zip(ends, ends[1:])))
        b = [lo + (hi - lo) * F(rng.randint(1, 96), 97) for _ in range(rng.randint(1, 5))]
        b += [(lo + hi) / 2] * (rng.random() < 0.5)
    elif kind == "shared":
        b = rng.sample(a, rng.randint(1, len(a)))
        b += [coprime_scalar(rng, -20, 20) for _ in range(rng.randint(0, 5))]
    elif kind == "identical":
        b = list(a)
    else:  # mixed denominators, or one set a singleton
        b = [coprime_scalar(rng, -20, 20) for _ in range(rng.randint(1, 30))]
        if kind == "singleton":
            b = b[:1]
    return PointSet.of(a), PointSet.of(b)


@pytest.mark.parametrize("kind", ["mixed", "shared", "singleton", "in-gap", "identical"])
def test_point_sweep_matches_span_sweep_and_oracle(kind):
    rng = random.Random(f"point-pairs:{kind}")
    for _ in range(300):
        a, b = point_pair(rng, kind)
        if rng.random() < 0.5:
            a, b = b, a
        want = points_hausdorff(a, b)
        assert hausdorff(a, b) == hausdorff(a.to_intervals(), b.to_intervals()) == want
        assert hausdorff(a, a) == 0


def flat_spans(rng: random.Random, spans: int, lo: int, extra=()) -> list[int]:
    """About ``spans`` flat sorted spans of even ints from ``lo`` on, some of
    them degenerate, with the values of ``extra`` among their ends."""
    ends = sorted({*rng.sample(range(lo, lo + 8 * spans + 8), 2 * spans), *extra})
    flat = []
    for a, b in zip(ends[::2], ends[1::2]):
        flat += (2 * a, 2 * (b if b in extra or rng.random() < 0.8 else a))
    return flat if len(ends) % 2 == 0 else flat + [2 * ends[-1]] * 2


def directed_oracle(src: list[int], dst: list[int], best: int) -> int:
    """max(best, sup of the linear distance to dst's spans over src's ends
    and dst's gap midpoints that lie in a span of src)."""
    dst_spans, src_spans = list(zip(dst[::2], dst[1::2])), list(zip(src[::2], src[1::2]))
    mids = [(b0 + a1) // 2 for (_, b0), (a1, _) in zip(dst_spans, dst_spans[1:])]
    points = src + [x for x in mids if any(a <= x <= b for a, b in src_spans)]
    return max(best, *(linear_dist_to_spans(x, dst_spans) for x in points))


def test_directed_sweep_matches_oracle_one_direction_at_a_time():
    rng = random.Random(107)
    seen = {"skipped": 0, "touched": 0, "left": 0, "right": 0}
    for _ in range(400):
        dst = flat_spans(rng, rng.choice((1, 2, 5, 30, 300)), rng.randint(-60, 20))
        gaps = list(zip(dst[1::2], dst[2::2]))
        # half the time, put an even gap midpoint of dst on an end of src
        mids = [(b0 + a1) // 4 for b0, a1 in gaps if (b0 + a1) % 4 == 0]
        touch = [rng.choice(mids)] if mids and rng.random() < 0.5 else []
        src = flat_spans(rng, rng.choice((1, 3, 12, 300)), rng.randint(-80, 40), touch)
        best = rng.choice((0, 0, rng.randint(0, 40)))
        want = directed_oracle(src, dst, best)
        assert _directed_sup(src, dst, best) == want
        seen["skipped"] += 2 * sum((a1 - b0) // 2 <= want for b0, a1 in gaps) > len(gaps)
        seen["touched"] += bool(touch)
        seen["left"] += src[0] < dst[0]
        seen["right"] += src[-1] > dst[-1]
    assert min(seen.values()) >= 50, seen


def nearest_oracle(a: list[int], b: list[int]) -> int:
    """Independent oracle: the farthest point of either list from the other,
    by nearest distances over every pair of points."""
    return max(max(min(abs(x - y) for y in t) for x in s) for s, t in ((a, b), (b, a)))


def even_points(rng: random.Random, n: int, lo: int, span: int) -> list[int]:
    return sorted(2 * v for v in rng.sample(range(lo, lo + span), n))


def point_lists(rng: random.Random, kind: str) -> tuple[list[int], list[int]]:
    """Two lists of one case class; half the time the second also holds the
    ends of the first, so the end gaps read 0 and the inner gaps decide."""
    if kind == "shared":  # 1-7 points each, drawn from one pool of 9
        pool = even_points(rng, 9, 0, 12)
        a, b = (rng.sample(pool, rng.randint(1, 7)) for _ in range(2))
    elif kind == "one point":
        a, b = even_points(rng, 1, -20, 40), even_points(rng, rng.randint(1, 7), -20, 40)
    elif kind == "negative":
        a, b = (even_points(rng, rng.randint(1, 7), -60, 50) for _ in range(2))
    else:
        a, b = even_points(rng, 300, -900, 2000), even_points(rng, rng.randint(1, 300), -900, 2000)
    if rng.random() < 0.5:
        b = [*b, min(a), max(a)]
    return sorted(a), sorted(set(b))


@pytest.mark.parametrize("kind, count", [
    ("shared", 600), ("one point", 300), ("negative", 300), ("300 points", 60)])
def test_symmetric_point_sweep_matches_nearest_distance_oracle(kind, count):
    rng = random.Random(f"point-lists:{kind}")
    seen = Counter()
    for _ in range(count):
        a, b = point_lists(rng, kind)
        if rng.random() < 0.5:
            a, b = b, a
        want = nearest_oracle(a, b)
        assert _point_sup(a, b) == _point_sup(b, a) == want, (a, b)
        ends = max(abs(a[0] - b[0]), abs(a[-1] - b[-1]))
        seen["shares a point"] += bool(set(a) & set(b))
        seen["the ends score"] += want == ends
        seen["an inner gap scores"] += want > ends
    # a one-point list is farthest from an end of the other list
    inner = 0 if kind == "one point" else count // 20
    assert min(seen["shares a point"], seen["the ends score"]) >= count // 20, seen
    assert seen["an inner gap scores"] >= inner, seen


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


@pytest.mark.parametrize("ends", [(), ("lo",), ("hi",), ("lo", "hi")])
def test_covering_radius_matches_oracle_with_points_at_the_ends(ends):
    rng = random.Random(f"covering:{ends}")
    for _ in range(300):
        w = Window(coprime_scalar(rng, -20, 0), coprime_scalar(rng, 1, 20))
        pts = [w.lo + (w.hi - w.lo) * coprime_scalar(rng, 0, 1)
               for _ in range(rng.choice((1, 1, 2, 5, 20)))]
        a = PointSet.of(pts + [getattr(w, end) for end in ends])
        assert covering_radius(a, w) == sup_norm_hausdorff(a, w.span())
        # a single point, at an end or inside
        p = rng.choice((w.lo, w.hi, pts[0]))
        assert covering_radius(PointSet.of([p]), w) == max(p - w.lo, w.hi - p)


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


def fraction_merge(spans):
    """Reference merge on Fraction comparisons: sort, then fuse in one pass."""
    fused = []
    for a, b in sorted(spans):
        if a > b:
            raise ValueError(f"backwards interval [{a}, {b}]")
        if fused and a <= fused[-1][1]:
            fused[-1] = (fused[-1][0], max(fused[-1][1], b))
        else:
            fused.append((a, b))
    return tuple(fused)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def test_merge_matches_fraction_reference():
    """Unsorted, sorted, overlapping, touching, equal-left and backwards spans;
    in-order input skips the sort, and the first backwards span in sorted
    order is the one reported."""
    rng = random.Random(17)
    for _ in range(1500):
        spans = []
        for _ in range(rng.randint(1, 6)):
            a = F(rng.randint(-12, 12), rng.randint(1, 4))
            spans.append((a, a + F(rng.randint(-1, 10), rng.randint(1, 4))))
        if rng.random() < 0.5:
            spans.sort()
        got = _outcome(lambda s: IntervalUnion.merge(s).intervals, spans)
        assert got == _outcome(fraction_merge, spans), spans


def test_order_checks_match_fraction_comparisons():
    rng = random.Random(23)
    for _ in range(1000):
        pts = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.7:
            pts.sort()
        increasing = all(a < b for a, b in zip(pts, pts[1:]))
        assert _outcome(PointSet, tuple(pts)) == (
            PointSet(tuple(pts)) if increasing else "points must be strictly increasing"
        )
        spans = tuple(zip(pts[::2], pts[1::2]))
        if spans:
            backwards = [f"backwards interval [{a}, {b}]" for a, b in spans if a > b]
            apart = all(b0 < a1 for (_, b0), (a1, _) in zip(spans, spans[1:]))
            want = backwards[0] if backwards else (
                IntervalUnion(spans) if apart
                else "intervals must be disjoint and ordered; use merge()")
            assert _outcome(IntervalUnion, spans) == want


def test_scale_multiplies_every_point():
    rng = random.Random(5)
    for _ in range(50):
        points = PointSet.of(random_scalar(rng, F(-9), F(9), 8)
                             for _ in range(rng.randint(1, 6)))
        for factor in (F(1), F(3, 7), F(22, 3), 4, "5/2"):
            want = PointSet.of(p * as_scalar(factor) for p in points)
            assert points.scale(factor) == want


def test_inexact_scalars_and_nonpositive_scales_are_refused():
    with pytest.raises(TypeError) as exc:
        as_scalar(True)
    assert str(exc.value) == "not a scalar: True"
    with pytest.raises(TypeError) as exc:
        as_scalar(0.5)
    assert str(exc.value) == "cannot use float as an exact scalar"
    for factor in (0, "-1/2"):
        with pytest.raises(ValueError) as exc:
            PointSet.of([0, 1]).scale(factor)
        assert str(exc.value) == "scale factor must be positive"
    # a library call reads a string in the documents' grammar on every Python,
    # and refuses a huge exponent before `Fraction` computes 10**exp
    calls = [
        lambda v: PointSet.of(["0", v]),
        lambda v: Window.of("0", v),
        lambda v: FiniteMetricSpace.from_matrix([["0", v], [v, "0"]]),
        lambda v: thicken(PointSet.of([0]), v),
        lambda v: contract(PointSet.of([0]), v, Window.of(0, 1)),
    ]
    for value, message in [("1_000", "Invalid literal for Fraction: '1_000'"),
                           ("1e100000000", "exponent beyond +-4300")]:
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call(value)
            assert str(exc.value) == message
