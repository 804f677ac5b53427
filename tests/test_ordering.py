"""Order-preservation and inverted-gap checkers, gates included."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest

from netline import (
    Correspondence,
    FiniteMetricSpace,
    PointSet,
    PreconditionError,
    check_order_preservation,
    order_violation_bound,
)
from netline import ordering
from netline.ordering import (
    OrderPreservationReport,
    OrderViolationReport,
    canonical_selection,
    inverted_pair_violations,
)


def line(*coords) -> FiniteMetricSpace:
    return FiniteMetricSpace.from_line(PointSet.of(coords))


def test_isometry_passes():
    x = line(0, 100, 200)
    r = Correspondence.of([(0, 0), (1, 1), (2, 2)], 3, 3)
    rep = check_order_preservation(r, x, x)
    assert rep.passed and rep.distortion == 0 and rep.separation == 100


def test_noisy_identity_passes():
    # identity on a 100-separated triple with one extra low-noise pair:
    # the noise point sits at 1, so the distortion is exactly 1 and the
    # hypothesis 100 > 2 holds comfortably
    x = line(0, 100, 200)
    y = line(0, 1, 100, 200)
    r = Correspondence.of([(0, 0), (0, 1), (1, 2), (2, 3)], 3, 4)
    rep = check_order_preservation(r, x, y)
    assert rep.passed
    assert rep.distortion == 1
    assert rep.separation == 100


def test_gate_refuses_order_swap():
    # swapping 1 and 2 distorts by 1 = separation: hypothesis fails, so a
    # betweenness violation here is not a bug and the checker must refuse
    z = line(0, 1, 2)
    r = Correspondence.of([(0, 0), (1, 2), (2, 1)], 3, 3)
    with pytest.raises(PreconditionError):
        check_order_preservation(r, z, z)


def test_selection_parameter():
    x = line(0, 100, 200)
    y = line(0, 1, 100, 200)
    r = Correspondence.of([(0, 0), (0, 1), (1, 2), (2, 3)], 3, 4)
    assert canonical_selection(r) == (0, 2, 3)
    rep = check_order_preservation(r, x, y, selection=[1, 2, 3])
    assert rep.passed
    with pytest.raises(ValueError):
        check_order_preservation(r, x, y, selection=[3, 2, 3])  # (0,3) not in r
    with pytest.raises(ValueError, match="every left point"):
        check_order_preservation(r, x, y, selection=[1, 2])  # one image short


def test_small_sets_pass_vacuously():
    x1 = line(0)
    r1 = Correspondence.of([(0, 0)], 1, 1)
    assert check_order_preservation(r1, x1, x1).passed
    x2 = line(0, 10)
    r2 = Correspondence.of([(0, 0), (1, 1)], 2, 2)
    rep = check_order_preservation(r2, x2, x2)
    assert rep.passed and rep.triples_checked == 0


def test_order_violation_vacuous_pass():
    x = line(0, 1, 200)
    r = Correspondence.of([(0, 0), (1, 1), (2, 2)], 3, 3)
    rep = order_violation_bound(r, x, x)
    assert rep.passed and rep.inverted_pairs == 0
    with pytest.raises(ValueError, match="witness margin must be nonnegative"):
        order_violation_bound(r, x, x, witness_margin=F(-1, 2))


def test_order_violation_witnessed_swap_passes_strictly():
    # adjacent swap at gap 1 with a far witness at 200: the far pairs force
    # distortion exactly 1, so the inverted gap satisfies 1 <= 2 strictly
    # (equality is unreachable: the witness constraints force gap < 2c)
    x = line(0, 1, 200)
    r = Correspondence.of([(0, 1), (1, 0), (2, 2)], 3, 3)
    rep = order_violation_bound(r, x, x)
    assert rep.passed
    assert rep.distortion == 1
    assert rep.inverted_pairs == 1


def test_order_violation_without_witness_is_inconclusive():
    x = line(0, 1, 5)
    r = Correspondence.of([(0, 1), (1, 0), (2, 2)], 3, 3)
    rep = order_violation_bound(r, x, x)
    assert rep.status == "inconclusive"
    assert rep.unwitnessed == ((0, 1, 1, 0),)


def test_order_violation_global_reversal_is_inconclusive():
    # reversing a symmetric set is an isometry (distortion 0) whose "inverted"
    # pairs are consistent with the globally inverted order; far points exist
    # but their images sit far LEFT, so no witness is correctly oriented and
    # the 2c bound is simply not applicable
    x = line(0, 100, 200, 300)
    r = Correspondence.of([(0, 3), (1, 2), (2, 1), (3, 0)], 4, 4)
    rep = order_violation_bound(r, x, x)
    assert rep.distortion == 0
    assert rep.inverted_pairs > 0
    assert rep.status == "inconclusive"


def test_checker_flags_fabricated_violation():
    # the bound checker itself, fed a distortion smaller than the instance's
    # true one, must flag the swap it would otherwise accept; the second call
    # puts xs, c and the margin over the scale 4, and ys stay on their own;
    # the third lists the pairs in reverse and must report the same
    pts = (0, 1, 200)
    pairs = ((0, 1), (1, 0), (2, 2))
    selection = (1, 0, 2)
    violations, unwitnessed, inverted = inverted_pair_violations(
        pairs, pts, pts, 1, 100, selection
    )
    assert inverted == 1 and not violations and not unwitnessed
    violations, _, _ = inverted_pair_violations(
        pairs, (0, 4, 800), pts, 1, 400, selection
    )
    assert violations == [(0, 1, 1, 0)]
    assert inverted_pair_violations(
        pairs[::-1], (0, 4, 800), pts, 1, 400, selection
    ) == ([(0, 1, 1, 0)], [], 1)


def _random_line(rng: random.Random, n: int) -> FiniteMetricSpace:
    coords = {F(rng.randint(-90, 90), rng.choice((2, 3, 5, 7))) for _ in range(n)}
    return FiniteMetricSpace.from_line(PointSet(tuple(sorted(coords))))


def _random_pair(rng: random.Random):
    """A line pair with a correspondence: a jittered copy under the nearest
    correspondence (often inside the order-preservation hypothesis), or two
    independent sets under a random surjective relation."""
    x = _random_line(rng, rng.randint(1, 7))
    if rng.random() < 0.5:
        pts = x.line_coords.points
        jitter = [p + F(rng.randint(-3, 3), 7 * rng.randint(1, 3)) for p in pts]
        y = FiniteMetricSpace.from_line(PointSet.of(jitter))
        return x, y, Correspondence.nearest(x.line_coords, y.line_coords)
    y = _random_line(rng, rng.randint(1, 7))
    pairs = {(i, rng.randrange(y.n)) for i in range(x.n)}
    pairs |= {(rng.randrange(x.n), j) for j in range(y.n)}
    pairs |= {(rng.randrange(x.n), rng.randrange(y.n)) for _ in range(rng.randint(0, 3))}
    return x, y, Correspondence.of(pairs, x.n, y.n)


def _order_reference(x, y, c, sel):
    """check_order_preservation's report, scanned on the Fraction points;
    None where the separation gate refuses."""
    xs, ys = x.line_coords.points, y.line_coords.points
    sep = min(b - a for a, b in zip(xs, xs[1:])) if len(xs) > 1 else None
    if sep is not None and sep <= 2 * c:
        return None
    for triples, (q, p, rr) in enumerate(combinations(range(len(xs)), 3), 1):
        iq, ip, ir = ys[sel[q]], ys[sel[p]], ys[sel[rr]]
        if not min(iq, ir) <= ip <= max(iq, ir):
            return OrderPreservationReport("fail", c, sep, triples, (q, p, rr))
    return OrderPreservationReport("pass", c, sep, comb(len(xs), 3), None)


def test_int_scans_match_fraction_reference(monkeypatch):
    # each pair is checked with its true distortion, a ninth of it and 0:
    # understated ones let failing instances through both gates, so the fail
    # paths are compared too
    real = ordering.distortion
    factor = [F(1)]

    def understated(r, x, y):
        cert = real(r, x, y)
        return replace(cert, value=cert.value * factor[0])

    monkeypatch.setattr(ordering, "distortion", understated)
    rng = random.Random(2026)
    margin = F(7, 3)
    seen = Counter()
    for _ in range(500):
        x, y, r = _random_pair(rng)
        sel = canonical_selection(r)
        for factor[0] in (F(1), F(1, 9), F(0)):
            c = understated(r, x, y).value
            v, u, inverted = inverted_pair_violations(
                r.pairs, x.line_coords.points, y.line_coords.points, c, margin, sel
            )
            status = "fail" if v else "inconclusive" if u else "pass"
            expected = OrderViolationReport(status, c, inverted, tuple(v), tuple(u))
            assert order_violation_bound(r, x, y, witness_margin=margin) == expected
            try:
                got = check_order_preservation(r, x, y)
            except PreconditionError:
                got = None
            assert got == _order_reference(x, y, c, sel)
            seen[status] += 1
            seen["refused" if got is None else got.status + " order"] += 1
    # every status of both checkers, and the refusal, occurs repeatedly
    assert len(seen) == 6 and min(seen.values()) >= 100, seen


def test_requires_line_embedding():
    band = FiniteMetricSpace.from_matrix([[0, 1], [1, 0]])
    r = Correspondence.of([(0, 0), (1, 1)], 2, 2)
    with pytest.raises(ValueError):
        check_order_preservation(r, band, band)
    with pytest.raises(ValueError):
        order_violation_bound(r, band, band)
