"""Constructive correspondences with certified distortion bounds.

Both constructions operate on discretized continuum sets, so each result
carries the continuum bound and a separate additive discretization slack
(2 * step).  The slack is never folded into the bound: the certified
inequality is  value <= bound + slack,  and the slack term halves exactly
when the step halves.  Both run on one int scale, `geometry._scaled` of the
stored point sets, radii and step; the returned sets are built from their
ints by the int constructor, with no per-point Fraction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, NamedTuple

from .correspondence import (
    Correspondence,
    DistortionCertificate,
    FiniteMetricSpace,
    Pair,
    distortion,
)
from .errors import PreconditionError
from .geometry import (
    PointSet,
    ScalarLike,
    _clamp_fuse,
    _form,
    _nearest,
    _sample,
    _scaled,
    as_scalar,
)
from .homotopy import f_map


def _sampled_thickening(points: list[int], r: int, h: int) -> list[int]:
    return _sample(_clamp_fuse(points, points, r, points[0] - r, points[-1] + r), h)


def _certified(
    pairs: Iterable[Pair], xs: list[int], ys: list[int], scale: int
) -> tuple[Correspondence, DistortionCertificate, FiniteMetricSpace, FiniteMetricSpace]:
    """The correspondence, its certificate and both line spaces over ``scale``."""
    corr = Correspondence.of(pairs, len(xs), len(ys))
    left, right = (FiniteMetricSpace.from_line(PointSet.from_ints(pts, scale))
                   for pts in (xs, ys))
    return corr, distortion(corr, left, right), left, right


class SegmentCorrespondence(NamedTuple):
    correspondence: Correspondence
    certificate: DistortionCertificate
    left: FiniteMetricSpace
    right: FiniteMetricSpace
    continuum_bound: Fraction
    slack: Fraction


def segment_correspondence(
    x: PointSet, r1: ScalarLike, r2: ScalarLike, step: ScalarLike
) -> SegmentCorrespondence:
    """Affinely pair the sampled r1- and r2-thickenings of a point set.

    For each source point p the segment [p - r1, p + r1] maps affinely onto
    [p - r2, p + r2]; sampled points are paired with the nearest sample of
    the affine image (ties to the smaller coordinate), in both directions so
    the result is doubly surjective.  Certified: value <= 2|r1 - r2| + slack.
    """
    rad1, rad2 = as_scalar(r1), as_scalar(r2)
    h = as_scalar(step)
    if rad1 < 0 or rad2 < 0:
        raise ValueError("radii must be nonnegative")
    if h <= 0:
        raise ValueError("step must be positive")

    scale, (pts, (ir1, ir2, ih)) = _scaled((x.ints, x.den), _form((rad1, rad2, h)))
    s1, s2 = (_sampled_thickening(pts, r, ih) for r in (ir1, ir2))
    pairs = set(_affine_pairs(pts, s1, ir1, s2, ir2))
    pairs.update((k, l) for l, k in _affine_pairs(pts, s2, ir2, s1, ir1))
    return SegmentCorrespondence(
        *_certified(pairs, s1, s2, scale), 2 * abs(rad1 - rad2), 2 * h
    )


def _affine_pairs(
    centres: list[int], src: list[int], r_src: int, dst: list[int], r_dst: int
) -> list[Pair]:
    """(k, l) for each sample src[k] within r_src of a centre p and the dst[l]
    nearest p + (src[k] - p)·r_dst/r_src, compared times r_src (p at r_src = 0)."""
    den, num = (r_src, r_dst) if r_src else (1, 0)
    targets = [den * b for b in dst]
    return [
        (k, _nearest(targets, den * p + (src[k] - p) * num))
        for p in centres
        for k in range(bisect_left(src, p - r_src), bisect_right(src, p + r_src))
    ]


class ExtendedCorrespondence(NamedTuple):
    correspondence: Correspondence
    certificate: DistortionCertificate
    left: FiniteMetricSpace
    right: FiniteMetricSpace
    base_distortion: Fraction
    bound: Fraction
    slack: Fraction


def extend_correspondence(
    r: Correspondence,
    x: PointSet,
    xn: PointSet,
    lam: ScalarLike,
    step: ScalarLike,
) -> ExtendedCorrespondence:
    """Extend a correspondence of point sets to their sampled thickenings.

    Ground sets are the original points united with samples of the
    lam/(1-lam)-thickenings.  Every uncovered point a near a source point p
    is paired by the shift rule with p' + (a - p) for the canonical (smallest)
    image p' of p, rounded to the nearest sample; symmetrically on the other
    side.  Requires dis r < lam/8, the working hypothesis under which the
    extension distorts by at most 5 * dis r (plus slack).
    """
    lam_v = as_scalar(lam)
    h = as_scalar(step)
    if not 0 < lam_v < 1:
        raise ValueError("lam must lie strictly between 0 and 1")
    if h <= 0:
        raise ValueError("step must be positive")
    if r.n_left != len(x) or r.n_right != len(xn):
        raise ValueError("correspondence shape does not match the point sets")

    radius = f_map(lam_v)
    scale, (xs, ys, (ir, ih)) = _scaled(
        (x.ints, x.den), (xn.ints, xn.den), _form((radius, h)))
    base = distortion(r, *map(FiniteMetricSpace.from_line, (x, xn))).value
    if not base < lam_v / 8:
        raise PreconditionError(
            f"dis r = {base} is not below lam/8 = {lam_v / 8}; "
            "the 5x extension bound is only guaranteed under that hypothesis"
        )

    left = sorted({*xs, *_sampled_thickening(xs, ir, ih)})
    right = sorted({*ys, *_sampled_thickening(ys, ir, ih)})
    pairs = {(bisect_left(left, xs[i]), bisect_left(right, ys[j])) for i, j in r.pairs}
    covered_left = {a for a, _ in pairs}
    covered_right = {b for _, b in pairs}
    images = {i: min(r.image_of(i)) for i in range(len(x))}
    preimages = {j: min(r.preimage_of(j)) for j in range(len(xn))}

    for ai, a in enumerate(left):
        if ai not in covered_left:
            src = _nearest(xs, a)
            pairs.add((ai, _nearest(right, ys[images[src]] + a - xs[src])))

    for bi, b in enumerate(right):
        if bi not in covered_right:
            src = _nearest(ys, b)
            pairs.add((_nearest(left, xs[preimages[src]] + b - ys[src]), bi))

    return ExtendedCorrespondence(
        *_certified(pairs, left, right, scale), base, 5 * base, 2 * h
    )
