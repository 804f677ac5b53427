"""Exact geometry of finite point sets and closed interval unions on the line.

Every coordinate, radius and distance is a `fractions.Fraction`; nothing in
this module ever rounds.  The ambient real line is modelled by a finite
`Window`, and covering radii are always taken relative to one.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

Scalar = Fraction

ScalarLike = Union[Fraction, int, str]


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, Fraction or rational string ("3", "1/2", "0.25").

    Floats are rejected: a binary float would smuggle rounding into code
    that promises exact arithmetic.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"not a scalar: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as an exact scalar")


def scalar_str(value: Fraction) -> str:
    """Canonical text form: "p/q", or plain "p" for integers."""
    return str(value)


@dataclass(frozen=True)
class PointSet:
    """Nonempty, strictly increasing finite set of coordinates."""

    points: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a point set needs at least one point")
        for a, b in zip(self.points, self.points[1:]):
            if not a < b:
                raise ValueError("points must be strictly increasing")

    @classmethod
    def of(cls, values: Iterable[ScalarLike]) -> "PointSet":
        """Build from arbitrary values: coerced, sorted, duplicates dropped."""
        return cls(tuple(sorted({as_scalar(v) for v in values})))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.points)

    def __contains__(self, value: object) -> bool:
        return value in self.points

    @property
    def first(self) -> Fraction:
        return self.points[0]

    @property
    def last(self) -> Fraction:
        return self.points[-1]

    def shift(self, delta: ScalarLike) -> "PointSet":
        d = as_scalar(delta)
        return PointSet(tuple(p + d for p in self.points))

    def scale(self, factor: ScalarLike) -> "PointSet":
        f = as_scalar(factor)
        if f <= 0:
            raise ValueError("scale factor must be positive")
        return PointSet(tuple(p * f for p in self.points))

    def index_nearest(self, x: Fraction) -> int:
        """Index of the nearest point; ties resolve to the smaller point."""
        pts = self.points
        k = bisect_left(pts, x)
        if k == 0:
            return 0
        if k == len(pts):
            return len(pts) - 1
        return k - 1 if x - pts[k - 1] <= pts[k] - x else k

    def nearest(self, x: Fraction) -> Fraction:
        return self.points[self.index_nearest(x)]

    def to_intervals(self) -> "IntervalUnion":
        return IntervalUnion(tuple((p, p) for p in self.points))


@dataclass(frozen=True)
class IntervalUnion:
    """Nonempty union of disjoint, non-touching closed intervals.

    Degenerate intervals [a, a] are legal, so every PointSet embeds here and
    a single Hausdorff sweep covers both kinds of set.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ValueError("an interval union needs at least one interval")
        for a, b in self.intervals:
            if a > b:
                raise ValueError(f"backwards interval [{a}, {b}]")
        for (_, b0), (a1, _) in zip(self.intervals, self.intervals[1:]):
            if not b0 < a1:
                raise ValueError("intervals must be disjoint and ordered; use merge()")

    @classmethod
    def merge(cls, spans: Iterable[tuple[ScalarLike, ScalarLike]]) -> "IntervalUnion":
        """Canonicalize: sort, then fuse overlapping or touching intervals."""
        items = sorted((as_scalar(a), as_scalar(b)) for a, b in spans)
        if not items:
            raise ValueError("an interval union needs at least one interval")
        merged: list[tuple[Fraction, Fraction]] = []
        for a, b in items:
            if a > b:
                raise ValueError(f"backwards interval [{a}, {b}]")
            if merged and a <= merged[-1][1]:
                lo, hi = merged[-1]
                merged[-1] = (lo, max(hi, b))
            else:
                merged.append((a, b))
        return cls(tuple(merged))

    def __len__(self) -> int:
        return len(self.intervals)

    def __contains__(self, x: object) -> bool:
        return any(a <= x <= b for a, b in self.intervals)

    @property
    def lo(self) -> Fraction:
        return self.intervals[0][0]

    @property
    def hi(self) -> Fraction:
        return self.intervals[-1][1]

    def subset_of(self, other: "IntervalUnion") -> bool:
        return all(
            any(oa <= a and b <= ob for oa, ob in other.intervals)
            for a, b in self.intervals
        )

    def clip(self, lo: Fraction, hi: Fraction) -> "IntervalUnion":
        """Intersection with [lo, hi]; empty result is an error."""
        kept = [
            (max(a, lo), min(b, hi))
            for a, b in self.intervals
            if max(a, lo) <= min(b, hi)
        ]
        if not kept:
            raise ValueError("clip leaves nothing inside the window")
        return IntervalUnion(tuple(kept))


@dataclass(frozen=True)
class Window:
    """The finite segment [lo, hi] standing in for the whole line."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("window needs lo < hi")

    @classmethod
    def of(cls, lo: ScalarLike, hi: ScalarLike) -> "Window":
        return cls(as_scalar(lo), as_scalar(hi))

    def span(self) -> IntervalUnion:
        return IntervalUnion(((self.lo, self.hi),))

    def contains(self, points: PointSet) -> bool:
        return self.lo <= points.first and points.last <= self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


SetOnLine = Union[PointSet, IntervalUnion]


def _spans(s: SetOnLine) -> tuple[tuple[Fraction, Fraction], ...]:
    if isinstance(s, PointSet):
        return tuple((p, p) for p in s.points)
    if isinstance(s, IntervalUnion):
        return s.intervals
    raise TypeError(f"expected PointSet or IntervalUnion, got {type(s).__name__}")


def point_to_set_distance(p: ScalarLike, s: SetOnLine) -> Fraction:
    """Exact distance from a point to the nearest component of the set."""
    return _dist_to_spans(as_scalar(p), _spans(s))


def _dist_to_spans(x: Fraction, spans: tuple[tuple[Fraction, Fraction], ...]) -> Fraction:
    """Distance from x to sorted disjoint spans, by bisection: O(log n)."""
    # only the last span starting at or before x and the first one starting
    # after it can be nearest
    k = bisect_right(spans, x, key=lambda span: span[0])
    candidates = []
    if k > 0:
        candidates.append(max(x - spans[k - 1][1], Fraction(0)))
    if k < len(spans):
        candidates.append(spans[k][0] - x)
    return min(candidates)


def hausdorff(a: SetOnLine, b: SetOnLine) -> Fraction:
    """Exact Hausdorff distance between two sets on the line.

    The directed sup over a continuum is piecewise linear in the moving
    point, so it is attained at an interval endpoint of the source or at a
    gap midpoint of the target that falls inside the source.  A finite
    sweep over those critical points is exact.
    """
    sa, sb = _spans(a), _spans(b)
    return max(_directed_sup(sa, sb), _directed_sup(sb, sa))


def _directed_sup(src: tuple[tuple[Fraction, Fraction], ...],
                  dst: tuple[tuple[Fraction, Fraction], ...]) -> Fraction:
    critical: list[Fraction] = []
    for a, b in src:
        critical.append(a)
        critical.append(b)
    for (_, b0), (a1, _) in zip(dst, dst[1:]):
        mid = (b0 + a1) / 2
        if _dist_to_spans(mid, src) == 0:
            critical.append(mid)
    best = Fraction(0)
    for x in critical:
        d = _dist_to_spans(x, dst)
        if d > best:
            best = d
    return best


def thicken(s: SetOnLine, r: ScalarLike) -> IntervalUnion:
    """Closed r-neighborhood, canonically merged (touching intervals fuse)."""
    radius = as_scalar(r)
    if radius < 0:
        raise ValueError("thickening radius must be nonnegative")
    return IntervalUnion.merge((a - radius, b + radius) for a, b in _spans(s))


def covering_radius(a: PointSet, w: Window) -> Fraction:
    """How far a point of the window can be from the set; d_H(A, window)."""
    if not w.contains(a):
        raise ValueError("point set must lie inside the window")
    best = max(a.first - w.lo, w.hi - a.last)
    for p, q in zip(a.points, a.points[1:]):
        half_gap = (q - p) / 2
        if half_gap > best:
            best = half_gap
    return best


def is_eps_net(a: PointSet, w: Window, eps: ScalarLike) -> bool:
    return covering_radius(a, w) <= as_scalar(eps)


def separation(a: PointSet) -> Fraction:
    """Minimum gap between consecutive points; needs at least two points."""
    if len(a) < 2:
        raise ValueError("separation needs at least two points")
    return min(q - p for p, q in zip(a.points, a.points[1:]))


def sample(s: IntervalUnion, step: ScalarLike) -> PointSet:
    """Discretize each interval from its left end with the given step.

    The right endpoint is always included, so the result approximates the
    union within step/2 in Hausdorff distance.
    """
    h = as_scalar(step)
    if h <= 0:
        raise ValueError("sampling step must be positive")
    pts: list[Fraction] = []
    for a, b in s.intervals:
        k = (b - a) // h
        pts.extend(a + i * h for i in range(int(k) + 1))
        if pts[-1] != b:
            pts.append(b)
    return PointSet(tuple(pts))
