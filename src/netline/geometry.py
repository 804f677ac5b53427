"""Exact geometry of finite point sets and closed interval unions on the line.

Every coordinate, radius and distance is a `fractions.Fraction`; nothing in
this module ever rounds.  The ambient real line is modelled by a finite
`Window`, and covering radii are always taken relative to one.

Distances between sets and the deformation share one integer kernel: scaled
by 2·lcm of the denominators (of the endpoints, or of a set, its window and
every radius), every endpoint and gap midpoint is an int, spans clamp and
fuse as ints, and one O(n + m) merge gives a directed sup.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence, Union

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
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as an exact scalar")


def _cmp(a: Fraction, b: Fraction) -> int:
    """The sign of a - b, by cross-multiplying: cheaper than comparing Fractions."""
    return a.numerator * b.denominator - b.numerator * a.denominator


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
            if _cmp(a, b) >= 0:
                raise ValueError("points must be strictly increasing")

    @classmethod
    def of(cls, values: Iterable[ScalarLike]) -> "PointSet":
        """Build from arbitrary values: coerced, sorted, duplicates dropped."""
        return cls(tuple(sorted({as_scalar(v) for v in values})))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.points)

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
            if _cmp(a, b) > 0:
                raise ValueError(f"backwards interval [{a}, {b}]")
        for (_, b0), (a1, _) in zip(self.intervals, self.intervals[1:]):
            if _cmp(b0, a1) >= 0:
                raise ValueError("intervals must be disjoint and ordered; use merge()")

    @classmethod
    def merge(cls, spans: Iterable[tuple[ScalarLike, ScalarLike]]) -> "IntervalUnion":
        """Sort if out of order, then fuse overlapping or touching intervals."""
        pairs = [(as_scalar(a), as_scalar(b)) for a, b in spans]
        if any(_cmp(a0, a1) >= 0 for (a0, _), (a1, _) in zip(pairs, pairs[1:])):
            pairs.sort()
        fused: list[tuple[Fraction, Fraction]] = []
        for a, b in pairs:
            if _cmp(a, b) > 0:
                raise ValueError(f"backwards interval [{a}, {b}]")
            if fused and _cmp(a, fused[-1][1]) <= 0:
                if _cmp(b, fused[-1][1]) > 0:
                    fused[-1] = (fused[-1][0], b)
            else:
                fused.append((a, b))
        union = object.__new__(cls)  # canonical by construction: no re-check
        object.__setattr__(union, "intervals", tuple(fused))
        return union

    def __len__(self) -> int:
        return len(self.intervals)

    def subset_of(self, other: "IntervalUnion") -> bool:
        return all(
            any(oa <= a and b <= ob for oa, ob in other.intervals)
            for a, b in self.intervals
        )


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


SetOnLine = Union[PointSet, IntervalUnion]

Spans = tuple[tuple[Fraction, Fraction], ...]


def _spans(s: SetOnLine) -> Spans:
    if isinstance(s, PointSet):
        return tuple((p, p) for p in s.points)
    if isinstance(s, IntervalUnion):
        return s.intervals
    raise TypeError(f"expected PointSet or IntervalUnion, got {type(s).__name__}")


def point_to_set_distance(p: ScalarLike, s: SetOnLine) -> Fraction:
    """Exact distance from a point to the nearest component of the set."""
    x = as_scalar(p)
    scale, (src, dst) = _scaled(((x, x),), _spans(s))
    return Fraction(_directed_sup(src, dst), scale)


def hausdorff(a: SetOnLine, b: SetOnLine) -> Fraction:
    """Exact Hausdorff distance between two sets on the line.

    Each directed sup is attained at an endpoint of the source or at a gap
    midpoint of the target that lies in the source.  After one lcm, both
    sets are scaled by s = 2·lcm(denominators): endpoints become even ints,
    so every gap midpoint and half gap is an int too.  One O(n + m) forward
    merge per direction then finds the sup, and only the result is divided.
    """
    scale, (sa, sb) = _scaled(_spans(a), _spans(b))
    return Fraction(_symmetric_sup(sa, sb), scale)


def _scaled(*span_lists: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """The scale 2·lcm(denominators), and each list of value tuples as flat ints."""
    scale = 2 * lcm(*{v.denominator for spans in span_lists
                      for span in spans for v in span})
    return scale, [[v.numerator * (scale // v.denominator)
                    for span in spans for v in span] for spans in span_lists]


def _symmetric_sup(a: list[int], b: list[int]) -> int:
    """Scaled Hausdorff distance of two flat sorted span lists."""
    return max(_directed_sup(a, b), _directed_sup(b, a))


def _clamp_fuse(points: list[int], r: int, lo: int, hi: int) -> list[int]:
    """Spans [p - r, p + r] of ascending points, clamped to [lo, hi] and fused."""
    flat: list[int] = []
    for p in points:
        a, b = max(p - r, lo), min(p + r, hi)
        if flat and a <= flat[-1]:
            flat[-1] = b  # right ends ascend too
        else:
            flat += (a, b)
    return flat


def _nearest(points: list[int], x: int) -> int:
    """Index of the ascending point nearest x; ties resolve to the smaller point."""
    k = bisect_left(points, x)
    if 0 < k < len(points) and x - points[k - 1] <= points[k] - x:
        return k - 1
    return min(k, len(points) - 1)


def _sample(flat: list[int], h: int) -> list[int]:
    """Each span of a flat sorted list from its left end by h, plus its right end."""
    pts: list[int] = []
    for a, b in zip(flat[::2], flat[1::2]):
        pts += range(a, b + 1, h)
        if pts[-1] != b:
            pts.append(b)
    return pts


def _directed_sup(src: list[int], dst: list[int]) -> int:
    """sup over x in src of d(x, dst); both flat sorted [lo, hi, lo, hi, ...]."""
    best, n, k = 0, len(dst), 0
    for x in src:
        while k < n and dst[k] < x:
            k += 1
        if k % 2:
            continue  # x lies inside a span of dst
        d = x - dst[k - 1] if k else dst[0] - x
        if 0 < k < n and dst[k] - x < d:
            d = dst[k] - x
        if d > best:
            best = d
    # a gap midpoint lies half the gap from dst; it counts if it is in src
    m, i = len(src), 0
    for k in range(1, n - 1, 2):
        half = (dst[k + 1] - dst[k]) // 2
        if half > best:
            mid = dst[k] + half
            while i < m and src[i] < mid:
                i += 1
            if i % 2:  # inside a span of src; endpoints were counted above
                best = half
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
    scale, (src, dst) = _scaled(((w.lo, w.hi),), _spans(a))
    return Fraction(_directed_sup(src, dst), scale)


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
    scale, (flat, (hs,)) = _scaled(s.intervals, ((h,),))
    return PointSet(tuple(Fraction(v, scale) for v in _sample(flat, hs)))
