"""Exact geometry of finite point sets and closed interval unions on the line.

Every coordinate, radius and distance is exact; nothing in this module ever
rounds.  A `PointSet`, `IntervalUnion` or `Window` stores ints over one
denominator in lowest terms, `ints[k] / den`, so dataclass equality and
hashing are value-based; `.points`, `.intervals`, `.lo` and `.hi` are
`fractions.Fraction` views built on first use.  The ambient real line is
modelled by a finite `Window`, and covering radii are always taken relative
to one.

Distances between sets and the deformation share one integer kernel: each
stored form is rescaled by one int factor to 2·lcm of the denominators (of
the sets, and of a window and every radius), so every endpoint and gap
midpoint is an int, spans fuse as ints and clamp only at the two outer
ends, and a directed sup reads only the gaps that can raise its best.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import le, lt, sub
from typing import Iterable, Iterator, Sequence, Union

Scalar = Fraction

ScalarLike = Union[Fraction, int, str]

Form = tuple[Sequence[int], int]  # values ints[k] / den over one positive den


# the grammar of `Fraction(str)` on Python 3.10 (later versions also take "_"
# between digits and spaces around "/"); the exponent bound stops a huge
# 10**exp, not every value too long to print: "1e4300" has 4301 digits
_RATIONAL = re.compile(r"\s*[-+]?(?=\d|\.\d)\d*"
                       r"(?:/\d+|(?:\.\d*)?(?:[eE](?P<exp>[-+]?\d+))?)\s*")
_MAX_EXPONENT = 4300


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, Fraction or rational string ("3", "1/2", "0.25"): the
    one reader of numeric strings, where a string outside `_RATIONAL` or its
    exponent bound is a ValueError.  Floats are rejected: a binary float
    would smuggle rounding into code that promises exact arithmetic.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"not a scalar: {value!r}")
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise ValueError(f"Invalid literal for Fraction: {value!r}")
        if match["exp"] and abs(int(match["exp"])) > _MAX_EXPONENT:
            raise ValueError(f"exponent beyond +-{_MAX_EXPONENT}")
    elif not isinstance(value, int):
        raise TypeError(f"cannot use {type(value).__name__} as an exact scalar")
    return Fraction(value)


def scalar_str(value: Fraction) -> str:
    """Canonical text form: "p/q", or plain "p" for integers."""
    return str(value)


def _over_lcm(ratios: list[tuple[int, int]]) -> Form:
    """(num, den) pairs as ints over the lcm of the dens.  For reduced pairs
    that is lowest terms: some pair's den holds each prime power of the lcm."""
    den = lcm(*{d for _, d in ratios})
    return [n * (den // d) for n, d in ratios], den


def _form(values: Iterable[Fraction]) -> Form:
    """Exact values, Fractions or ints, over the lcm of their denominators."""
    return _over_lcm([v.as_integer_ratio() for v in values])


@dataclass(frozen=True, init=False)
class _Ints:
    """Values ints[k] / den, kept in lowest terms: gcd(den, *ints) == 1.

    A Fraction constructor seeds the Fraction view with the values it was
    given; a set built from ints builds that view on first use.
    """

    ints: tuple[int, ...]
    den: int

    @classmethod
    def from_ints(cls, ints: Sequence[int], den: int):
        """The int constructor: ints in the class's order over a positive den,
        reduced here to lowest terms; the order is trusted, not re-checked."""
        g = gcd(den, *ints)
        obj = object.__new__(cls)
        # tuples are built from lists: a generator's tuple is allocated at
        # length 10 and resized, which fills CPython's per-length free lists
        obj.__dict__.update(ints=tuple([v // g for v in ints] if g > 1 else ints),
                            den=den // g)
        return obj


@dataclass(frozen=True, init=False)
class PointSet(_Ints):
    """Nonempty, strictly increasing finite set of coordinates."""

    def __init__(self, points: Sequence[Fraction]) -> None:
        points = tuple(points)
        ints, den = _form(points)
        self.__dict__.update(ints=tuple(ints), den=den, points=points)
        self._check()

    def _check(self) -> "PointSet":
        if not self.ints:
            raise ValueError("a point set needs at least one point")
        if not all(map(lt, self.ints, self.ints[1:])):
            raise ValueError("points must be strictly increasing")
        return self

    @cached_property
    def points(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(v, self.den) for v in self.ints])

    @classmethod
    def of(cls, values: Iterable[ScalarLike]) -> "PointSet":
        """Build from arbitrary values: coerced, sorted, duplicates dropped."""
        return cls(tuple(sorted({as_scalar(v) for v in values})))

    def __len__(self) -> int:
        return len(self.ints)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.points)

    def shift(self, delta: ScalarLike) -> "PointSet":
        d = as_scalar(delta)
        return PointSet(tuple(p + d for p in self.points))

    def scale(self, factor: ScalarLike) -> "PointSet":
        f = as_scalar(factor)
        if f <= 0:
            raise ValueError("scale factor must be positive")
        return PointSet.from_ints([v * f.numerator for v in self.ints],
                                  self.den * f.denominator)

    def to_intervals(self) -> "IntervalUnion":
        return IntervalUnion.from_ints(*_spans(self))


@dataclass(frozen=True, init=False)
class IntervalUnion(_Ints):
    """Nonempty union of disjoint, non-touching closed intervals, stored as
    the flat ends lo, hi, lo, hi, ...

    Degenerate intervals [a, a] are legal, so every PointSet embeds here and
    a single Hausdorff sweep covers both kinds of set.
    """

    def __init__(self, intervals: Sequence[tuple[Fraction, Fraction]]) -> None:
        intervals = tuple(intervals)
        ends, den = _form(chain.from_iterable(intervals))
        self.__dict__.update(ints=tuple(ends), den=den, intervals=intervals)
        _check_spans(ends, den)
        if not all(map(lt, ends[1::2], ends[2::2])):
            raise ValueError("intervals must be disjoint and ordered; use merge()")

    @cached_property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        ends = [Fraction(v, self.den) for v in self.ints]
        return tuple(zip(ends[::2], ends[1::2]))

    @classmethod
    def merge(cls, spans: Iterable[tuple[ScalarLike, ScalarLike]]) -> "IntervalUnion":
        """Sort if out of order, then fuse overlapping or touching intervals."""
        return cls.merge_ints(*_form(
            chain.from_iterable((as_scalar(a), as_scalar(b)) for a, b in spans)))

    @classmethod
    def merge_ints(cls, ends: Sequence[int], den: int) -> "IntervalUnion":
        """`merge` of flat int ends lo, hi, lo, hi, ... over den."""
        los, his = ends[::2], ends[1::2]
        if ends and all(map(le, los, his)) and all(map(lt, his, los[1:])):
            return cls.from_ints(ends, den)  # sorted, disjoint and not touching
        pairs = list(zip(los, his))
        if any(a0 >= a1 for (a0, _), (a1, _) in zip(pairs, pairs[1:])):
            pairs.sort()
        _check_spans(list(chain.from_iterable(pairs)), den)
        fused: list[int] = []
        for a, b in pairs:
            if fused and a <= fused[-1]:
                fused[-1] = max(fused[-1], b)
            else:
                fused += (a, b)
        return cls.from_ints(fused, den)

    def __len__(self) -> int:
        return len(self.ints) // 2

    def subset_of(self, other: "IntervalUnion") -> bool:
        return all(
            any(oa <= a and b <= ob for oa, ob in other.intervals)
            for a, b in self.intervals
        )


def _check_spans(ends: Sequence[int], den: int) -> None:
    """Refuse no spans at all, then the first backwards span in the given order."""
    if not ends:
        raise ValueError("an interval union needs at least one interval")
    for k in range(0, len(ends), 2):
        if ends[k] > ends[k + 1]:
            raise ValueError(f"backwards interval [{Fraction(ends[k], den)}, "
                             f"{Fraction(ends[k + 1], den)}]")


@dataclass(frozen=True, init=False)
class Window(_Ints):
    """The finite segment [lo, hi] standing in for the whole line."""

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        ends, den = _form((lo, hi))
        if not ends[0] < ends[1]:
            raise ValueError("window needs lo < hi")
        self.__dict__.update(ints=tuple(ends), den=den, lo=lo, hi=hi)

    lo = cached_property(lambda self: Fraction(self.ints[0], self.den))
    hi = cached_property(lambda self: Fraction(self.ints[1], self.den))

    @classmethod
    def of(cls, lo: ScalarLike, hi: ScalarLike) -> "Window":
        return cls(as_scalar(lo), as_scalar(hi))

    def span(self) -> IntervalUnion:
        return IntervalUnion.from_ints(self.ints, self.den)

    def contains(self, points: PointSet) -> bool:
        (lo, hi), den = self.ints, points.den
        first, last = points.ints[0] * self.den, points.ints[-1] * self.den
        return lo * den <= first and last <= hi * den


SetOnLine = Union[PointSet, IntervalUnion]


def _spans(s: SetOnLine) -> Form:
    """The set's spans as flat ints lo, hi, lo, hi, ... over its den."""
    if isinstance(s, PointSet):
        return list(chain.from_iterable(zip(s.ints, s.ints))), s.den
    if isinstance(s, IntervalUnion):
        return s.ints, s.den
    raise TypeError(f"expected PointSet or IntervalUnion, got {type(s).__name__}")


def point_to_set_distance(p: ScalarLike, s: SetOnLine) -> Fraction:
    """Exact distance from a point to the nearest component of the set."""
    x = as_scalar(p)
    scale, (src, dst) = _scaled(_form((x, x)), _spans(s))
    return Fraction(_directed_sup(src, dst), scale)


def hausdorff(a: SetOnLine, b: SetOnLine) -> Fraction:
    """Exact Hausdorff distance between two sets on the line.

    Each directed sup is attained at an endpoint of the source or at a gap
    midpoint of the target that lies in the source.  Both stored forms are
    rescaled to s = 2·lcm(denominators): endpoints become even ints,
    so every gap midpoint and half gap is an int too.  Each direction reads
    only the target gaps wider than twice its best so far, and only the
    result is divided.  Two point sets are merged as points: a target gap's
    midpoint lies in a point set only at one of its points, which it scores.
    """
    return Fraction(*_hausdorff(a, b))


def _hausdorff(a: SetOnLine, b: SetOnLine) -> tuple[int, int]:
    """`hausdorff` as (value, scale) ints: the distance is value / scale."""
    if isinstance(a, PointSet) and isinstance(b, PointSet):
        scale, (sa, sb) = _scaled((a.ints, a.den), (b.ints, b.den))
        return max(_point_sup(sa, sb), _point_sup(sb, sa)), scale
    scale, (sa, sb) = _scaled(_spans(a), _spans(b))
    return _symmetric_sup(sa, sb), scale


def _scale(*dens: int) -> int:
    """The one scale of the int kernels: 2·lcm of the denominators."""
    return 2 * lcm(*dens)


def _scaled(*forms: Form) -> tuple[int, list[list[int]]]:
    """The scale of the forms' denominators, and each form's ints over it,
    each form times its one factor scale // den."""
    scale = _scale(*{den for _, den in forms})
    scaled = []
    for ints, den in forms:
        f = scale // den
        scaled.append([v * f for v in ints])
    return scale, scaled


def _symmetric_sup(a: list[int], b: list[int]) -> int:
    """Scaled Hausdorff distance of two flat sorted span lists."""
    return _directed_sup(b, a, _directed_sup(a, b))


def _clamp_fuse(
    los: Sequence[int], his: Sequence[int], r: int, lo: int, hi: int
) -> list[int]:
    """Spans [a - r, b + r] of the ascending disjoint spans (a, b) of zip(los,
    his), fused and clipped to [lo, hi]; a point set passes its points twice.

    Needs every widened span to meet [lo, hi].  Then two spans overlap
    exactly when their clamped spans do, and every end but the first and
    the last borders a gap between two spans that meet [lo, hi], so it lies
    inside; clamping those two ends equals clamping every span before the
    fuse.
    """
    flat: list[int] = []
    for p, q in zip(los, his):
        if flat and p - r <= flat[-1]:
            flat[-1] = q + r  # right ends ascend too
        else:
            flat += (p - r, q + r)
    if flat[0] < lo:
        flat[0] = lo
    if flat[-1] > hi:
        flat[-1] = hi
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


def _directed_sup(src: list[int], dst: list[int], best: int = 0) -> int:
    """max(best, sup over x in src of d(x, dst)); both flat sorted [lo, hi, ...].

    After the ends of src beyond dst's hull, only a gap (l, r) of dst with
    half > best can score: half if a span of src holds its midpoint, else
    at the ends of src next to the midpoint."""
    best = max(best, dst[0] - src[0], src[-1] - dst[-1])
    for k in range(1, len(dst) - 1, 2):
        l, r = dst[k], dst[k + 1]
        half = (r - l) // 2
        if half <= best:
            continue
        i = bisect_left(src, l + half)
        if i % 2:
            best = half  # a span of src holds the midpoint
            continue
        if i and src[i - 1] - l > best:
            best = src[i - 1] - l
        if i < len(src) and r - src[i] > best:
            best = r - src[i]
    return best


def _point_sup(src: list[int], dst: list[int]) -> int:
    """sup over x in src of d(x, dst); both ascending point lists."""
    best, last, k = 0, len(dst) - 1, 0
    for x in src:
        while k < last and dst[k] < x:
            k += 1
        # dst[k] is the first point at or past x, else the last point
        d = abs(dst[k] - x)
        if k and x - dst[k - 1] < d:
            d = x - dst[k - 1]
        if d > best:
            best = d
    return best


def thicken(s: SetOnLine, r: ScalarLike) -> IntervalUnion:
    """Closed r-neighborhood, canonically merged (touching intervals fuse)."""
    radius = as_scalar(r)
    if radius < 0:
        raise ValueError("thickening radius must be nonnegative")
    scale, (ends, (rs,)) = _scaled(_spans(s), _form((radius,)))
    return IntervalUnion.from_ints(
        _clamp_fuse(ends[::2], ends[1::2], rs, ends[0] - rs, ends[-1] + rs), scale)


def covering_radius(a: PointSet, w: Window) -> Fraction:
    """d_H(A, window): the larger end gap, or half the largest gap of the points."""
    return Fraction(*_covering(a, w))


def _covering(a: PointSet, w: Window) -> tuple[int, int]:
    """`covering_radius` as (value, scale) ints: the radius is value / scale."""
    if not w.contains(a):
        raise ValueError("point set must lie inside the window")
    scale, ints, (lo, hi) = _scale(a.den, w.den), a.ints, w.ints
    f, g = scale // a.den, scale // w.den
    gap = max(map(sub, ints[1:], ints), default=0) * f
    return max(ints[0] * f - lo * g, hi * g - ints[-1] * f, gap // 2), scale


def is_eps_net(a: PointSet, w: Window, eps: ScalarLike) -> bool:
    return covering_radius(a, w) <= as_scalar(eps)


def separation(a: PointSet) -> Fraction:
    """Minimum gap between consecutive points; needs at least two points."""
    if len(a) < 2:
        raise ValueError("separation needs at least two points")
    return Fraction(min(map(sub, a.ints[1:], a.ints)), a.den)


def sample(s: IntervalUnion, step: ScalarLike) -> PointSet:
    """Discretize each interval from its left end with the given step.

    The right endpoint is always included, so the result approximates the
    union within step/2 in Hausdorff distance.
    """
    h = as_scalar(step)
    if h <= 0:
        raise ValueError("sampling step must be positive")
    scale, (flat, (hs,)) = _scaled(_spans(s), _form((h,)))
    return PointSet.from_ints(_sample(flat, hs), scale)
