"""Finite metric spaces, relations between them, and exact distortion.

A space stores ints over one denominator; `geometry._scaled` rescales two
stored forms to one scale, 2·lcm of their denominators, so distortion's
inner O(|R|^2) loop runs on machine-friendly Python ints while staying
exact.  Every comparison is homogeneous, so the factor 2 changes nothing.
Two line spaces are scanned on their rescaled coordinates, with no
distance matrix; any other pair scans the rows of `scaled_int_matrices`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import add
from typing import Iterable, Sequence, Union

from .geometry import PointSet, ScalarLike, _form, _Ints, _nearest, _scaled, as_scalar

Pair = tuple[int, int]


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Finite metric space given by its line coordinates or by a matrix.

    ``metric`` is ints over one denominator: a line space's `PointSet`, whose
    increasing coordinates already force every metric axiom, or a matrix's
    entries row-major, also accepted as rows of exact values.  A matrix is
    validated against the full metric contract: zero diagonal, symmetry,
    strictly positive off-diagonal entries and the exact triangle inequality
    (O(n^3), fine at desk scale).  ``dist`` is a Fraction view.
    """

    metric: _Ints

    def __post_init__(self) -> None:
        if isinstance(self.metric, PointSet):
            return
        if type(self.metric) is not _Ints:  # rows of exact values
            if any(len(row) != len(self.metric) for row in self.metric):
                raise ValueError("distance matrix must be square")
            object.__setattr__(self, "metric", _Ints.from_ints(
                *_form(v for row in self.metric for v in row)))
        n = self.n
        if n == 0:
            raise ValueError("a metric space needs at least one point")
        d = self._int_rows(self.metric.ints)
        for i, ri in enumerate(d):
            if ri[i] != 0:
                raise ValueError("diagonal must be zero")
            for j in range(i + 1, n):
                if ri[j] != d[j][i]:
                    raise ValueError("distance matrix must be symmetric")
                if ri[j] <= 0:
                    raise ValueError("off-diagonal distances must be positive")
        for i, ri in enumerate(d):
            for j, rj in enumerate(d):
                if ri[j] > min(map(add, ri, rj)):  # rj[k] = d[k][j] by symmetry
                    k = next(k for k, s in enumerate(map(add, ri, rj)) if ri[j] > s)
                    raise ValueError(f"triangle inequality fails at ({i},{j},{k})")

    @classmethod
    def from_line(cls, points: PointSet) -> "FiniteMetricSpace":
        return cls(points)

    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence[ScalarLike]]) -> "FiniteMetricSpace":
        return cls(tuple(tuple(as_scalar(v) for v in row) for row in rows))

    @classmethod
    def singleton(cls) -> "FiniteMetricSpace":
        return cls(PointSet((Fraction(0),)))

    @property
    def line_coords(self) -> PointSet | None:
        return self.metric if isinstance(self.metric, PointSet) else None

    @property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distance matrix in Fractions, built from the stored ints."""
        den = self.metric.den
        return tuple(tuple(Fraction(v, den) for v in row)
                     for row in self._int_rows(self.metric.ints))

    @property
    def n(self) -> int:
        k = len(self.metric.ints)
        return k if isinstance(self.metric, PointSet) else isqrt(k)

    def _int_rows(self, ints: Sequence[int]) -> list[Sequence[int]]:
        """The distance rows over the stored form's den, given its ints or
        their rescaling: a line space's |a - b|, else the row-major slices."""
        if isinstance(self.metric, PointSet):
            return [[abs(a - b) for b in ints] for a in ints]
        return [ints[k:k + self.n] for k in range(0, len(ints), self.n)]


def diam(x: FiniteMetricSpace) -> Fraction:
    """Largest distance; zero for the one-point space."""
    m = x.metric
    top = m.ints[-1] - m.ints[0] if isinstance(m, PointSet) else max(m.ints)
    return Fraction(top, m.den)


def gh_to_point(x: FiniteMetricSpace) -> Fraction:
    """Distance to the one-point space: half the diameter."""
    return diam(x) / 2


def scale_space(x: FiniteMetricSpace, lam: ScalarLike) -> FiniteMetricSpace:
    """Multiply every distance by lam; lam = 0 collapses to the singleton."""
    f = as_scalar(lam)
    if f < 0:
        raise ValueError("scale factor must be nonnegative")
    if f == 0:
        return FiniteMetricSpace.singleton()
    m = x.metric
    return FiniteMetricSpace(type(m).from_ints([v * f.numerator for v in m.ints],
                                               m.den * f.denominator))


def _canonical_pairs(pairs: Iterable[Pair]) -> tuple[Pair, ...]:
    canon = sorted({(int(i), int(j)) for i, j in pairs})
    if not canon:
        raise ValueError("a relation needs at least one pair")
    if any(i < 0 or j < 0 for i, j in canon):
        raise ValueError("indices must be nonnegative")
    return tuple(canon)


@dataclass(frozen=True)
class Relation:
    """Nonempty set of index pairs, stored sorted and deduplicated."""

    pairs: tuple[Pair, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", _canonical_pairs(self.pairs))

    @classmethod
    def of(cls, pairs: Iterable[Pair]) -> "Relation":
        return cls(tuple(pairs))

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class Correspondence:
    """Relation whose projections cover both index ranges entirely."""

    pairs: tuple[Pair, ...]
    n_left: int
    n_right: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", _canonical_pairs(self.pairs))
        left = {i for i, _ in self.pairs}
        right = {j for _, j in self.pairs}
        if max(left) >= self.n_left or max(right) >= self.n_right:
            raise ValueError("pair index out of range")
        if left != set(range(self.n_left)):
            raise ValueError("left projection is not surjective")
        if right != set(range(self.n_right)):
            raise ValueError("right projection is not surjective")

    @classmethod
    def of(cls, pairs: Iterable[Pair], n_left: int, n_right: int) -> "Correspondence":
        return cls(tuple(pairs), n_left, n_right)

    @classmethod
    def nearest(cls, x: PointSet, y: PointSet) -> "Correspondence":
        """Every point paired with its nearest point of the other set.

        Ties resolve to the smaller coordinate; pairing in both directions
        makes the result doubly surjective.
        """
        _, (xs, ys) = _scaled((x.ints, x.den), (y.ints, y.den))
        pairs = {(i, _nearest(ys, p)) for i, p in enumerate(xs)}
        pairs |= {(_nearest(xs, q), j) for j, q in enumerate(ys)}
        return cls.of(pairs, len(x), len(y))

    def __len__(self) -> int:
        return len(self.pairs)

    def image_of(self, i: int) -> tuple[int, ...]:
        return tuple(j for a, j in self.pairs if a == i)

    def preimage_of(self, j: int) -> tuple[int, ...]:
        return tuple(i for i, b in self.pairs if b == j)


@dataclass(frozen=True)
class DistortionCertificate:
    """Exact distortion value plus the pair of pairs attaining it."""

    value: Fraction
    witness: tuple[Pair, Pair]


RelationLike = Union[Relation, Correspondence]


def scaled_int_matrices(
    x: FiniteMetricSpace, y: FiniteMetricSpace
) -> tuple[int, list[list[int]], list[list[int]]]:
    """Both matrices over a common denominator, as plain int matrices: the
    rows of one rescale of both stored forms."""
    den, (fx, fy) = _scaled((x.metric.ints, x.metric.den), (y.metric.ints, y.metric.den))
    return den, x._int_rows(fx), y._int_rows(fy)


def int_distortion(
    pairs: Sequence[Pair], dx: list[list[int]], dy: list[list[int]]
) -> tuple[int, tuple[Pair, Pair]]:
    """Largest | dx[i][i2] - dy[j][j2] | over pairs of pairs, with witness.

    O(|R|^2).  The witness is deterministic: pairs are scanned in the given
    order and only a strictly larger value replaces the incumbent.
    """
    best = -1
    witness: tuple[Pair, Pair] | None = None
    for k, (i, j) in enumerate(pairs):
        row_x = dx[i]
        row_y = dy[j]
        for i2, j2 in pairs[k:]:
            v = row_x[i2] - row_y[j2]
            if v < 0:
                v = -v
            if v > best:
                best = v
                witness = ((i, j), (i2, j2))
    assert witness is not None
    return best, witness


def distortion(
    sigma: RelationLike, x: FiniteMetricSpace, y: FiniteMetricSpace
) -> DistortionCertificate:
    """Exact sup over pairs of pairs of | |xx'| - |yy'| |, with witness.

    Pairs are scanned in sorted order (see int_distortion for the witness),
    those of two line spaces on their coordinates (see _line_distortion).
    """
    pairs, nx, ny = sigma.pairs, x.n, y.n
    for i, j in pairs:
        if i >= nx or j >= ny:
            raise ValueError(f"pair ({i}, {j}) out of range for the spaces")
    mx, my = x.metric, y.metric
    if isinstance(mx, PointSet) and isinstance(my, PointSet):
        den, (xs, ys) = _scaled((mx.ints, mx.den), (my.ints, my.den))
        value, witness = _line_distortion(pairs, xs, ys)
    else:
        den, dx, dy = scaled_int_matrices(x, y)
        value, witness = int_distortion(pairs, dx, dy)
    return DistortionCertificate(Fraction(value, den), witness)


def _line_distortion(
    pairs: Sequence[Pair], xs: list[int], ys: list[int]
) -> tuple[int, tuple[Pair, Pair]]:
    """`int_distortion` of two line spaces from their ascending coordinates:
    the same scan of | |xs[i] - xs[i2]| - |ys[j] - ys[j2]| |, with no matrix.
    The pairs are sorted, so i2 >= i and |xs[i] - xs[i2]| = xs[i2] - xs[i]."""
    best = -1
    witness: tuple[Pair, Pair] | None = None
    for k, (i, j) in enumerate(pairs):
        a, b = xs[i], ys[j]
        for i2, j2 in pairs[k:]:
            u = ys[j2] - b
            if u < 0:
                u = -u
            v = xs[i2] - a - u
            if v < 0:
                v = -v
            if v > best:
                best = v
                witness = ((i, j), (i2, j2))
    assert witness is not None
    return best, witness
