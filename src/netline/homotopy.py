"""The contraction that slides every net on the line out to the full window.

The deformation at parameter lam thickens the set by lam/(1-lam), clipped
to the window; lam = 1 is an explicit case mapping to the whole window.
Clipping keeps the windowed model closed under the deformation and changes
no Hausdorff quantity measured against the window.  Every span [p - r,
p + r] of a point in the window meets the window, so one sorted fuse that
clamps only its two outer ends equals clipping after.  All of it runs on
the stored ints of the sets and the window, each times its factor of one
`geometry._scale` with every radius; a radius f(lam) = n/(d - n) of lam =
n/d enters as that int pair, each deformed set is built from its ints by the
int constructor, and Fractions are built only for distances and bounds.
Stability deforms only at its lam: its inputs are swept as point sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvariantError
from .geometry import (
    IntervalUnion,
    PointSet,
    ScalarLike,
    Window,
    _clamp_fuse,
    _point_sup,
    _scale,
    _symmetric_sup,
    as_scalar,
    scalar_str,
)


def _radius(lam: ScalarLike) -> tuple[int, int] | None:
    """lam/(1-lam) as (n, d - n) for lam = n/d, in lowest terms since
    gcd(n, d - n) = gcd(n, d) = 1; None at lam = 1, where it is infinite."""
    v = as_scalar(lam)
    n, d = v.numerator, v.denominator
    if not 0 <= n <= d:
        raise ValueError("lam must lie in [0, 1]")
    return None if n == d else (n, d - n)


def f_map(lam: ScalarLike) -> Fraction | None:
    """Exact lam/(1-lam) on [0, 1); None at lam = 1, where it is infinite."""
    r = _radius(lam)
    return None if r is None else Fraction(*r)


def _deformations(
    sets: Sequence[PointSet], lams: Sequence[ScalarLike], w: Window
) -> tuple[int, list[int], list[int], list[list[int]], list[list[list[int]]]]:
    """(scale, window, radius per lam, each set's points, each set's flat int
    spans per lam), all ints over scale."""
    # the first parameter is checked before the window, the rest after it
    radii = list(map(_radius, lams[:1]))
    if not all(map(w.contains, sets)):
        raise ValueError("point set must lie inside the window")
    radii += map(_radius, lams[1:])
    scale = _scale(w.den, *[s.den for s in sets], *[r[1] for r in radii if r])
    f, (lo, hi) = scale // w.den, w.ints
    lo, hi = window = [lo * f, hi * f]
    # at lam = 1, a radius of the window's width fuses any set into the window
    rs = [hi - lo if r is None else r[0] * (scale // r[1]) for r in radii]
    points, fused = [], []
    for s in sets:
        f = scale // s.den
        points.append(p := [v * f for v in s.ints])
        fused.append([_clamp_fuse(p, p, r, lo, hi) for r in rs])
    return scale, window, rs, points, fused


def contract(x: PointSet, lam: ScalarLike, w: Window) -> IntervalUnion:
    """Deform the point set at parameter lam inside the window.

    lam = 0 reproduces the set, lam = 1 yields the full window; in between,
    one fuse of the spans [p - r, p + r] clamped to the window, r = lam/(1-lam).
    """
    scale, _, _, _, [[flat]] = _deformations([x], [lam], w)
    return IntervalUnion.from_ints(flat, scale)


def continuity_in_lambda(
    x: PointSet, lam1: ScalarLike, lam2: ScalarLike, w: Window
) -> tuple[Fraction, Fraction]:
    """(Hausdorff step between the two deformations, certified bound).

    The certified bound is |f(lam1) - f(lam2)|: thickening is 1-Lipschitz in
    the radius, exactly, and clipping to a window shared by both sides never
    increases the distance.
    """
    step, bound, scale = _continuity(x, lam1, lam2, w)
    return Fraction(step, scale), Fraction(bound, scale)


def _continuity(
    x: PointSet, lam1: ScalarLike, lam2: ScalarLike, w: Window
) -> tuple[int, int, int]:
    """`continuity_in_lambda` as (step, bound, scale) ints over one scale."""
    v1, v2 = as_scalar(lam1), as_scalar(lam2)
    if not (0 <= v1.numerator < v1.denominator and 0 <= v2.numerator < v2.denominator):
        raise ValueError("both parameters must lie in [0, 1)")
    scale, _, (r1, r2), _, [[a, b]] = _deformations([x], [v1, v2], w)
    return _symmetric_sup(a, b), abs(r1 - r2), scale


def stability_in_space(
    x: PointSet, xn: PointSet, lam: ScalarLike, w: Window
) -> tuple[Fraction, Fraction]:
    """(Hausdorff distance of the two deformations, distance of the inputs).

    Thickening two sets by the same radius never spreads them further apart
    than they started, and window clipping preserves that, exactly.
    """
    deformed, inputs, scale = _stability(x, xn, lam, w)
    return Fraction(deformed, scale), Fraction(inputs, scale)


def _stability(
    x: PointSet, xn: PointSet, lam: ScalarLike, w: Window
) -> tuple[int, int, int]:
    """`stability_in_space` as (deformed, input, scale) ints over one scale."""
    v = as_scalar(lam)
    if not 0 <= v.numerator < v.denominator:
        raise ValueError("lam must lie in [0, 1)")
    scale, _, _, (p, pn), [[a], [an]] = _deformations([x, xn], [v], w)
    return _symmetric_sup(a, an), max(_point_sup(p, pn), _point_sup(pn, p)), scale


@dataclass(frozen=True)
class TraceRow:
    lam: Fraction
    space: IntervalUnion
    d_to_window: Fraction
    step_d: Fraction
    certified_bound: Fraction | None  # None: infinite, the step reaches lam = 1


@dataclass(frozen=True)
class HomotopyTrace:
    rows: tuple[TraceRow, ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            bound = row.certified_bound
            if bound is not None and row.step_d > bound:
                raise InvariantError("trace row violates its certified bound")


def trace(x: PointSet, w: Window, grid: Sequence[ScalarLike]) -> HomotopyTrace:
    """Deform along an ascending parameter grid, recording each step.

    Each row carries the Hausdorff distance to the window (nonincreasing
    along the trace), the step distance from the previous row, and the
    certified step bound |f(lam_i) - f(lam_{i-1})|.
    """
    lams = [as_scalar(g) for g in grid]
    if not lams:
        raise ValueError("grid must be nonempty")
    if any(a > b for a, b in zip(lams, lams[1:])):
        raise ValueError("grid must be sorted ascending")
    scale, window, radii, _, [flats] = _deformations([x], lams, w)
    steps = list(zip(lams, radii, flats))
    rows: list[TraceRow] = []
    # the first row steps from itself: distance 0, bound 0
    for (lam, r, flat), (prev_lam, prev_r, prev) in zip(steps, steps[:1] + steps):
        if lam == 1:
            # ascending grid: prev_lam is 1 only when lam repeats 1
            bound = Fraction(0) if prev_lam == 1 else None
        else:
            bound = Fraction(abs(r - prev_r), scale)
        rows.append(TraceRow(
            lam, IntervalUnion.from_ints(flat, scale),
            Fraction(_symmetric_sup(flat, window), scale),
            Fraction(_symmetric_sup(flat, prev), scale), bound))
    return HomotopyTrace(tuple(rows))


TRACE_CSV_COLUMNS = (
    "lam",
    "f_lam",
    "num_intervals",
    "d_H_to_window",
    "step_d_H",
    "certified_bound",
    "lam_dec",
    "d_H_to_window_dec",
    "step_d_H_dec",
)


def _dec(v: Fraction) -> str:
    """The decimal twin of a nonnegative value: inf beyond the float range."""
    try:
        return f"{float(v):.12g}"
    except OverflowError:
        return "inf"


def _exact_or_inf(v: Fraction | None) -> str:
    return "inf" if v is None else scalar_str(v)


def trace_csv(tr: HomotopyTrace) -> str:
    """Render a trace as CSV: exact rational columns plus decimal twins."""
    lines = [",".join(TRACE_CSV_COLUMNS)]
    for row in tr.rows:
        cells = [
            scalar_str(row.lam),
            _exact_or_inf(f_map(row.lam)),
            str(len(row.space)),
            scalar_str(row.d_to_window),
            scalar_str(row.step_d),
            _exact_or_inf(row.certified_bound),
            _dec(row.lam),
            _dec(row.d_to_window),
            _dec(row.step_d),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
