"""The contraction that slides every net on the line out to the full window.

The deformation at parameter lam thickens the set by lam/(1-lam), clipped
to the window; lam = 1 is an explicit case mapping to the whole window.
Clipping keeps the windowed model closed under the deformation and changes
no Hausdorff quantity measured against the window.  Clamping each point's
span before one sorted fuse equals clipping after: clamped spans stay
nonempty, and disjoint ones stay apart.
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
    as_scalar,
    fuse_sorted,
    hausdorff,
    scalar_str,
)


def f_map(lam: ScalarLike) -> Fraction | None:
    """Exact lam/(1-lam) on [0, 1); None at lam = 1, where it is infinite."""
    v = as_scalar(lam)
    if not 0 <= v <= 1:
        raise ValueError("lam must lie in [0, 1]")
    if v == 1:
        return None
    return v / (1 - v)


def contract(x: PointSet, lam: ScalarLike, w: Window) -> IntervalUnion:
    """Deform the point set at parameter lam inside the window.

    lam = 0 reproduces the set, lam = 1 yields the full window; in between,
    one fuse of the spans [p - r, p + r] clamped to the window, r = lam/(1-lam).
    """
    radius = f_map(lam)
    if not w.contains(x):
        raise ValueError("point set must lie inside the window")
    if radius is None:
        return w.span()
    lo, hi = w.lo, w.hi
    return fuse_sorted((max(p - radius, lo), min(p + radius, hi)) for p in x.points)


def continuity_in_lambda(
    x: PointSet, lam1: ScalarLike, lam2: ScalarLike, w: Window
) -> tuple[Fraction, Fraction]:
    """(Hausdorff step between the two deformations, certified bound).

    The certified bound is |f(lam1) - f(lam2)|: thickening is 1-Lipschitz in
    the radius, exactly, and clipping to a window shared by both sides never
    increases the distance.
    """
    v1, v2 = as_scalar(lam1), as_scalar(lam2)
    if not (0 <= v1 < 1 and 0 <= v2 < 1):
        raise ValueError("both parameters must lie in [0, 1)")
    d = hausdorff(contract(x, v1, w), contract(x, v2, w))
    return d, abs(f_map(v1) - f_map(v2))


def stability_in_space(
    x: PointSet, xn: PointSet, lam: ScalarLike, w: Window
) -> tuple[Fraction, Fraction]:
    """(Hausdorff distance of the two deformations, distance of the inputs).

    Thickening two sets by the same radius never spreads them further apart
    than they started, and window clipping preserves that, exactly.
    """
    v = as_scalar(lam)
    if not 0 <= v < 1:
        raise ValueError("lam must lie in [0, 1)")
    d = hausdorff(contract(x, v, w), contract(xn, v, w))
    return d, hausdorff(x, xn)


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
    for a, b in zip(lams, lams[1:]):
        if a > b:
            raise ValueError("grid must be sorted ascending")
    rows: list[TraceRow] = []
    window_span = w.span()
    prev_space: IntervalUnion | None = None
    prev_f: Fraction | None = Fraction(0)
    for lam in lams:
        space = contract(x, lam, w)
        f_lam = f_map(lam)
        if prev_space is None:
            step_d: Fraction = Fraction(0)
            bound: Fraction | None = Fraction(0)
        else:
            step_d = hausdorff(space, prev_space)
            if f_lam is None:
                # ascending grid: prev_f is None only when lam repeats 1
                bound = Fraction(0) if prev_f is None else None
            else:
                bound = abs(f_lam - prev_f)
        rows.append(
            TraceRow(lam, space, hausdorff(space, window_span), step_d, bound)
        )
        prev_space = space
        prev_f = f_lam
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
    return f"{float(v):.12g}"


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
