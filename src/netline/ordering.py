"""Order behaviour of low-distortion correspondences between line subsets.

Two checkers, scanning the spaces' stored ints and reporting Fractions, each
guarded by the hypothesis that makes its conclusion a theorem, not a hope:

* ``check_order_preservation``: if the left space is t-separated and the
  correspondence distorts by c with t > 2c, then chosen images preserve
  betweenness.  With t <= 2c the checker refuses: a violation there would
  not be a bug.
* ``order_violation_bound``: pairs whose images come out in the opposite
  order can only span a gap of at most twice the distortion, provided a far
  witness point exists whose image sits on the far side as well (the
  "orders coincide" ambient assumption).  Without such a witness the result
  is inconclusive, which is reported as a status distinct from failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .correspondence import Correspondence, FiniteMetricSpace, distortion
from .errors import PreconditionError
from .geometry import PointSet, ScalarLike, _form, _scaled, as_scalar, separation

DEFAULT_WITNESS_MARGIN = 100


def _require_line(space: FiniteMetricSpace, name: str) -> PointSet:
    if space.line_coords is None:
        raise ValueError(f"{name} must be line-embedded (line_coords present)")
    return space.line_coords


def canonical_selection(r: Correspondence) -> tuple[int, ...]:
    """For each left index, the smallest related right index."""
    return tuple(min(r.image_of(i)) for i in range(r.n_left))


@dataclass(frozen=True)
class OrderPreservationReport:
    status: str  # "pass" | "fail"
    distortion: Fraction
    separation: Fraction | None
    triples_checked: int
    violation: tuple[int, int, int] | None  # (q, p, r) left indices, q < p < r

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def check_order_preservation(
    r: Correspondence,
    x: FiniteMetricSpace,
    y: FiniteMetricSpace,
    selection: Sequence[int] | None = None,
) -> OrderPreservationReport:
    """Verify that selected images preserve betweenness on every triple.

    ``selection`` maps each left index to a chosen related right index; by
    default the smallest one.  Refuses (PreconditionError) when the left
    separation t fails t > 2c, c being the exact distortion of ``r``.
    """
    xs = _require_line(x, "x")
    ys = _require_line(y, "y").ints
    cert = distortion(r, x, y)
    c = cert.value
    n = x.n

    if selection is None:
        sel = canonical_selection(r)
    else:
        sel = tuple(selection)
        if len(sel) != n:
            raise ValueError("selection must choose an image for every left point")
        chosen = set(r.pairs)
        for i, j in enumerate(sel):
            if (i, j) not in chosen:
                raise ValueError(f"selection pair ({i}, {j}) is not in the relation")

    sep = separation(xs) if n >= 2 else None
    if sep is not None and sep <= 2 * c:
        raise PreconditionError(
            f"separation {sep} is not greater than twice the distortion {c}; "
            "the order-preservation conclusion is not guaranteed here"
        )

    triples = 0
    for q in range(n):
        for p in range(q + 1, n):
            for rr in range(p + 1, n):
                triples += 1
                ip, iq, ir = ys[sel[p]], ys[sel[q]], ys[sel[rr]]
                if not (min(iq, ir) <= ip <= max(iq, ir)):
                    return OrderPreservationReport("fail", c, sep, triples, (q, p, rr))
    return OrderPreservationReport("pass", c, sep, triples, None)


@dataclass(frozen=True)
class OrderViolationReport:
    status: str  # "pass" | "fail" | "inconclusive"
    distortion: Fraction
    inverted_pairs: int
    violations: tuple[tuple[int, int, int, int], ...]  # (a, a', b, b') indices
    unwitnessed: tuple[tuple[int, int, int, int], ...]

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def inverted_pair_violations(
    pairs: Sequence[tuple[int, int]],
    xs: Sequence[int],
    ys: Sequence[int],
    c: int,
    margin: int,
    selection: Sequence[int],
) -> tuple[list[tuple[int, int, int, int]], list[tuple[int, int, int, int]], int]:
    """Scan inverted pairs against the 2c gap bound.

    ``xs``, ``c`` and ``margin`` are ints over one scale, ``ys`` over any.
    Returns (violations, unwitnessed, inverted_count).  A far witness for an
    inverted pair ((a, a'), (b, b')) is a left point p with
    p > x_b + max(margin, 2c) whose selected image lies at or beyond both
    images; only witnessed pairs can produce violations.
    """
    threshold_extra = max(margin, 2 * c)
    violations: list[tuple[int, int, int, int]] = []
    unwitnessed: list[tuple[int, int, int, int]] = []
    inverted = 0
    for k, (ia, ja) in enumerate(pairs):
        for ib, jb in pairs[k + 1 :]:
            if xs[ia] == xs[ib]:
                continue
            if xs[ia] < xs[ib]:
                a, ap, b, bp = ia, ja, ib, jb
            else:
                a, ap, b, bp = ib, jb, ia, ja
            if not ys[ap] > ys[bp]:
                continue
            inverted += 1
            cutoff = xs[b] + threshold_extra
            img_cut = max(ys[ap], ys[bp])
            witnessed = any(
                xs[p] > cutoff and ys[selection[p]] >= img_cut
                for p in range(len(xs))
            )
            if not witnessed:
                unwitnessed.append((a, ap, b, bp))
            elif xs[b] - xs[a] > 2 * c:
                violations.append((a, ap, b, bp))
    return violations, unwitnessed, inverted


def order_violation_bound(
    r: Correspondence,
    x: FiniteMetricSpace,
    y: FiniteMetricSpace,
    witness_margin: ScalarLike = DEFAULT_WITNESS_MARGIN,
) -> OrderViolationReport:
    """Check that order-inverted pairs span at most twice the distortion.

    The margin is the free witness-distance parameter: an inverted pair is
    only judged when some left point lies beyond b + max(margin, 2c) and its
    selected image lies on the matching side.  Pairs without such a witness
    make the verdict inconclusive rather than failed.
    """
    xs = _require_line(x, "x")
    ys = _require_line(y, "y")
    margin = as_scalar(witness_margin)
    if margin < 0:
        raise ValueError("witness margin must be nonnegative")
    cert = distortion(r, x, y)
    sel = canonical_selection(r)
    _, (xi, (ci, mi)) = _scaled((xs.ints, xs.den), _form((cert.value, margin)))
    violations, unwitnessed, inverted = inverted_pair_violations(
        r.pairs, xi, ys.ints, ci, mi, sel
    )
    if violations:
        status = "fail"
    elif unwitnessed:
        status = "inconclusive"
    else:
        status = "pass"
    return OrderViolationReport(
        status, cert.value, inverted, tuple(violations), tuple(unwitnessed)
    )
