"""Exact Gromov-Hausdorff distance between finite metric spaces.

Two independent routes to the same minimum:

* ``gh_exact`` enumerates subsets of X x Y (depth-first over pair slots,
  filtered by double surjectivity).  Distortion only grows when a pair is
  added, so a branch whose partial distortion already matches the incumbent
  is dead; a branch that can no longer cover every row and column is dead
  too.  Both prunings preserve exactness.
* ``gh_branch_bound`` searches point-by-point image assignments: first every
  X point picks an image, then every still-uncovered Y point picks a
  preimage.  Any correspondence contains such a sub-correspondence with no
  larger distortion, so the restricted family attains the true minimum.

Both report d_GH = (min distortion)/2 with the minimizing correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .correspondence import (
    Correspondence,
    FiniteMetricSpace,
    Pair,
    int_distortion,
    scaled_int_matrices,
)
from .errors import ExhaustiveLimitError

EXHAUSTIVE_LIMIT = 25


@dataclass(frozen=True)
class GHResult:
    """Certified bounds on d_GH, exact value when the search completed."""

    lower: Fraction
    upper: Fraction
    exact: Fraction | None
    optimal: Correspondence | None
    nodes_explored: int
    upper_witness: Correspondence | None = None

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")
        if self.exact is not None:
            if not (self.lower == self.exact == self.upper):
                raise ValueError("exact value must pinch both bounds")
            if self.optimal is None:
                raise ValueError("exact value needs its optimal correspondence")


def _int_diameters(dx: list[list[int]], dy: list[list[int]]) -> tuple[int, int]:
    diam_x = max(v for row in dx for v in row)
    diam_y = max(v for row in dy for v in row)
    return diam_x, diam_y


def _seed_incumbent(
    x: FiniteMetricSpace,
    y: FiniteMetricSpace,
    dx: list[list[int]],
    dy: list[list[int]],
    full_val: int,
) -> tuple[int, Sequence[Pair]]:
    """Initial incumbent: the best of a few cheap correspondences.

    The full relation always works, with distortion ``full_val`` (the larger
    diameter); the nearest-point correspondence of two line-embedded spaces
    and, for equal sizes, the identity-style ones are usually much tighter.
    """
    n, m = x.n, y.n
    best_val = full_val
    best_pairs: Sequence[Pair] = [(i, j) for i in range(n) for j in range(m)]
    seeds: list[Sequence[Pair]] = []
    if x.line_coords is not None and y.line_coords is not None:
        seeds.append(Correspondence.nearest(x.line_coords, y.line_coords).pairs)
    if n == m:
        seeds.append([(i, i) for i in range(n)])
        seeds.append([(i, n - 1 - i) for i in range(n)])
    for seed in seeds:
        seed_val, _ = int_distortion(seed, dx, dy)
        if seed_val < best_val:
            best_val = seed_val
            best_pairs = seed
    return best_val, best_pairs


def gh_exact(
    x: FiniteMetricSpace, y: FiniteMetricSpace, limit: int = EXHAUSTIVE_LIMIT
) -> GHResult:
    """Minimum distortion over all correspondences, by subset enumeration.

    Refuses instances with |X|*|Y| > limit: the subset tree has 2^(|X||Y|)
    leaves and is meant for desk-scale inputs and oracle duty.
    """
    n, m = x.n, y.n
    nm = n * m
    if nm > limit:
        raise ExhaustiveLimitError(
            f"|X|*|Y| = {nm} exceeds the exhaustive limit {limit}; "
            "use gh_branch_bound"
        )
    den, dx, dy = scaled_int_matrices(x, y)
    diam_x, diam_y = _int_diameters(dx, dy)
    lower_int = abs(diam_x - diam_y)

    # pair slot k encodes (i, j) = divmod(k, m)
    table = [
        [abs(dx[k // m][l // m] - dy[k % m][l % m]) for l in range(nm)]
        for k in range(nm)
    ]
    rowbit = [1 << (k // m) for k in range(nm)]
    colbit = [1 << (k % m) for k in range(nm)]
    suf_row = [0] * (nm + 1)
    suf_col = [0] * (nm + 1)
    for k in range(nm - 1, -1, -1):
        suf_row[k] = suf_row[k + 1] | rowbit[k]
        suf_col[k] = suf_col[k + 1] | colbit[k]
    full_row = (1 << n) - 1
    full_col = (1 << m) - 1

    best_val, best_pairs = _seed_incumbent(x, y, dx, dy, max(diam_x, diam_y))
    best_slots = [i * m + j for i, j in best_pairs]

    chosen: list[int] = []
    nodes = 0

    def dfs(k: int, cur: int, rcov: int, ccov: int) -> None:
        nonlocal nodes, best_val, best_slots
        nodes += 1
        if best_val == lower_int or cur >= best_val:
            return
        if (rcov | suf_row[k]) != full_row or (ccov | suf_col[k]) != full_col:
            return
        if k == nm:
            best_val = cur
            best_slots = chosen.copy()
            return
        dfs(k + 1, cur, rcov, ccov)  # without pair k
        if best_val == lower_int:
            return
        nd = cur
        row = table[k]
        for p in chosen:
            v = row[p]
            if v > nd:
                nd = v
        if nd >= best_val:
            return
        chosen.append(k)
        dfs(k + 1, nd, rcov | rowbit[k], ccov | colbit[k])
        chosen.pop()

    if best_val > lower_int:
        dfs(0, 0, 0, 0)

    exact = Fraction(best_val, 2 * den)
    optimal = Correspondence.of([divmod(k, m) for k in best_slots], n, m)
    return GHResult(exact, exact, exact, optimal, nodes, optimal)


def _monotone_possible(
    dom_new, img_new, prior: list[tuple]
) -> bool:
    """Can the selection stay monotone (either direction) with this pair?"""
    inc = dec = True
    for dom_old, img_old in prior:
        s = (dom_new - dom_old) * (img_new - img_old)
        if s < 0:
            inc = False
        elif s > 0:
            dec = False
        if not (inc or dec):
            return False
    return True


def gh_branch_bound(
    x: FiniteMetricSpace, y: FiniteMetricSpace, budget: int | None = None
) -> GHResult:
    """Branch-and-bound over image assignments with certified bounds.

    Bounds are seeded by |diam X - diam Y| below and the full relation (at
    most max diam) above.  X points are assigned in decreasing eccentricity,
    candidate images in increasing partial distortion, ties to the smallest
    index.  For line-embedded spaces whose separation t exceeds twice the
    incumbent distortion, assignments that can no longer extend to a
    monotone selection are pruned: any completion would carry a
    betweenness-violating selection and hence distortion at least t/2.

    When ``budget`` nodes are exhausted the search degrades to bounds only.
    """
    n, m = x.n, y.n
    den, dx, dy = scaled_int_matrices(x, y)
    diam_x, diam_y = _int_diameters(dx, dy)
    lower_int = abs(diam_x - diam_y)

    best_val, best_pairs = _seed_incumbent(x, y, dx, dy, max(diam_x, diam_y))

    xs = x.line_coords.points if x.line_coords is not None else None
    ys = y.line_coords.points if y.line_coords is not None else None
    sep_x = None
    sep_y = None
    if xs is not None and ys is not None:
        if n >= 2:
            sep_x = min(b - a for a, b in zip(xs, xs[1:])) * den
        if m >= 2:
            sep_y = min(b - a for a, b in zip(ys, ys[1:])) * den

    order1 = sorted(range(n), key=lambda i: (-max(dx[i]), i))

    asg: list[Pair] = []
    nodes = 0
    truncated = False

    def delta_with(i: int, j: int, cur: int) -> int:
        nd = cur
        row_x = dx[i]
        row_y = dy[j]
        for i2, j2 in asg:
            v = row_x[i2] - row_y[j2]
            if v < 0:
                v = -v
            if v > nd:
                nd = v
        return nd

    def complete(cur: int) -> None:
        nonlocal best_val, best_pairs
        if cur < best_val:
            best_val = cur
            best_pairs = list(asg)

    def stage2(pos: int, uncovered: list[int], cur: int) -> None:
        nonlocal nodes, truncated
        if truncated:
            return
        nodes += 1
        if budget is not None and nodes > budget:
            truncated = True
            return
        if best_val == lower_int or cur >= best_val:
            return
        if pos == len(uncovered):
            complete(cur)
            return
        j = uncovered[pos]
        cands = sorted((delta_with(i, j, cur), i) for i in range(n))
        for nd, i in cands:
            if nd >= best_val:
                break
            if sep_y is not None and sep_y > 2 * best_val:
                prior = [(ys[j2], xs[i2]) for i2, j2 in asg[n:]]
                if not _monotone_possible(ys[j], xs[i], prior):
                    continue
            asg.append((i, j))
            stage2(pos + 1, uncovered, nd)
            asg.pop()
            if truncated:
                return

    def stage1(slot: int, cur: int) -> None:
        nonlocal nodes, truncated
        if truncated:
            return
        nodes += 1
        if budget is not None and nodes > budget:
            truncated = True
            return
        if best_val == lower_int or cur >= best_val:
            return
        if slot == n:
            covered = {j for _, j in asg}
            stage2(0, [j for j in range(m) if j not in covered], cur)
            return
        i = order1[slot]
        cands = sorted((delta_with(i, j, cur), j) for j in range(m))
        for nd, j in cands:
            if nd >= best_val:
                break
            if sep_x is not None and sep_x > 2 * best_val:
                prior = [(xs[i2], ys[j2]) for i2, j2 in asg]
                if not _monotone_possible(xs[i], ys[j], prior):
                    continue
            asg.append((i, j))
            stage1(slot + 1, nd)
            asg.pop()
            if truncated:
                return

    if best_val > lower_int:
        stage1(0, 0)

    witness = Correspondence.of(best_pairs, n, m)
    if truncated:
        return GHResult(
            Fraction(lower_int, 2 * den),
            Fraction(best_val, 2 * den),
            None,
            None,
            nodes,
            witness,
        )
    exact = Fraction(best_val, 2 * den)
    return GHResult(exact, exact, exact, witness, nodes, witness)
