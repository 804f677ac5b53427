"""Exact Gromov-Hausdorff distance between finite metric spaces.

Two searches for the same minimum:

* ``gh_exact`` enumerates subsets of X x Y (depth-first over pair slots,
  filtered by double surjectivity).  Distortion only grows when a pair is
  added, so a branch whose partial distortion already matches the incumbent
  is dead; a branch that can no longer cover every row and column is dead
  too.  Both prunings preserve exactness.
* ``gh_branch_bound`` searches point-by-point image assignments: first every
  X point picks an image, then every still-uncovered Y point picks a
  preimage.  Any correspondence contains such a sub-correspondence with no
  larger distortion, so the restricted family attains the true minimum.

They are not independent of each other.  Both report d_GH = (min
distortion)/2 and its witness through one finish, ``_result``, which
re-derives the distortion of the incumbent's correspondence and raises
`InvariantError` on any other value.  They share one start, ``_start``
(int matrices, diameter lower bound and a seeded incumbent, on line pairs
the best monotone staircase), and one search step, ``_reach``: the partial
distortion once a pair joins the pairs chosen so far.  Independent
references live in the tests: the numpy full-mask oracle of
``tests/test_acceptance.py`` and ``brute_force_min_distortion`` of
``tests/test_solver.py``.  A partial distortion is only ever compared with
the incumbent, so each scan stops at the first value that reaches it: a
capped value prunes exactly as the full one would, and results and node
counts do not depend on where a scan stops.  Both searches stop once the
incumbent meets the diameter lower bound, and both walk their own stack of
pending nodes, so whether an input is solved does not depend on the
interpreter's recursion limit.

Branch-and-bound also refines.  Refinement at a threshold t (Ullmann's
1976 refinement for subgraph isomorphism, applied to correspondences)
deletes every cell that no correspondence of distortion below t can hold;
an emptied row proves the least distortion is at least t.  It starts from
the cells whose eccentricities differ by less than t (Mémoli, "Some
properties of Gromov-Hausdorff distances", 2012), a set that holds every
cell of the fixpoint, so it ends where a start from the full relation
does.  Every cell it keeps has distance rows at Hausdorff distance below t
(the profile filter of the same paper), so it subsumes the profile lower
bound.  Singleton refinement probes each live cell by assuming it and
refining from there; ``gh_branch_bound`` says where each is used.  Neither
counts a search node.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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
from .errors import ExhaustiveLimitError, InvariantError

EXHAUSTIVE_LIMIT = 25


@dataclass(frozen=True)
class GHResult:
    """Certified bounds on d_GH, exact value when the search completed, and the
    correspondence attaining 2·upper with the two of its pairs that attain it."""

    lower: Fraction
    upper: Fraction
    exact: Fraction | None
    nodes_explored: int
    upper_witness: Correspondence
    witness: tuple[Pair, Pair]

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise InvariantError("lower bound exceeds upper bound")
        if self.exact is not None and not (self.lower == self.exact == self.upper):
            raise InvariantError("exact value must pinch both bounds")


def _start(
    x: FiniteMetricSpace, y: FiniteMetricSpace
) -> tuple[int, list[list[int]], list[list[int]], int, int, Sequence[Pair]]:
    """(den, dx, dy, |diam X - diam Y|, incumbent value, incumbent pairs).

    The incumbent is the best of the full relation, whose distortion is the
    larger diameter, and a cheap seed that is usually much tighter: for two
    line spaces the best staircase, which the nearest-point correspondence,
    the identity and the reversal can only match, since each of them is an
    increasing or decreasing staircase; for other pairs of equal size the
    identity and the reversal.
    """
    n, m = x.n, y.n
    den, dx, dy = scaled_int_matrices(x, y)
    diam_x, diam_y = max(map(max, dx)), max(map(max, dy))
    best_val = max(diam_x, diam_y)
    best_pairs: Sequence[Pair] = [(i, j) for i in range(n) for j in range(m)]
    if x.line_coords is not None and y.line_coords is not None:
        # row 0 stands in for the coordinates: it only shifts every offset
        found = _best_staircase(dx[0], dy[0], best_val)
        if found is not None:
            best_val, best_pairs = found
    elif n == m:
        for seed in ([(i, i) for i in range(n)], [(i, n - 1 - i) for i in range(n)]):
            seed_val, _ = int_distortion(seed, dx, dy)
            if seed_val < best_val:
                best_val = seed_val
                best_pairs = seed
    return den, dx, dy, abs(diam_x - diam_y), best_val, best_pairs


def _result(den: int, dx: list[list[int]], dy: list[list[int]], low: int,
            value: int, pairs: Sequence[Pair], nodes: int) -> GHResult:
    """Bounds ``low`` <= least distortion <= ``value``, which ``pairs`` attain:
    their distortion is re-derived in the sorted scan of ``distortion``, so
    the witness is the same, and anything but ``value`` is a library defect."""
    corr = Correspondence.of(pairs, len(dx), len(dy))
    found, witness = int_distortion(corr.pairs, dx, dy)
    if found != value:
        raise InvariantError("the incumbent's correspondence has another distortion")
    upper = Fraction(value, 2 * den)
    exact = upper if low == value else None
    return GHResult(Fraction(low, 2 * den), upper, exact, nodes, corr, witness)


def _reach(
    cur: int, row_x: list[int], row_y: list[int], pairs: list[Pair], cap: int
) -> int:
    """Partial distortion once the pair with distance rows ``row_x``, ``row_y``
    joins ``pairs``: max(cur, | row_x[i2] - row_y[j2] |) over (i2, j2) in them,
    exact below ``cap``; the scan returns the first term that reaches ``cap``.
    """
    for i2, j2 in pairs:
        v = row_x[i2] - row_y[j2]
        if v < 0:
            v = -v
        if v > cur:
            if v >= cap:
                return v
            cur = v
    return cur


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
            f"|X|*|Y| = {nm} exceeds the exhaustive limit {limit}; use gh_branch_bound")
    den, dx, dy, lower_int, best_val, best_pairs = _start(x, y)

    # pair slot k is (i, j) = divmod(k, m)
    slots = [divmod(k, m) for k in range(nm)]
    rowbit = [1 << i for i, _ in slots]
    colbit = [1 << j for _, j in slots]
    suf_row = [0] * (nm + 1)
    suf_col = [0] * (nm + 1)
    for k in range(nm - 1, -1, -1):
        suf_row[k] = suf_row[k + 1] | rowbit[k]
        suf_col[k] = suf_col[k + 1] | colbit[k]
    full_row = (1 << n) - 1
    full_col = (1 << m) - 1

    # depth first, "without pair k" first: a chain of "without" children leaves
    # each "with" child pending, entered after them if it still improves
    pending: list[tuple[int, int, int, int, tuple[Pair, ...]]] = []
    k = cur = rcov = ccov = nodes = 0
    chosen: tuple[Pair, ...] = ()
    while best_val > lower_int:
        while True:
            nodes += 1
            if (rcov | suf_row[k]) != full_row or (ccov | suf_col[k]) != full_col:
                break
            if k == nm:
                best_val, best_pairs = cur, chosen
                break
            pending.append((k, cur, rcov, ccov, chosen))
            k += 1
        while pending and best_val > lower_int:
            k, cur, rcov, ccov, chosen = pending.pop()
            i, j = pair = slots[k]
            nd = _reach(cur, dx[i], dy[j], chosen, best_val)
            if nd < best_val:
                k, cur, rcov, ccov = k + 1, nd, rcov | rowbit[k], ccov | colbit[k]
                chosen += (pair,)
                break
        else:
            break

    return _result(den, dx, dy, best_val, best_val, best_pairs, nodes)


def _near(dx: list[list[int]], dy: list[list[int]], t: int) -> list[dict[int, int]]:
    """near[j][a]: the columns j2 with | a - dy[j][j2] | < t, for every
    distance a in ``dx``, as two prefix-ORs over the sorted Y row, whose
    ends a merge with the sorted distances finds."""
    values = sorted({a for row in dx for a in row})
    near = []
    for row in dy:
        order = sorted(range(len(row)), key=row.__getitem__)
        keys = [row[j] for j in order]
        prefix = [0]
        for j in order:
            prefix.append(prefix[-1] | 1 << j)
        keys.append(values[-1] + t + 1)  # a sentinel that neither end passes
        table = {}
        lo = hi = 0  # keys[:hi] are below a + t, keys[:lo] at most a - t
        for a in values:
            while keys[hi] < a + t:
                hi += 1
            while keys[lo] <= a - t:
                lo += 1
            table[a] = prefix[hi] & ~prefix[lo]
        near.append(table)
    return near


def _fixpoint(dx: list[list[int]], near: list[dict[int, int]], live: list[int]) -> bool:
    """Refine ``live``, the live columns of each X row, in place; False once
    a row empties, which proves that no correspondence inside ``live`` has
    distortion below the threshold of ``near``.

    A cell (i, j) stays live while every row i2 has a live (i2, j2) with
    | dx[i][i2] - dy[j][j2] | < t and those j2 cover every column, as each
    cell of such a correspondence does.  A dead cell leaves ``live`` at
    once.  The result is the greatest fixpoint below the start whatever
    the order, so refutation is monotone in t.
    """
    full = (1 << len(near)) - 1
    if not all(live):
        return False
    changed = True
    while changed:
        changed = False
        for i, row_x in enumerate(dx):
            keep = live[i]
            for j, near_j in enumerate(near):
                if not keep >> j & 1:
                    continue
                cover = 0
                for i2, a in enumerate(row_x):
                    s = live[i2] & near_j[a]
                    if not s:
                        break
                    cover |= s
                else:
                    if cover == full:
                        continue
                keep &= ~(1 << j)
                if not keep:
                    return False
                live[i] = keep
                changed = True
    return True


def _eccentric(dx: list[list[int]], dy: list[list[int]], t: int) -> list[int]:
    """The cells (i, j) with | max(dx[i]) - max(dy[j]) | < ``t``, as live
    columns per X row.  Every cell of a refinement fixpoint passes: the
    farthest point of each side needs a partner within t, in both the
    support and the cover test.  So the greatest fixpoint below this start
    is the one below the full relation."""
    ey = [max(row) for row in dy]
    return [sum(1 << j for j, f in enumerate(ey) if -t < e - f < t) for e in map(max, dx)]


def _refine(dx: list[list[int]], dy: list[list[int]], t: int) -> list[int] | None:
    """Live columns of each X row after refinement at ``t`` from the
    eccentric cells; None once a row empties (see ``_fixpoint``)."""
    live = _eccentric(dx, dy, t)
    return live if _fixpoint(dx, _near(dx, dy, t), live) else None


def _singleton_refine(
    dx: list[list[int]], dy: list[list[int]], t: int
) -> list[int] | None:
    """Refinement at ``t`` from the eccentric cells, tightened by singleton
    probes (singleton arc consistency; Debruyne and Bessiere, 1997); None
    once a row empties.

    The probe of a live cell (i, j) assumes it is in the correspondence:
    every row i2, row i included, keeps the columns j2 with
    | dx[i][i2] - dy[j][j2] | < t, since a row may hold several columns.
    A correspondence of distortion below t that holds (i, j) lies inside
    that state and survives its fixpoint, so a probe that empties a row
    deletes (i, j); the fixpoint then runs again on ``live``.  Probes
    repeat until none deletes a cell.
    """
    near = _near(dx, dy, t)
    live = _eccentric(dx, dy, t)
    if not _fixpoint(dx, near, live):
        return None
    deleted = True
    while deleted:
        deleted = False
        for i, row_x in enumerate(dx):
            for j, near_j in enumerate(near):
                if not live[i] >> j & 1:
                    continue
                probe = [cols & near_j[a] for cols, a in zip(live, row_x)]
                if _fixpoint(dx, near, probe):
                    continue
                live[i] &= ~(1 << j)
                if not _fixpoint(dx, near, live):
                    return None
                deleted = True
    return live


def _refined_bound(dx: list[list[int]], dy: list[list[int]], lo: int, hi: int) -> int:
    """Largest t in (lo, hi) at which refinement refutes, else ``lo``: a
    lower bound on the least distortion.  Every distortion is some
    | a - b | with a in dx and b in dy, so bisection runs over those.
    """
    vx, vy = ({v for row in d for v in row} for d in (dx, dy))
    gaps = sorted(g for g in {abs(a - b) for a in vx for b in vy} if lo < g < hi)
    k, end = 0, len(gaps)  # refutation is monotone: gaps[:k] refute, gaps[end:] not
    while k < end:
        mid = (k + end) // 2
        if _refine(dx, dy, gaps[mid]) is None:
            k = mid + 1
        else:
            end = mid
    return gaps[k - 1] if k else lo


def _staircase(
    xs: list[int], ys: list[int], cap: int
) -> tuple[int, list[Pair]] | None:
    """Least-distortion increasing staircase below ``cap``, or None.

    A monotone lattice path from (0, 0) to (n-1, m-1) covers every row and
    column, and for two of its cells |(x_i' - x_i) - (y_j' - y_j)| is the
    difference of the offsets o(i, j) = x_i - y_j, so its distortion is the
    range of its offsets.  In a band lo <= o <= lo + w the admissible
    columns of each row form one run, and the runs move right row by row,
    so a path exists iff every row and every column has an admissible cell.
    The least such w pairs each x with its last y at or below x - lo and
    each y with its first x at or above y + lo; those picks cross nowhere,
    and together they are the path.  The sweep takes the offsets lo at or
    below both path ends downward, keeps the narrowest band, and stops once
    the path ends alone span ``cap``.  Returns (distortion, path).  Half the
    lesser of the increasing and decreasing values is d_H,iso, the Hausdorff
    distance under translation and reflection, and d_GH <= d_H,iso <= (5/4)
    d_GH on the line (Majhi, Vitter and Wenk, arXiv:1912.13008).  The two
    can differ: {0, 42, 48, 51} and {0, 30, 34, 63} have a best staircase of
    13 and d_GH = 12, so on line pairs the staircase is only the seed.
    """
    start, end = xs[0] - ys[0], xs[-1] - ys[-1]
    top, floor = max(start, end), min(start, end)
    best_lo = None
    # lo <= start and lo <= end, so no row or column lacks its pick
    for lo in sorted({a - b for a in xs for b in ys if a - b <= floor}, reverse=True):
        if top - lo >= cap:
            break
        w = 0  # the least width, unless a pick reaches cap
        for a in xs:
            v = a - lo - ys[bisect_right(ys, a - lo) - 1]
            if v > w:
                w = v
                if w >= cap:
                    break
        if w >= cap:
            continue
        for b in ys:
            v = xs[bisect_left(xs, b + lo)] - b - lo
            if v > w:
                w = v
                if w >= cap:
                    break
        if w < cap:
            cap, best_lo = w, lo
    if best_lo is None:
        return None
    path = {(i, bisect_right(ys, a - best_lo) - 1) for i, a in enumerate(xs)}
    path |= {(bisect_left(xs, b + best_lo), j) for j, b in enumerate(ys)}
    return cap, sorted(path)


def _best_staircase(
    xs: list[int], ys: list[int], cap: int
) -> tuple[int, list[Pair]] | None:
    """Best increasing or decreasing staircase below ``cap``, or None."""
    best = _staircase(xs, ys, cap)
    if best is not None:
        cap = best[0]
    m = len(ys)
    down = _staircase(xs, [-v for v in reversed(ys)], cap)
    if down is not None:
        best = (down[0], [(i, m - 1 - j) for i, j in down[1]])
    return best


def gh_lower_bound(x: FiniteMetricSpace, y: FiniteMetricSpace) -> Fraction:
    """The diameter lower bound on d_GH, raised by bisected refinement up
    to the seeded incumbent, above which refinement never refutes."""
    den, dx, dy, diam_gap, best_val, _ = _start(x, y)
    return Fraction(_refined_bound(dx, dy, diam_gap, best_val + 1), 2 * den)


def staircase_bound(
    x: FiniteMetricSpace, y: FiniteMetricSpace
) -> tuple[Fraction, Correspondence]:
    """Upper bound on d_GH of two line spaces from the best monotone
    staircase correspondence, with that correspondence: the seed of ``_start``.

    The value is the one the sweep reports (half the band width), not a
    recomputed distortion, so callers can check the two against each other.
    """
    if x.line_coords is None or y.line_coords is None:
        raise ValueError("staircase bounds need two line-embedded spaces")
    den, _, _, _, value, pairs = _start(x, y)
    return Fraction(value, 2 * den), Correspondence.of(pairs, x.n, y.n)


def gh_branch_bound(
    x: FiniteMetricSpace, y: FiniteMetricSpace, budget: int | None = None
) -> GHResult:
    """Branch-and-bound over image assignments with certified bounds.

    It starts from the seeded incumbent and diameter bound of ``_start``.
    While the gap is open, refinement at the incumbent either proves it
    optimal, with no node, or leaves the live cells.  On two line spaces
    that step is singleton refinement, which can prove the staircase seed
    at the root where refinement alone cannot (pinned by
    ``test_singleton_refinement_closes_a_pair_refinement_leaves_open``).
    On {0, 42, 48, 51} and {0, 30, 34, 63}, whose staircase is not optimal,
    it leaves [21/2, 13] and the search finds 12 in 18 nodes (the goldens
    ``dist-gh-bb-line-search`` and its ``--budget 0`` twin).  Matrix pairs
    take plain refinement: on 18 band pairs of 8-18 points at budget
    1,000, the probes closed no more pairs and took about 4.6 times the
    solver time (measured in CHANGES.md).

    One search walks a list of steps, each fixing one index of the next
    pair: first every X row in decreasing eccentricity, then, once every
    row has an image, one step per still-uncovered Y column.  A step tries
    its live cells in increasing partial distortion, ties to the smallest
    index, and drops a cell at the first term that reaches the incumbent.
    Each node visited counts, the switch from rows to columns included.
    When ``budget`` nodes are exhausted the result is bounds only, the
    bisected refinement bound below the incumbent, unless that bound meets
    it.
    """
    n, m = x.n, y.n
    den, dx, dy, lower_int, best_val, best_pairs = _start(x, y)

    line_pair = x.line_coords is not None and y.line_coords is not None
    refine = _singleton_refine if line_pair else _refine
    live = refine(dx, dy, best_val) if best_val > lower_int else None
    if live is None:
        lower_int = best_val
        stack = []
    else:
        # a step lists the live cells (i, j) of one X row or, after the
        # switch marked None, of one uncovered Y column
        order = sorted(range(n), key=lambda i: (-max(dx[i]), i))
        steps = [[(i, j) for j in range(m) if live[i] >> j & 1] for i in order] + [None]
        cols = [[(i, j) for i in range(n) if live[i] >> j & 1] for j in range(m)]
        stack = [(0, 0, ())]

    # depth first: each entry (step, partial distortion, pairs) is a node,
    # skipped once the incumbent it was pushed under has fallen to its
    # distortion, as its later siblings are, since candidates are sorted
    nodes = 0
    truncated = False
    while stack:
        k, cur, asg = stack.pop()
        if cur >= best_val:
            continue
        nodes += 1
        if budget is not None and nodes > budget:
            truncated = True
            break
        if best_val == lower_int:
            continue
        if k == len(steps):
            best_val, best_pairs = cur, asg
            continue
        step = steps[k]
        if step is None:
            covered = {j for _, j in asg}
            steps[k + 1:] = [cols[j] for j in range(m) if j not in covered]
            stack.append((k + 1, cur, asg))
            continue
        cands = []
        for i, j in step:
            nd = _reach(cur, dx[i], dy[j], asg, best_val)
            if nd < best_val:
                cands.append((nd, i, j))
        cands.sort(reverse=True)
        stack += [(k + 1, nd, asg + ((i, j),)) for nd, i, j in cands]

    # the search may have lowered the incumbent to a value refinement refutes
    low = _refined_bound(dx, dy, lower_int, best_val + 1) if truncated else best_val
    return _result(den, dx, dy, low, best_val, best_pairs, nodes)
