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
They share one start, ``_start`` (int matrices, diameter lower bound and a
seeded incumbent), and one search step: the partial distortion once a pair
joins the pairs chosen so far, ``_reach`` in ``gh_exact`` and inlined in the
candidate scan of ``gh_branch_bound``.  Each partial distortion and profile
cost is only ever compared with the incumbent ("value < incumbent"), so
every such scan stops as soon as its value reaches the incumbent: a capped
value prunes exactly as the full one would, and results and node counts do
not depend on where a scan stops.

Branch-and-bound also uses two polynomial bounds.  The profile lower bound
(Memoli, "Some properties of Gromov-Hausdorff distances", 2012) compares
the distance rows of x and y: c(x, y), their Hausdorff distance, is at most
dis R whenever (x, y) lies in R, so 2 d_GH >= max(max_x min_y c,
max_y min_x c) on any finite metric.  Capping every c at the incumbent
leaves this bound unchanged, because each row and column minimum is at
most the least distortion.  The staircase upper bound, for line spaces, is
the best monotone correspondence; its distortion is the range of the
offsets x_i - y_j along a lattice path, minimised by a bottleneck DP.
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
from .errors import ExhaustiveLimitError, InvariantError

EXHAUSTIVE_LIMIT = 25


@dataclass(frozen=True)
class GHResult:
    """Certified bounds on d_GH, exact value when the search completed."""

    lower: Fraction
    upper: Fraction
    exact: Fraction | None
    nodes_explored: int
    upper_witness: Correspondence | None = None

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise InvariantError("lower bound exceeds upper bound")
        if self.exact is not None:
            if not (self.lower == self.exact == self.upper):
                raise InvariantError("exact value must pinch both bounds")
            if self.upper_witness is None:
                raise InvariantError("exact value needs its optimal correspondence")


def _start(
    x: FiniteMetricSpace, y: FiniteMetricSpace
) -> tuple[int, list[list[int]], list[list[int]], int, int, Sequence[Pair]]:
    """(den, dx, dy, |diam X - diam Y|, incumbent value, incumbent pairs).

    The incumbent is the best of the full relation, whose distortion is the
    larger diameter, and cheap seeds that are usually much tighter: the
    nearest-point correspondence of two line spaces and, for equal sizes,
    the identity and the reversal.
    """
    n, m = x.n, y.n
    den, dx, dy = scaled_int_matrices(x, y)
    diam_x, diam_y = max(map(max, dx)), max(map(max, dy))
    best_val = max(diam_x, diam_y)
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
    return den, dx, dy, abs(diam_x - diam_y), best_val, best_pairs


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
            f"|X|*|Y| = {nm} exceeds the exhaustive limit {limit}; "
            "use gh_branch_bound"
        )
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

    chosen: list[Pair] = []
    nodes = 0

    def dfs(k: int, cur: int, rcov: int, ccov: int) -> None:
        nonlocal nodes, best_val, best_pairs
        nodes += 1
        if best_val == lower_int:
            return
        if (rcov | suf_row[k]) != full_row or (ccov | suf_col[k]) != full_col:
            return
        if k == nm:
            best_val = cur
            best_pairs = chosen.copy()
            return
        dfs(k + 1, cur, rcov, ccov)  # without pair k
        if best_val == lower_int:
            return
        i, j = slots[k]
        nd = _reach(cur, dx[i], dy[j], chosen, best_val)
        if nd >= best_val:
            return
        chosen.append(slots[k])
        dfs(k + 1, nd, rcov | rowbit[k], ccov | colbit[k])
        chosen.pop()

    if best_val > lower_int:
        dfs(0, 0, 0, 0)

    exact = Fraction(best_val, 2 * den)
    return GHResult(exact, exact, exact, nodes, Correspondence.of(best_pairs, n, m))


# not geometry._directed_sup on doubled rows: same costs, but 2.6x slower on the
# 162-instance quality set (0.37 s against 0.14 s, 2-core Xeon, Python 3.11)
def _directed_sorted(a: list[int], b: list[int], cap: int) -> int:
    """min(cap, largest distance from a value of ``a`` to its nearest value of
    ``b``); both ascending and nonempty, merged with two pointers, stopping
    at the first distance that reaches ``cap``."""
    worst = 0
    k = 0
    last = len(b) - 1
    for v in a:
        while k < last and b[k + 1] <= v:
            k += 1
        d = v - b[k] if v >= b[k] else b[k] - v
        if k < last and b[k + 1] - v < d:
            d = b[k + 1] - v
        if d > worst:
            if d >= cap:
                return cap
            worst = d
    return worst


def _profile_costs(
    dx: list[list[int]], dy: list[list[int]], cap: int
) -> list[list[int]]:
    """c[i][j]: Hausdorff distance between the distance rows of i and j,
    capped at ``cap``.

    If (i, j) lies in a correspondence R, every x' has a partner y' with
    | d(x_i, x') - d(y_j, y') | <= dis R, and symmetrically, so
    c[i][j] <= dis R.
    """
    rows_y = [sorted(set(row)) for row in dy]
    costs = []
    for row in dx:
        a = sorted(set(row))
        costs.append(
            [max(_directed_sorted(a, b, cap), _directed_sorted(b, a, cap))
             for b in rows_y]
        )
    return costs


def _profile_bound(costs: list[list[int]]) -> int:
    """Lower bound on the minimum distortion: R covers every row and every
    column, so it holds some (i, j) with c[i][j] at least the row (column)
    minimum."""
    return max(
        max(min(row) for row in costs),
        max(min(col) for col in zip(*costs)),
    )


def _staircase(
    xs: list[int], ys: list[int], cap: int
) -> tuple[int, list[Pair]] | None:
    """Least-distortion increasing staircase below ``cap``, or None.

    A monotone lattice path from (0, 0) to (n-1, m-1) covers every row and
    column, and for two of its cells |(x_i' - x_i) - (y_j' - y_j)| is the
    difference of the offsets o(i, j) = x_i - y_j, so its distortion is the
    range of its offsets.  For each candidate minimum offset ``lo``, taken
    downward, a bottleneck DP finds the least maximum offset over paths
    whose offsets all lie in [lo, lo + cap); the scan stops once the path
    ends alone span ``cap``.  Returns (distortion, path).
    """
    n, m = len(xs), len(ys)
    off = [[a - b for b in ys] for a in xs]
    start, end = off[0][0], off[n - 1][m - 1]
    top = max(start, end)
    low_ends = {o for row in off for o in row if o <= min(start, end)}
    best = None
    for lo in sorted(low_ends, reverse=True):
        if top - lo >= cap:
            break
        hi = lo + cap
        # f[i][j]: least maximum offset of an admissible path to (i, j)
        f: list[list[int | None]] = []
        prev: list[int | None] = [None] * m
        for i in range(n):
            row = off[i]
            cur: list[int | None] = [None] * m
            for j in range(m):
                o = row[j]
                if o < lo or o >= hi:
                    continue
                if i == 0 and j == 0:
                    cur[0] = o
                    continue
                b = prev[j]
                if j:
                    for c in (cur[j - 1], prev[j - 1]):
                        if c is not None and (b is None or c < b):
                            b = c
                if b is not None:
                    cur[j] = o if o > b else b
            f.append(cur)
            prev = cur
        reach = f[n - 1][m - 1]
        if reach is None:
            continue
        cap = reach - lo
        # walk back through predecessors of least f, diagonal first on ties
        i, j = n - 1, m - 1
        path = [(i, j)]
        while i or j:
            steps = [
                (a, b)
                for a, b in ((i - 1, j - 1), (i - 1, j), (i, j - 1))
                if a >= 0 and b >= 0 and f[a][b] is not None
            ]
            i, j = min(steps, key=lambda s: f[s[0]][s[1]])
            path.append((i, j))
        best = (cap, path[::-1])
    return best


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
    """The larger of the diameter and profile lower bounds on d_GH."""
    den, dx, dy = scaled_int_matrices(x, y)
    diam_gap = abs(max(map(max, dx)) - max(map(max, dy)))
    # a cap above every entry leaves each cost uncapped
    cap = max(map(max, dx + dy)) + 1
    low = max(diam_gap, _profile_bound(_profile_costs(dx, dy, cap)))
    return Fraction(low, 2 * den)


def staircase_bound(
    x: FiniteMetricSpace, y: FiniteMetricSpace
) -> tuple[Fraction, Correspondence]:
    """Upper bound on d_GH of two line spaces from the best monotone
    staircase correspondence, with that correspondence.

    The value is the one the DP reports (half the offset range), not a
    recomputed distortion, so callers can check the two against each other.
    """
    if x.line_coords is None or y.line_coords is None:
        raise ValueError("staircase bounds need two line-embedded spaces")
    den, dx, dy = scaled_int_matrices(x, y)
    # every correspondence has distortion at most the larger diameter
    cap = max(map(max, dx + dy)) + 1
    # row 0 stands in for the coordinates: it only shifts every offset
    found = _best_staircase(dx[0], dy[0], cap)
    assert found is not None
    value, pairs = found
    return Fraction(value, 2 * den), Correspondence.of(pairs, x.n, y.n)


def gh_branch_bound(
    x: FiniteMetricSpace, y: FiniteMetricSpace, budget: int | None = None
) -> GHResult:
    """Branch-and-bound over image assignments with certified bounds.

    It starts from the seeded incumbent and diameter bound of ``_start``.
    While the gap is open, cheapest first, the profile bound raises the
    lower bound and, for line spaces, the best staircase correspondence
    replaces the incumbent when strictly better.  The search stops as soon
    as the incumbent meets the lower bound, and skips every candidate pair
    whose profile cost c(i, j) already reaches the incumbent: no completion
    holding it can improve.

    One recursive search walks a list of steps, each fixing one index of the
    next pair: first every X row in decreasing eccentricity, then, once
    every row has an image, one step per still-uncovered Y column.  A step
    tries its candidate pairs in increasing partial distortion, ties to the
    smallest index; a pair whose partial distortion reaches the incumbent is
    dropped at the first term that reaches it.  Each call is one node, the
    switch from rows to columns included.

    When ``budget`` nodes are exhausted the search degrades to bounds only:
    the incumbent above and the diameter or profile bound below.
    """
    n, m = x.n, y.n
    den, dx, dy, lower_int, best_val, best_pairs = _start(x, y)

    # cheapest first: each bound is computed only while the gap is open
    costs: list[list[int]] = []
    if best_val > lower_int:
        # capped at the incumbent, which leaves the profile bound unchanged
        costs = _profile_costs(dx, dy, best_val)
        lower_int = max(lower_int, _profile_bound(costs))
    if best_val > lower_int and x.line_coords is not None and y.line_coords is not None:
        # row 0 stands in for the coordinates: it only shifts every offset
        found = _best_staircase(dx[0], dy[0], best_val)
        if found is not None:
            stair_val, _ = int_distortion(found[1], dx, dy)
            if stair_val < best_val:
                best_val, best_pairs = stair_val, found[1]

    asg: list[Pair] = []
    nodes = 0
    truncated = False

    def search(k: int, cur: int) -> None:
        nonlocal nodes, truncated, best_val, best_pairs
        nodes += 1
        if budget is not None and nodes > budget:
            truncated = True
            return
        if best_val == lower_int:
            return
        if k == len(steps):
            best_val = cur
            best_pairs = list(asg)
            return
        step = steps[k]
        if step is None:
            covered = {j for _, j in asg}
            steps[k + 1:] = [cols[j] for j in range(m) if j not in covered]
            search(k + 1, cur)
            return
        # _reach inlined (a call per cell took 1.33-1.54 s against 1.16-1.40 s
        # on the 567 quality and seed-1 gh-solve instances, 2-core Xeon), so a
        # cell is dropped at the first term that reaches the incumbent and
        # cands holds live cells only
        cands = []
        for i, j, c in step:
            if c >= best_val:
                continue
            row_x, row_y = dx[i], dy[j]
            nd = cur
            for i2, j2 in asg:
                v = row_x[i2] - row_y[j2]
                if v < 0:
                    v = -v
                if v > nd:
                    if v >= best_val:
                        break
                    nd = v
            else:
                cands.append((nd, i, j))
        cands.sort()
        for nd, i, j in cands:
            if nd >= best_val:
                break
            if costs[i][j] >= best_val:
                continue
            asg.append((i, j))
            search(k + 1, nd)
            asg.pop()
            if truncated:
                return

    if best_val > lower_int:
        # a step lists the cells (i, j, c(i, j)) of one X row or, after the
        # switch marked None, of one uncovered Y column
        cells = [[(i, j, c) for j, c in enumerate(row)] for i, row in enumerate(costs)]
        order = sorted(range(n), key=lambda i: (-max(dx[i]), i))
        steps = [cells[i] for i in order] + [None]
        cols = list(zip(*cells))
        search(0, 0)

    witness = Correspondence.of(best_pairs, n, m)
    upper = Fraction(best_val, 2 * den)
    if truncated:
        lower = Fraction(lower_int, 2 * den)
        return GHResult(lower, upper, None, nodes, witness)
    return GHResult(upper, upper, upper, nodes, witness)
