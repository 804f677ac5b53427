"""Randomized suites certifying the library's inequalities at desk scale.

Theorem-backed suites (ultrametric, bounded cloud, GH bounds, continuity,
stability, order lemmas, construction bounds) must report zero failures:
any failure is a defect.  Experiment operations (homothety, geometric
progression, the lambda-bound counterexample search) are trend reports, not
pass/fail checks.

Every suite is one row of ``SUITES`` and runs through one runner.  The
row's ``draw(rng, cfg, index)`` returns case ``index``'s ``(check,
instance)`` items, taking every random choice from the suite's seeded
``random.Random``, so a configuration reproduces its report byte for byte.
Point sets are drawn as ints over lcm(1..``DENOMINATOR_BOUND``) and built
by ``PointSet.from_ints``; the hot checks compare the int kernels' scaled
values, and ``Fraction``s are built only for printed values.
``check(tally, **instance)`` returns a failure detail or ``None`` and may
count into the suite's ``Tally``, which the row's ``records`` renders.  A
failing instance is shrunk by greedy point removal (``shrink_instance``)
and serialized for replay through ``netline.formats``.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .constructions import extend_correspondence, segment_correspondence
from .correspondence import Correspondence, FiniteMetricSpace, diam, distortion
from .errors import InvariantError, PreconditionError
from .formats import format_metric_space, format_space
from .geometry import (
    Form,
    PointSet,
    ScalarLike,
    Window,
    _covering,
    _form,
    _hausdorff,
    _Ints,
    _scaled,
    as_scalar,
    covering_radius,
    hausdorff,
    scalar_str,
)
from .homotopy import _continuity, _stability
from .ordering import check_order_preservation, order_violation_bound
from .solver import (
    EXHAUSTIVE_LIMIT,
    gh_branch_bound,
    gh_exact,
    gh_lower_bound,
    staircase_bound,
)

MIN_POINTS = 1
MAX_POINTS = 6
DENOMINATOR_BOUND = 64
_DRAW_DEN = lcm(*range(1, DENOMINATOR_BOUND + 1))  # every drawn p/q is an int over it


@dataclass(frozen=True)
class GeneratorConfig:
    """Deterministic instance generator settings: same seed, same instances."""

    seed: int = 0
    window: Window = Window(Fraction(0), Fraction(10))


@dataclass(frozen=True)
class CaseFailure:
    index: int
    instance: str
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    cases: int
    failures: tuple[CaseFailure, ...] = ()
    records: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            f"suite: {self.suite}",
            f"seed: {self.seed}",
            f"cases: {self.cases}",
            f"failures: {len(self.failures)}",
            "exact: yes",
        ]
        lines.extend(f"record: {r}" for r in self.records)
        for f in self.failures:
            lines.append(f"failure[{f.index}]: {f.detail}")
            lines.append(f"  instance: {f.instance}")
        return "\n".join(lines) + "\n"


class Tally(Counter):
    """What a suite's checks count over one run, for its records.

    ``case`` is the index of the case being checked; ``examples`` keeps
    example record lines in the order they were found.
    """

    def __init__(self) -> None:
        super().__init__()
        self.case = 0
        self.examples: list[str] = []


Check = Callable[..., "str | None"]


def _instance_json(check: Check, instance: dict) -> str:
    doc: dict = {"check": check.__name__.removeprefix("_")}
    for key, val in instance.items():
        if isinstance(val, (PointSet, Window)):
            doc[key] = format_space(val)
        elif isinstance(val, FiniteMetricSpace):
            doc[key] = format_metric_space(val)
        elif isinstance(val, Fraction):
            doc[key] = scalar_str(val)
        else:
            doc[key] = val
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# generators


def _below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` as CPython 3.10-3.13 draw it, in one frame:
    ``n.bit_length()`` bits, redrawn while at least n (n = 1 too uses bits).
    ``tests/test_harness.py`` pins it and every generator to ``randint``."""
    if n < 1:
        raise ValueError(f"empty range of {n} values")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _random_ratio(rng: random.Random, bounds: Form, qmax: int) -> tuple[int, int]:
    """(p, q) with 1 <= q <= qmax and lo <= p/q <= hi, for bounds (lo, hi)/den."""
    (lo, hi), den = bounds
    q = 1 + _below(rng, qmax)
    first = -(-lo * q // den)  # ceil(lo·q / den)
    return first + _below(rng, hi * q // den - first + 1), q


def random_scalar(
    rng: random.Random, lo: Fraction, hi: Fraction, qmax: int
) -> Fraction:
    return Fraction(*_random_ratio(rng, _form((lo, hi)), qmax))


def random_lambda(rng: random.Random, qmax: int = 16) -> Fraction:
    """A rational in [0, 1) with small denominator."""
    q = 2 + _below(rng, qmax - 1)
    return Fraction(_below(rng, q), q)


def random_point_set(
    rng: random.Random,
    cfg: GeneratorConfig,
    min_points: int = MIN_POINTS,
    max_points: int = MAX_POINTS,
) -> PointSet:
    k = min_points + _below(rng, max_points - min_points + 1)
    (lo, hi), den = cfg.window.ints, cfg.window.den
    # `_random_ratio`'s draws, each p/q kept as p·(L/q) over L = _DRAW_DEN
    accepted: set[int] = set()
    attempts = 0
    while len(accepted) < k and attempts < 64 * k:
        attempts += 1
        q = 1 + _below(rng, DENOMINATOR_BOUND)
        first = -(-lo * q // den)
        accepted.add((first + _below(rng, hi * q // den - first + 1)) * (_DRAW_DEN // q))
    return PointSet.from_ints(sorted(accepted), _DRAW_DEN)


def random_metric_space(
    rng: random.Random, cfg: GeneratorConfig, max_points: int = 4
) -> FiniteMetricSpace:
    """Either a line subset or a "band" metric whose distances all sit in a
    2:1 range, so the triangle inequality holds for free."""
    n = 1 + _below(rng, max_points)
    if n == 1:
        return FiniteMetricSpace.singleton()
    if rng.random() < 0.5:
        pts = random_point_set(rng, cfg, min_points=n, max_points=n)
        return FiniteMetricSpace.from_line(pts)
    q = 1 + _below(rng, DENOMINATOR_BOUND)
    # every distance (p/s)·(q + r)/q, for the scale p/s in [1/2, 3], over s·q
    p, s = _random_ratio(rng, ([1, 6], 2), 8)
    ints = [0] * (n * n)
    for i in range(n):
        for j in range(i + 1, n):
            ints[i * n + j] = ints[j * n + i] = p * (q + _below(rng, q + 1))
    return FiniteMetricSpace(_Ints.from_ints(ints, s * q))


# ---------------------------------------------------------------------------
# the runner


def _drop_point(
    value: PointSet | FiniteMetricSpace, k: int
) -> PointSet | FiniteMetricSpace:
    """``value`` without its ``k``-th point."""
    if isinstance(value, PointSet):
        return PointSet.from_ints(value.ints[:k] + value.ints[k + 1 :], value.den)
    m, n = value.metric, value.n
    if isinstance(m, PointSet):
        return FiniteMetricSpace(_drop_point(m, k))
    ints = [v for p, v in enumerate(m.ints) if k not in divmod(p, n)]  # not in row or column k
    return FiniteMetricSpace(_Ints.from_ints(ints, m.den))


def shrink_instance(check: Check, instance: dict, detail: str) -> tuple[dict, str]:
    """Greedily drop points from a failing instance while ``check`` fails.

    Each step removes one point from a ``PointSet`` or ``FiniteMetricSpace``
    field, never its last one, and keeps the first smaller instance that
    still fails; the scan then starts again at the first field.  A candidate
    the check rejects with a ``ValueError`` lies outside its domain and
    counts as passing; an ``InvariantError`` is a library defect and
    propagates.  Re-runs count into a throwaway ``Tally``.  Returns the
    shrunk instance and its failure detail.
    """
    shrunk = True
    while shrunk:
        shrunk = False
        for key, value in instance.items():
            if not isinstance(value, (PointSet, FiniteMetricSpace)):
                continue
            size = len(value) if isinstance(value, PointSet) else value.n
            for k in range(size if size > 1 else 0):
                trial = {**instance, key: _drop_point(value, k)}
                try:
                    found = check(Tally(), **trial)
                except InvariantError:
                    raise
                except ValueError:
                    continue
                if found is not None:
                    instance, detail, shrunk = trial, found, True
                    break
            if shrunk:
                break
    return instance, detail


def _suite(
    report: str,
    cases: int,
    theorem_backed: bool,
    draw: Callable[[random.Random, GeneratorConfig, int], list[tuple[Check, dict]]],
    records: Callable[[Tally, int], tuple[str, ...]] | None = None,
) -> tuple[Callable[..., SuiteReport], int, bool]:
    """A ``SUITES`` value: the suite's verify function (documented by
    ``draw``), its default case count and whether it is theorem-backed."""

    def verify(cfg: GeneratorConfig, cases: int = cases) -> SuiteReport:
        rng = random.Random(cfg.seed)
        tally = Tally()
        failures = []
        for index in range(cases):
            tally.case = index
            for check, instance in draw(rng, cfg, index):
                detail = check(tally, **instance)
                if detail is not None:
                    instance, detail = shrink_instance(check, instance, detail)
                    failures.append(
                        CaseFailure(index, _instance_json(check, instance), detail)
                    )
        shown = records(tally, cases) if records else ()
        return SuiteReport(report, cfg.seed, cases, tuple(failures), shown)

    verify.__doc__ = draw.__doc__
    return verify, cases, theorem_backed


# ---------------------------------------------------------------------------
# suites: each draw function states what its suite certifies


def _point_pair(rng: random.Random, cfg: GeneratorConfig, max_points: int) -> dict:
    a = random_point_set(rng, cfg, max_points=max_points)
    b = random_point_set(rng, cfg, max_points=max_points)
    return {"a": a, "b": b, "window": cfg.window}


def _draw_ultrametric_h(rng, cfg, index):
    """d_H(A, B) never exceeds the larger covering radius, exactly."""
    return [(_check_ultrametric_h, _point_pair(rng, cfg, MAX_POINTS))]


def _check_ultrametric_h(tally, a, b, window):
    dh, s = _hausdorff(a, b)
    (ra, sa), (rb, sb) = _covering(a, window), _covering(b, window)
    if dh * sa > ra * s and dh * sb > rb * s:
        return f"d_H = {Fraction(dh, s)} exceeds both covering radii"
    return None


def _draw_ultrametric_gh(rng, cfg, index):
    """GH distance of two line subsets never exceeds the larger covering
    radius; checked through the exact Hausdorff chain and, where the solver
    finishes, with the solver-exact value."""
    return [(_check_ultrametric_gh, _point_pair(rng, cfg, 4))]


def _check_ultrametric_gh(tally, a, b, window):
    bound = max(covering_radius(a, window), covering_radius(b, window))
    dh = hausdorff(a, b)
    if dh > bound:
        return f"d_H chain broke: {dh} > {bound}"
    res = gh_branch_bound(
        FiniteMetricSpace.from_line(a), FiniteMetricSpace.from_line(b)
    )
    tally["solver exact"] += res.exact is not None
    if res.upper > dh or res.upper > bound:
        return f"solver value {res.upper} beats d_H {dh} or bound {bound}"
    return None


def _space_pair(rng: random.Random, cfg: GeneratorConfig) -> dict:
    x = random_metric_space(rng, cfg)
    return {"x": x, "y": random_metric_space(rng, cfg)}


def _draw_bounded_cloud(rng, cfg, index):
    """Diameter sandwich: |diam X - diam Y|/2 <= d_GH <= max(diam)/2."""
    return [(_check_bounded_cloud, _space_pair(rng, cfg))]


def _check_bounded_cloud(tally, x, y):
    value = gh_exact(x, y).upper
    low = abs(diam(x) - diam(y)) / 2
    high = max(diam(x), diam(y)) / 2
    if not low <= value <= high:
        return f"sandwich broke: {low} <= {value} <= {high}"
    return None


def _draw_gh_bounds(rng, cfg, index):
    """The solver's polynomial bounds bracket the exact GH distance.

    The refinement lower bound never exceeds ``gh_exact``; for two line spaces
    the staircase upper bound lies between it and 5/4 of it (Majhi, Vitter
    and Wenk, arXiv:1912.13008), and its correspondence has exactly the
    distortion the staircase sweep reports.
    """
    return [(_check_gh_bounds, _space_pair(rng, cfg))]


def _check_gh_bounds(tally, x, y):
    value = gh_exact(x, y).upper
    low = gh_lower_bound(x, y)
    tally["lower tight"] += low == value
    if low > value:
        return f"refinement bound {low} exceeds d_GH {value}"
    if x.line_coords is None or y.line_coords is None:
        return None
    tally["line pairs"] += 1
    high, corr = staircase_bound(x, y)
    tally["staircase tight"] += high == value
    if high < value:
        return f"staircase bound {high} is below d_GH {value}"
    if 4 * high > 5 * value:
        return f"staircase bound {high} exceeds 5/4 of d_GH {value}"
    if distortion(corr, x, y).value != 2 * high:
        return f"staircase correspondence does not attain {high}"
    return None


def _lambda_pair(rng: random.Random, cfg: GeneratorConfig) -> dict:
    x = random_point_set(rng, cfg)
    lam1, lam2 = random_lambda(rng), random_lambda(rng)
    return {"x": x, "lam1": lam1, "lam2": lam2, "window": cfg.window}


def _draw_continuity(rng, cfg, index):
    """Deformation steps stay within the radius-Lipschitz certificate."""
    return [(_check_continuity, _lambda_pair(rng, cfg))]


def _check_continuity(tally, x, lam1, lam2, window):
    step, bound, scale = _continuity(x, lam1, lam2, window)
    if step > bound:
        return f"step {Fraction(step, scale)} exceeds certificate {Fraction(bound, scale)}"
    return None


def _draw_stability(rng, cfg, index):
    """Deforming two nearby sets never spreads them further apart."""
    x = random_point_set(rng, cfg)
    xn = random_point_set(rng, cfg)
    lam = random_lambda(rng)
    return [(_check_stability, {"x": x, "xn": xn, "lam": lam, "window": cfg.window})]


def _check_stability(tally, x, xn, lam, window):
    d, bound, scale = _stability(x, xn, lam, window)
    if d > bound:
        return (f"deformed distance {Fraction(d, scale)} exceeds input distance "
                f"{Fraction(bound, scale)}")
    return None


def _jittered_grid(
    rng: random.Random, n: int, spacing: Fraction, jitter_den: int
) -> PointSet:
    """Points (k + j / (16·jitter_den))·spacing for k < n, with one draw of
    |j| <= jitter_den per point; each moves by at most spacing/16, so they
    increase."""
    steps = 16 * jitter_den
    p, q = spacing.as_integer_ratio()
    return PointSet.from_ints(
        [p * (k * steps + _below(rng, 2 * jitter_den + 1) - jitter_den)
         for k in range(n)], q * steps)


def _swapped(n: int, k: int) -> Correspondence:
    """The identity on ``n`` points with the images of k and k + 1 exchanged."""
    swap = {k: k + 1, k + 1: k}
    return Correspondence.of([(i, swap.get(i, i)) for i in range(n)], n, n)


def _draw_order_lemmas(rng, cfg, index):
    """Betweenness preservation and the inverted-gap bound, with gates.

    In-hypothesis instances must pass.  Every fourth case also builds an
    out-of-hypothesis twin (distortion at least half the separation) that
    the betweenness checker must refuse, and every fifth inverted-pair
    instance drops the far witness, which must come back inconclusive.
    """
    n = 3 + _below(rng, 4)
    spacing = Fraction(2 + _below(rng, 3), 2)
    x = _jittered_grid(rng, n, spacing, 1 + _below(rng, 4))
    # independent per-point jitter of j·spacing/64, |j| <= 2: nontrivial
    # distortion, but far below half the separation, so the hypothesis holds
    # by construction (and y increases, as x's gaps exceed spacing/2)
    scale, (xs, (shift,)) = _scaled((x.ints, x.den), _form((spacing / 64,)))
    y = PointSet.from_ints([v + (_below(rng, 5) - 2) * shift for v in xs], scale)
    items = [(_check_betweenness, {"x": x, "y": y})]
    if index % 4 == 0:
        items.append((_check_refusal, {"x": x}))
    grid = PointSet.from_ints([k * spacing.numerator for k in range(n)],
                              spacing.denominator)
    k = _below(rng, n - 1)
    witness = index % 5 != 0
    inverted = {"x": grid, "spacing": spacing, "k": k, "witness": witness}
    return items + [(_check_inverted_gap, inverted)]


def _check_betweenness(tally, x, y):
    sx, sy = FiniteMetricSpace.from_line(x), FiniteMetricSpace.from_line(y)
    try:
        rep = check_order_preservation(Correspondence.nearest(x, y), sx, sy)
    except PreconditionError:
        return "in-hypothesis instance was refused"
    if not rep.passed:
        return f"betweenness violated at triple {rep.violation}"
    return None


def _check_refusal(tally, x):
    # swap the images of the first two points: any third point sees a
    # distortion of the full first gap, so 2c >= 2t > t and the hypothesis
    # fails by construction (without a third point the swap is an isometry)
    if len(x) < 3:
        return None
    sx = FiniteMetricSpace.from_line(x)
    try:
        check_order_preservation(_swapped(len(x), 0), sx, sx)
    except PreconditionError:
        tally["refusals"] += 1
        return None
    return "out-of-hypothesis instance was not refused"


def _check_inverted_gap(tally, x, spacing, k, witness):
    # identity with one adjacent swap inside the grid x, plus a far witness
    # point (or deliberately without one, expecting inconclusive)
    if k + 1 >= len(x):
        return None
    if witness:
        scale, (xs, (gap,)) = _scaled((x.ints, x.den), _form((101 * spacing,)))
        x = PointSet.from_ints(xs + [xs[-1] + gap], scale)
    far = FiniteMetricSpace.from_line(x)
    status = order_violation_bound(_swapped(len(x), k), far, far).status
    if witness and status != "pass":
        return f"inverted-gap check came back {status}"
    if not witness and status != "inconclusive":
        return f"expected inconclusive without witness, got {status}"
    tally["inconclusive"] += not witness
    return None


def _perturbed_instance(rng: random.Random, lam: Fraction) -> dict:
    """Grid plus a tiny perturbation: the nearest-point correspondence is
    order-preserving and distorts by at most lam/32."""
    n = 3 + _below(rng, 2)
    spacing = 2 + _below(rng, 3)  # over 4
    # points k·spacing/4, moved by j/16 of lam/64 for |j| <= 16, over 4096·q
    p, q = lam.as_integer_ratio()
    xs = [k * spacing * 1024 * q for k in range(n)]
    xn = [v + (_below(rng, 33) - 16) * 4 * p for v in xs]
    den = 4096 * q
    return {"x": PointSet.from_ints(xs, den), "xn": PointSet.from_ints(xn, den)}


def _swap_instance(rng: random.Random, lam: Fraction) -> dict:
    """Grid with one very close extra point whose image is swapped with its
    neighbour: exercises the inverted-order case of the extension while
    keeping dis R < lam/8 and the inverted gap at most twice dis R."""
    n = 3 + _below(rng, 2)
    spacing = 2 + _below(rng, 2)  # over 4
    # points k·spacing/4 and one more lam/t past the k-th, over 4·q·t
    p, q = lam.as_integer_ratio()
    t = 40 + _below(rng, 25)
    pts = [j * spacing * q * t for j in range(n)]
    k = _below(rng, n - 1)
    pts.insert(k + 1, pts[k] + 4 * p)
    return {"x": PointSet.from_ints(pts, 4 * q * t), "k": k}


def _draw_construction_bounds(rng, cfg, index):
    """Certified distortion bounds for both constructive correspondences.

    Each case checks value <= bound + slack at a step and at half that step,
    and accumulates the slack ratio (exactly 1/2 per case by construction;
    the suite average must land in [0.4, 0.6]).  Extension instances are
    generated inside the ambient hypotheses: dis R < lam/8 and every
    order-inverted pair of R spanning at most twice dis R.
    """
    n = 2 + _below(rng, 2)
    spacing = Fraction(2 + _below(rng, 2), 4)
    x = _jittered_grid(rng, n, spacing, 1 + _below(rng, 3))
    r1 = random_scalar(rng, Fraction(0), Fraction(3, 4), 8)
    r2 = random_scalar(rng, Fraction(0), Fraction(3, 4), 8)
    if rng.random() < 0.2:
        r1 = Fraction(0)
    step = Fraction(1, 3 + _below(rng, 3))
    segment = {"x": x, "r1": r1, "r2": r2, "step": step}
    lam = Fraction(2 + _below(rng, 3), 6 + _below(rng, 3))
    if rng.random() < 0.3:
        extension = _swap_instance(rng, lam)
    else:
        extension = _perturbed_instance(rng, lam)
    extension.update(lam=lam, step=Fraction(1, 3 + _below(rng, 2)))
    return [(_check_segment, segment), (_check_extension, extension)]


def _check_segment(tally, x, r1, r2, step):
    coarse = segment_correspondence(x, r1, r2, step)
    fine = segment_correspondence(x, r1, r2, step / 2)
    tally["slack ratio"] += fine.slack / coarse.slack
    for seg in (coarse, fine):
        if seg.certificate.value > seg.continuum_bound + seg.slack:
            return (
                f"segment bound broke: {seg.certificate.value} > "
                f"{seg.continuum_bound} + {seg.slack}"
            )
    return None


def _check_extension(tally, x, lam, step, xn=None, k=None):
    # the nearest-point correspondence of x and xn, or the identity on x
    # with the images of k and k + 1 swapped
    if k is None:
        r = Correspondence.nearest(x, xn)
    else:
        xn, r = x, _swapped(len(x), k)
    coarse = extend_correspondence(r, x, xn, lam, step)
    fine = extend_correspondence(r, x, xn, lam, step / 2)
    tally["slack ratio"] += fine.slack / coarse.slack
    for ext in (coarse, fine):
        if ext.certificate.value > ext.bound + ext.slack:
            return (
                f"extension bound broke: {ext.certificate.value} > "
                f"{ext.bound} + {ext.slack}"
            )
    return None


def _draw_lambda_hits(rng, cfg, index):
    """Hunt for deformation steps larger than |lam1 - lam2|.

    Hits are recorded as evidence (the |f(lam1) - f(lam2)| certificate is
    the provable bound; the bare |lam1 - lam2| claim is stronger), never as
    failures.  A certificate violation would be a failure, and never occurs.
    """
    return [(_check_lambda_hits, _lambda_pair(rng, cfg))]


def _check_lambda_hits(tally, x, lam1, lam2, window):
    step, cert, scale = _continuity(x, lam1, lam2, window)
    (n1, d1), (n2, d2) = lam1.as_integer_ratio(), lam2.as_integer_ratio()
    if step * d1 * d2 > scale * abs(n1 * d2 - n2 * d1):  # step > |lam1 - lam2|
        tally["hits"] += 1
        if len(tally.examples) < 5:
            tally.examples.append(
                f"hit[{tally.case}]: step {scalar_str(Fraction(step, scale))} > "
                f"|lam1-lam2| = {scalar_str(abs(lam1 - lam2))} "
                f"(lam1={scalar_str(lam1)}, lam2={scalar_str(lam2)})"
            )
    if step > cert:
        tally["violations"] += 1
        return f"certificate {Fraction(cert, scale)} violated by step {Fraction(step, scale)}"
    return None


# cli name: (verify function, default cases, theorem-backed); the command
# line, the benchmark and the public verify_* names all read this table
SUITES = {
    "ultrametric-h": _suite(
        "ultrametric-hausdorff", 10_000, True, _draw_ultrametric_h
    ),
    "ultrametric-gh": _suite(
        "ultrametric-gh", 1_000, True, _draw_ultrametric_gh,
        lambda t, cases: (f"solver-exact cases: {t['solver exact']}/{cases}",),
    ),
    "bounded-cloud": _suite("bounded-cloud", 1_000, True, _draw_bounded_cloud),
    "continuity": _suite("homotopy-continuity", 10_000, True, _draw_continuity),
    "stability": _suite("homotopy-stability", 10_000, True, _draw_stability),
    "order-lemmas": _suite(
        "order-lemmas", 1_000, True, _draw_order_lemmas,
        lambda t, cases: (
            f"gate refusals: {t['refusals']}",
            f"inconclusive without witness: {t['inconclusive']}",
        ),
    ),
    "construction-bounds": _suite(
        "construction-bounds", 500, True, _draw_construction_bounds,
        # two halvings per case
        lambda t, cases: (
            "average slack halving ratio: "
            + scalar_str(t["slack ratio"] / (2 * cases) if cases else Fraction(0)),
        ),
    ),
    "lambda-hits": _suite(
        "lambda-bound-search", 10_000, False, _draw_lambda_hits,
        lambda t, cases: (
            f"naive-bound hits: {t['hits']}/{cases}",
            f"certificate violations: {t['violations']}",
            *t.examples,
        ),
    ),
    "gh-bounds": _suite(
        "gh-bounds", 1_000, True, _draw_gh_bounds,
        lambda t, cases: (
            f"lower bound tight: {t['lower tight']}/{cases}",
            f"staircase tight: {t['staircase tight']}/{t['line pairs']} line pairs",
        ),
    ),
}
verify_ultrametric_hausdorff = SUITES["ultrametric-h"][0]
verify_ultrametric_gh = SUITES["ultrametric-gh"][0]
verify_bounded_cloud = SUITES["bounded-cloud"][0]
verify_continuity = SUITES["continuity"][0]
verify_stability = SUITES["stability"][0]
verify_order_lemmas = SUITES["order-lemmas"][0]
verify_construction_bounds = SUITES["construction-bounds"][0]
lambda_bound_counterexample_search = SUITES["lambda-hits"][0]
verify_gh_bounds = SUITES["gh-bounds"][0]


# ---------------------------------------------------------------------------
# experiments


@dataclass(frozen=True)
class ExperimentRow:
    label: str
    lower_double: Fraction  # certified lower bound on 2 d_GH
    upper_double: Fraction
    exact_double: Fraction | None
    nodes: int


@dataclass(frozen=True)
class ExperimentTable:
    name: str
    params: tuple[tuple[str, Fraction | int], ...]  # exact, formatted by render
    rows: tuple[ExperimentRow, ...]

    def render(self) -> str:
        lines = [f"experiment: {self.name}"]
        lines.extend(f"param: {k} = {v!s}" for k, v in self.params)
        lines.append("label, 2dGH_lower, 2dGH_upper, 2dGH_exact, nodes")
        for r in self.rows:
            exact = scalar_str(r.exact_double) if r.exact_double is not None else "-"
            lines.append(
                f"{r.label}, {scalar_str(r.lower_double)}, "
                f"{scalar_str(r.upper_double)}, {exact}, {r.nodes}"
            )
        return "\n".join(lines) + "\n"


def _result_row(label: str, res) -> ExperimentRow:
    return ExperimentRow(
        label,
        2 * res.lower,
        2 * res.upper,
        2 * res.exact if res.exact is not None else None,
        res.nodes_explored,
    )


def homothety_experiment(
    lam: ScalarLike, sizes: Sequence[int], budget: int = 50_000
) -> ExperimentTable:
    """Certified lower bounds on 2 d_GH between {0..N} and its lam-scaling.

    Finite shadow of the lattice-scaling obstruction; the bound sequence is
    expected to be nondecreasing in N (a trend, not a theorem).
    """
    factor = as_scalar(lam)
    if factor < 1:
        raise ValueError("scaling factor must be at least 1")
    rows = []
    for n_max in sizes:
        if n_max < 1:
            raise ValueError("sizes must be positive")
        grid = PointSet.of(range(n_max + 1))
        x = FiniteMetricSpace.from_line(grid)
        y = FiniteMetricSpace.from_line(grid.scale(factor))
        rows.append(_result_row(f"N={n_max}", gh_branch_bound(x, y, budget=budget)))
    return ExperimentTable("homothety", (("lam", factor), ("budget", budget)), tuple(rows))


def geometric_progression_experiment(
    k_max: int, factor: ScalarLike, budget: int = 200_000
) -> ExperimentTable:
    """2 d_GH between {3, 9, ..., 3^k} and its scaling, for k = 1..k_max.

    Lower bounds grow without apparent ceiling: the finite-scale shadow of
    the infinite-distance behaviour of scaled geometric progressions.
    """
    f = as_scalar(factor)
    if f <= 0:
        raise ValueError("factor must be positive")
    rows = []
    for k in range(1, k_max + 1):
        powers = PointSet.of(3 ** i for i in range(1, k + 1))
        x = FiniteMetricSpace.from_line(powers)
        y = FiniteMetricSpace.from_line(powers.scale(f))
        if x.n * y.n <= EXHAUSTIVE_LIMIT:
            res = gh_exact(x, y)
        else:
            res = gh_branch_bound(x, y, budget=budget)
        rows.append(_result_row(f"k={k}", res))
    return ExperimentTable("geometric-progression", (("factor", f), ("budget", budget)),
                           tuple(rows))
