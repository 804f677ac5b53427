"""Randomized suites certifying the library's inequalities at desk scale.

Theorem-backed suites (ultrametric, bounded cloud, GH bounds, continuity,
stability, order lemmas, construction bounds) must report zero failures:
any failure is a defect, and the failing instance is shrunk by greedy point
removal and serialized so the case can be replayed verbatim.  Experiment operations
(homothety, geometric progression, the lambda-bound counterexample search)
are trend reports, not pass/fail checks.

Everything is driven by one seeded ``random.Random``; identical
configurations reproduce identical reports byte for byte.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Callable, Sequence

from .constructions import extend_correspondence, segment_correspondence
from .correspondence import Correspondence, FiniteMetricSpace, diam, distortion
from .errors import PreconditionError
from .formats import format_metric_space, format_space
from .geometry import (
    IntervalUnion,
    PointSet,
    ScalarLike,
    Window,
    as_scalar,
    covering_radius,
    hausdorff,
    scalar_str,
)
from .homotopy import contract, continuity_in_lambda, stability_in_space
from .ordering import check_order_preservation, order_violation_bound
from .solver import (
    EXHAUSTIVE_LIMIT,
    gh_branch_bound,
    gh_exact,
    gh_lower_bound,
    staircase_bound,
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Deterministic instance generator settings: same seed, same instances."""

    seed: int = 0
    window: Window = Window(Fraction(0), Fraction(10))
    min_points: int = 1
    max_points: int = 6
    min_separation: Fraction = Fraction(0)
    denominator_bound: int = 64


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
    exact: bool = True
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
            f"exact: {'yes' if self.exact else 'no'}",
        ]
        lines.extend(f"record: {r}" for r in self.records)
        for f in self.failures:
            lines.append(f"failure[{f.index}]: {f.detail}")
            lines.append(f"  instance: {f.instance}")
        return "\n".join(lines) + "\n"


def _instance_json(**parts: object) -> str:
    doc: dict = {}
    for key, val in parts.items():
        if isinstance(val, (PointSet, IntervalUnion, Window)):
            doc[key] = format_space(val)
        elif isinstance(val, FiniteMetricSpace):
            doc[key] = format_metric_space(val)
        elif isinstance(val, Correspondence):
            doc[key] = [list(p) for p in val.pairs]
        elif isinstance(val, Fraction):
            doc[key] = scalar_str(val)
        else:
            doc[key] = val
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# generators


def random_scalar(
    rng: random.Random, lo: Fraction, hi: Fraction, qmax: int
) -> Fraction:
    q = rng.randint(1, qmax)
    return Fraction(rng.randint(ceil(lo * q), floor(hi * q)), q)


def random_lambda(rng: random.Random, qmax: int = 16) -> Fraction:
    """A rational in [0, 1) with small denominator."""
    q = rng.randint(2, qmax)
    return Fraction(rng.randint(0, q - 1), q)


def random_point_set(
    rng: random.Random,
    cfg: GeneratorConfig,
    min_points: int | None = None,
    max_points: int | None = None,
) -> PointSet:
    lo_n = cfg.min_points if min_points is None else min_points
    hi_n = cfg.max_points if max_points is None else max_points
    k = rng.randint(lo_n, hi_n)
    accepted: list[Fraction] = []
    attempts = 0
    while len(accepted) < k and attempts < 64 * k:
        attempts += 1
        c = random_scalar(rng, cfg.window.lo, cfg.window.hi, cfg.denominator_bound)
        if cfg.min_separation > 0:
            ok = all(abs(c - p) >= cfg.min_separation for p in accepted)
        else:
            ok = c not in accepted
        if ok:
            accepted.append(c)
    return PointSet(tuple(sorted(accepted)))


def random_metric_space(
    rng: random.Random, cfg: GeneratorConfig, max_points: int = 4
) -> FiniteMetricSpace:
    """Either a line subset or a "band" metric whose distances all sit in a
    2:1 range, so the triangle inequality holds for free."""
    n = rng.randint(1, max_points)
    if n == 1:
        return FiniteMetricSpace.singleton()
    if rng.random() < 0.5:
        pts = random_point_set(rng, cfg, min_points=n, max_points=n)
        return FiniteMetricSpace.from_line(pts)
    q = rng.randint(1, cfg.denominator_bound)
    scale = random_scalar(rng, Fraction(1, 2), Fraction(3), 8)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = scale * Fraction(q + rng.randint(0, q), q)
            rows[i][j] = rows[j][i] = d
    return FiniteMetricSpace(tuple(tuple(row) for row in rows))


def shrink_point_pair(
    a: PointSet,
    b: PointSet,
    still_fails: Callable[[PointSet, PointSet], bool],
) -> tuple[PointSet, PointSet]:
    """Greedily drop points from either set while the failure persists."""
    changed = True
    while changed:
        changed = False
        for which in (0, 1):
            cur = a if which == 0 else b
            if len(cur) <= 1:
                continue
            for k in range(len(cur)):
                trimmed = PointSet(cur.points[:k] + cur.points[k + 1 :])
                cand_a, cand_b = (trimmed, b) if which == 0 else (a, trimmed)
                if still_fails(cand_a, cand_b):
                    a, b = cand_a, cand_b
                    changed = True
                    break
            if changed:
                break
    return a, b


# ---------------------------------------------------------------------------
# theorem-backed suites


def verify_ultrametric_hausdorff(
    cfg: GeneratorConfig, cases: int = 10_000
) -> SuiteReport:
    """d_H(A, B) never exceeds the larger covering radius, exactly."""
    rng = random.Random(cfg.seed)
    w = cfg.window
    failures: list[CaseFailure] = []
    for idx in range(cases):
        a = random_point_set(rng, cfg)
        b = random_point_set(rng, cfg)

        def bad(pa: PointSet, pb: PointSet) -> bool:
            return hausdorff(pa, pb) > max(
                covering_radius(pa, w), covering_radius(pb, w)
            )

        if bad(a, b):
            a, b = shrink_point_pair(a, b, bad)
            failures.append(
                CaseFailure(
                    idx,
                    _instance_json(a=a, b=b, window=w),
                    f"d_H = {hausdorff(a, b)} exceeds both covering radii",
                )
            )
    return SuiteReport("ultrametric-hausdorff", cfg.seed, cases, tuple(failures))


def verify_ultrametric_gh(cfg: GeneratorConfig, cases: int = 1_000) -> SuiteReport:
    """GH distance of two line subsets never exceeds the larger covering
    radius; checked through the exact Hausdorff chain and, where the solver
    finishes, with the solver-exact value."""
    rng = random.Random(cfg.seed)
    w = cfg.window
    failures: list[CaseFailure] = []
    solver_exact = 0
    for idx in range(cases):
        a = random_point_set(rng, cfg, max_points=4)
        b = random_point_set(rng, cfg, max_points=4)
        bound = max(covering_radius(a, w), covering_radius(b, w))
        dh = hausdorff(a, b)
        detail = None
        if dh > bound:
            detail = f"d_H chain broke: {dh} > {bound}"
        else:
            res = gh_branch_bound(
                FiniteMetricSpace.from_line(a), FiniteMetricSpace.from_line(b)
            )
            value = res.exact if res.exact is not None else res.upper
            if res.exact is not None:
                solver_exact += 1
            if value > dh or value > bound:
                detail = f"solver value {value} beats d_H {dh} or bound {bound}"
        if detail is not None:
            failures.append(
                CaseFailure(idx, _instance_json(a=a, b=b, window=w), detail)
            )
    return SuiteReport(
        "ultrametric-gh",
        cfg.seed,
        cases,
        tuple(failures),
        records=(f"solver-exact cases: {solver_exact}/{cases}",),
    )


def verify_bounded_cloud(cfg: GeneratorConfig, cases: int = 1_000) -> SuiteReport:
    """Diameter sandwich: |diam X - diam Y|/2 <= d_GH <= max(diam)/2."""
    rng = random.Random(cfg.seed)
    failures: list[CaseFailure] = []
    for idx in range(cases):
        x = random_metric_space(rng, cfg)
        y = random_metric_space(rng, cfg)
        value = gh_exact(x, y).exact
        assert value is not None
        low = abs(diam(x) - diam(y)) / 2
        high = max(diam(x), diam(y)) / 2
        if not low <= value <= high:
            failures.append(
                CaseFailure(
                    idx,
                    _instance_json(x=x, y=y),
                    f"sandwich broke: {low} <= {value} <= {high}",
                )
            )
    return SuiteReport("bounded-cloud", cfg.seed, cases, tuple(failures))


def verify_gh_bounds(cfg: GeneratorConfig, cases: int = 1_000) -> SuiteReport:
    """The solver's polynomial bounds bracket the exact GH distance.

    The profile lower bound never exceeds ``gh_exact``; for two line spaces
    the staircase upper bound never falls below it, and its correspondence
    has exactly the distortion the staircase DP reports.
    """
    rng = random.Random(cfg.seed)
    failures: list[CaseFailure] = []
    lower_tight = line_pairs = upper_tight = 0
    for idx in range(cases):
        x = random_metric_space(rng, cfg)
        y = random_metric_space(rng, cfg)
        value = gh_exact(x, y).exact
        assert value is not None
        low = gh_lower_bound(x, y)
        lower_tight += low == value
        detail = None
        if low > value:
            detail = f"profile bound {low} exceeds d_GH {value}"
        elif x.line_coords is not None and y.line_coords is not None:
            line_pairs += 1
            high, corr = staircase_bound(x, y)
            upper_tight += high == value
            if high < value:
                detail = f"staircase bound {high} is below d_GH {value}"
            elif distortion(corr, x, y).value != 2 * high:
                detail = f"staircase correspondence does not attain {high}"
        if detail is not None:
            failures.append(CaseFailure(idx, _instance_json(x=x, y=y), detail))
    return SuiteReport(
        "gh-bounds",
        cfg.seed,
        cases,
        tuple(failures),
        records=(
            f"lower bound tight: {lower_tight}/{cases}",
            f"staircase tight: {upper_tight}/{line_pairs} line pairs",
        ),
    )


def verify_continuity(cfg: GeneratorConfig, cases: int = 10_000) -> SuiteReport:
    """Deformation steps stay within the radius-Lipschitz certificate."""
    rng = random.Random(cfg.seed)
    w = cfg.window
    failures: list[CaseFailure] = []
    for idx in range(cases):
        x = random_point_set(rng, cfg)
        l1, l2 = random_lambda(rng), random_lambda(rng)
        d, bound = continuity_in_lambda(x, l1, l2, w)
        if d > bound:
            failures.append(
                CaseFailure(
                    idx,
                    _instance_json(x=x, lam1=l1, lam2=l2, window=w),
                    f"step {d} exceeds certificate {bound}",
                )
            )
    return SuiteReport("homotopy-continuity", cfg.seed, cases, tuple(failures))


def verify_stability(cfg: GeneratorConfig, cases: int = 10_000) -> SuiteReport:
    """Deforming two nearby sets never spreads them further apart."""
    rng = random.Random(cfg.seed)
    w = cfg.window
    failures: list[CaseFailure] = []
    for idx in range(cases):
        x = random_point_set(rng, cfg)
        xn = random_point_set(rng, cfg)
        lam = random_lambda(rng)
        d, bound = stability_in_space(x, xn, lam, w)
        if d > bound:
            failures.append(
                CaseFailure(
                    idx,
                    _instance_json(x=x, xn=xn, lam=lam, window=w),
                    f"deformed distance {d} exceeds input distance {bound}",
                )
            )
    return SuiteReport("homotopy-stability", cfg.seed, cases, tuple(failures))


# ---------------------------------------------------------------------------
# order-lemma and construction suites


def _jittered_grid(
    rng: random.Random, n: int, spacing: Fraction, jitter_den: int
) -> PointSet:
    pts = []
    for k in range(n):
        jitter = Fraction(rng.randint(-jitter_den, jitter_den), 16 * jitter_den)
        pts.append(k * spacing + jitter * spacing)
    return PointSet(tuple(pts))


def verify_order_lemmas(cfg: GeneratorConfig, cases: int = 1_000) -> SuiteReport:
    """Betweenness preservation and the inverted-gap bound, with gates.

    In-hypothesis instances must pass.  Every fourth case also builds an
    out-of-hypothesis twin (distortion at least half the separation) that
    the betweenness checker must refuse, and every fifth inverted-pair
    instance drops the far witness, which must come back inconclusive.
    """
    rng = random.Random(cfg.seed)
    failures: list[CaseFailure] = []
    refusals = 0
    inconclusive = 0
    for idx in range(cases):
        n = rng.randint(3, 6)
        spacing = Fraction(rng.randint(2, 4), 2)
        x = _jittered_grid(rng, n, spacing, rng.randint(1, 4))
        # independent per-point jitter: nontrivial distortion, but far below
        # half the separation, so the hypothesis holds by construction
        y = PointSet(
            tuple(
                p + Fraction(rng.randint(-2, 2), 64) * spacing for p in x.points
            )
        )
        sx = FiniteMetricSpace.from_line(x)
        sy = FiniteMetricSpace.from_line(y)
        r = Correspondence.nearest(x, y)
        try:
            rep = check_order_preservation(r, sx, sy)
            if not rep.passed:
                failures.append(
                    CaseFailure(
                        idx,
                        _instance_json(x=x, y=y, r=r),
                        f"betweenness violated at triple {rep.violation}",
                    )
                )
        except PreconditionError:
            failures.append(
                CaseFailure(
                    idx,
                    _instance_json(x=x, y=y, r=r),
                    "in-hypothesis instance was refused",
                )
            )

        if idx % 4 == 0:
            # swap the images of the first two points: any third point sees a
            # distortion of the full first gap, so 2c >= 2t > t and the
            # hypothesis fails by construction
            swapped = Correspondence.of(
                [(0, 1), (1, 0)] + [(i, i) for i in range(2, n)], n, n
            )
            try:
                check_order_preservation(swapped, sx, sx)
                failures.append(
                    CaseFailure(
                        idx,
                        _instance_json(x=x, r=swapped),
                        "out-of-hypothesis instance was not refused",
                    )
                )
            except PreconditionError:
                refusals += 1

        # inverted-gap bound: identity with one adjacent swap, plus a far
        # witness point (or deliberately without one, expecting inconclusive)
        base = [k * spacing for k in range(n)]
        with_witness = idx % 5 != 0
        if with_witness:
            base.append(base[-1] + 101 * spacing)
        far = PointSet(tuple(base))
        k = rng.randint(0, n - 2)
        pairs = [(i, i) for i in range(len(far))]
        pairs[k] = (k, k + 1)
        pairs[k + 1] = (k + 1, k)
        rr = Correspondence.of(pairs, len(far), len(far))
        sfar = FiniteMetricSpace.from_line(far)
        rep2 = order_violation_bound(rr, sfar, sfar)
        if with_witness and rep2.status != "pass":
            failures.append(
                CaseFailure(
                    idx,
                    _instance_json(x=far, r=rr),
                    f"inverted-gap check came back {rep2.status}",
                )
            )
        elif not with_witness:
            if rep2.status != "inconclusive":
                failures.append(
                    CaseFailure(
                        idx,
                        _instance_json(x=far, r=rr),
                        f"expected inconclusive without witness, got {rep2.status}",
                    )
                )
            else:
                inconclusive += 1
    return SuiteReport(
        "order-lemmas",
        cfg.seed,
        cases,
        tuple(failures),
        records=(
            f"gate refusals: {refusals}",
            f"inconclusive without witness: {inconclusive}",
        ),
    )


def _segment_instance(rng: random.Random) -> tuple[PointSet, Fraction, Fraction]:
    n = rng.randint(2, 3)
    spacing = Fraction(rng.randint(2, 3), 4)
    x = _jittered_grid(rng, n, spacing, rng.randint(1, 3))
    r1 = random_scalar(rng, Fraction(0), Fraction(3, 4), 8)
    r2 = random_scalar(rng, Fraction(0), Fraction(3, 4), 8)
    if rng.random() < 0.2:
        r1 = Fraction(0)
    return x, r1, r2


def _perturbed_instance(
    rng: random.Random, lam: Fraction
) -> tuple[PointSet, PointSet, Correspondence]:
    """Grid plus a tiny perturbation: the nearest-point correspondence is
    order-preserving and distorts by at most lam/32."""
    n = rng.randint(3, 4)
    spacing = Fraction(rng.randint(2, 4), 4)
    x = PointSet(tuple(k * spacing for k in range(n)))
    delta = lam / 64
    xn = PointSet(
        tuple(p + Fraction(rng.randint(-16, 16), 16) * delta for p in x.points)
    )
    return x, xn, Correspondence.nearest(x, xn)


def _swap_instance(
    rng: random.Random, lam: Fraction
) -> tuple[PointSet, PointSet, Correspondence]:
    """Grid with one very close extra point whose image is swapped with its
    neighbour: exercises the inverted-order case of the extension while
    keeping dis R < lam/8 and the inverted gap at most twice dis R."""
    n = rng.randint(3, 4)
    spacing = Fraction(rng.randint(2, 3), 4)
    tiny = lam / rng.randint(40, 64)
    pts = [k * spacing for k in range(n)]
    k = rng.randint(0, n - 2)
    pts.insert(k + 1, pts[k] + tiny)
    x = PointSet(tuple(pts))
    pairs = [(i, i) for i in range(len(x))]
    pairs[k] = (k, k + 1)
    pairs[k + 1] = (k + 1, k)
    return x, x, Correspondence.of(pairs, len(x), len(x))


def verify_construction_bounds(
    cfg: GeneratorConfig, cases: int = 500
) -> SuiteReport:
    """Certified distortion bounds for both constructive correspondences.

    Each case checks value <= bound + slack at a step and at half that step,
    and accumulates the slack ratio (exactly 1/2 per case by construction;
    the suite average must land in [0.4, 0.6]).  Extension instances are
    generated inside the ambient hypotheses: dis R < lam/8 and every
    order-inverted pair of R spanning at most twice dis R.
    """
    rng = random.Random(cfg.seed)
    failures: list[CaseFailure] = []
    ratio_sum = Fraction(0)
    ratio_count = 0
    for idx in range(cases):
        x, r1, r2 = _segment_instance(rng)
        step = Fraction(1, rng.choice((3, 4, 5)))
        coarse = segment_correspondence(x, r1, r2, step)
        fine = segment_correspondence(x, r1, r2, step / 2)
        for seg, h in ((coarse, step), (fine, step / 2)):
            if seg.certificate.value > seg.continuum_bound + seg.slack:
                failures.append(
                    CaseFailure(
                        idx,
                        _instance_json(x=x, r1=r1, r2=r2, step=h),
                        f"segment bound broke: {seg.certificate.value} > "
                        f"{seg.continuum_bound} + {seg.slack}",
                    )
                )
        ratio_sum += fine.slack / coarse.slack
        ratio_count += 1

        lam = Fraction(rng.randint(2, 4), rng.randint(6, 8))
        if rng.random() < 0.3:
            px, pxn, pr = _swap_instance(rng, lam)
        else:
            px, pxn, pr = _perturbed_instance(rng, lam)
        estep = Fraction(1, rng.choice((3, 4)))
        coarse_ext = extend_correspondence(pr, px, pxn, lam, estep)
        fine_ext = extend_correspondence(pr, px, pxn, lam, estep / 2)
        for ext, h in ((coarse_ext, estep), (fine_ext, estep / 2)):
            if ext.certificate.value > ext.bound + ext.slack:
                failures.append(
                    CaseFailure(
                        idx,
                        _instance_json(x=px, xn=pxn, r=pr, lam=lam, step=h),
                        f"extension bound broke: {ext.certificate.value} > "
                        f"{ext.bound} + {ext.slack}",
                    )
                )
        ratio_sum += fine_ext.slack / coarse_ext.slack
        ratio_count += 1
    avg = ratio_sum / ratio_count if ratio_count else Fraction(0)
    return SuiteReport(
        "construction-bounds",
        cfg.seed,
        cases,
        tuple(failures),
        records=(f"average slack halving ratio: {scalar_str(avg)}",),
    )


def lambda_bound_counterexample_search(
    cfg: GeneratorConfig, cases: int = 10_000
) -> SuiteReport:
    """Hunt for deformation steps larger than |lam1 - lam2|.

    Hits are recorded as evidence (the |f(lam1) - f(lam2)| certificate is
    the provable bound; the bare |lam1 - lam2| claim is stronger), never as
    failures.  A certificate violation would be a failure, and never occurs.
    """
    rng = random.Random(cfg.seed)
    w = cfg.window
    failures: list[CaseFailure] = []
    hits = 0
    examples: list[str] = []
    for idx in range(cases):
        x = random_point_set(rng, cfg)
        l1, l2 = random_lambda(rng), random_lambda(rng)
        d, cert = continuity_in_lambda(x, l1, l2, w)
        if d > cert:
            failures.append(
                CaseFailure(
                    idx,
                    _instance_json(x=x, lam1=l1, lam2=l2, window=w),
                    f"certificate {cert} violated by step {d}",
                )
            )
        if d > abs(l1 - l2):
            hits += 1
            if len(examples) < 5:
                examples.append(
                    f"hit[{idx}]: step {scalar_str(d)} > |lam1-lam2| = "
                    f"{scalar_str(abs(l1 - l2))} "
                    f"(lam1={scalar_str(l1)}, lam2={scalar_str(l2)})"
                )
    records = [
        f"naive-bound hits: {hits}/{cases}",
        f"certificate violations: {len(failures)}",
    ]
    records.extend(examples)
    return SuiteReport(
        "lambda-bound-search",
        cfg.seed,
        cases,
        tuple(failures),
        records=tuple(records),
    )


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
    params: tuple[tuple[str, str], ...]
    rows: tuple[ExperimentRow, ...]

    def render(self) -> str:
        lines = [f"experiment: {self.name}"]
        lines.extend(f"param: {k} = {v}" for k, v in self.params)
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
        x = FiniteMetricSpace.from_line(PointSet.of(range(n_max + 1)))
        y = FiniteMetricSpace.from_line(
            PointSet(tuple(k * factor for k in range(n_max + 1)))
        )
        rows.append(_result_row(f"N={n_max}", gh_branch_bound(x, y, budget=budget)))
    return ExperimentTable(
        "homothety",
        (("lam", scalar_str(factor)), ("budget", str(budget))),
        tuple(rows),
    )


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
        coords = [Fraction(3) ** i for i in range(1, k + 1)]
        x = FiniteMetricSpace.from_line(PointSet(tuple(coords)))
        y = FiniteMetricSpace.from_line(PointSet(tuple(c * f for c in coords)))
        if x.n * y.n <= EXHAUSTIVE_LIMIT:
            res = gh_exact(x, y)
        else:
            res = gh_branch_bound(x, y, budget=budget)
        rows.append(_result_row(f"k={k}", res))
    return ExperimentTable(
        "geometric-progression",
        (("factor", scalar_str(f)), ("budget", str(budget))),
        tuple(rows),
    )
