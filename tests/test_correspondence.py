"""Metric spaces, correspondences, exact distortion."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest

from netline import (
    Correspondence,
    FiniteMetricSpace,
    PointSet,
    Relation,
    diam,
    distortion,
    gh_exact,
    gh_to_point,
    scale_space,
)
from netline.correspondence import int_distortion, scaled_int_matrices
from netline.geometry import _form, _scaled
from netline.harness import GeneratorConfig, random_metric_space, random_point_set


def line(*coords) -> FiniteMetricSpace:
    return FiniteMetricSpace.from_line(PointSet.of(coords))


def test_metric_space_validation():
    with pytest.raises(ValueError):
        FiniteMetricSpace.from_matrix([[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(ValueError):
        FiniteMetricSpace.from_matrix([[0, 0], [0, 0]])  # zero off-diagonal
    with pytest.raises(ValueError):
        FiniteMetricSpace.from_matrix([[0, 1, 3], [1, 0, 1], [3, 1, 0]])  # triangle
    with pytest.raises(ValueError):
        FiniteMetricSpace.from_matrix([[0, 1], [1]])  # not square


def test_relation_and_correspondence_invariants():
    with pytest.raises(ValueError):
        Relation(())
    r = Relation.of([(1, 0), (0, 0), (1, 0)])
    assert r.pairs == ((0, 0), (1, 0))
    assert len(r) == 2
    with pytest.raises(ValueError):
        Correspondence.of([(0, 0)], 2, 1)  # left misses index 1
    with pytest.raises(ValueError):
        Correspondence.of([(0, 0), (1, 0)], 2, 2)  # right misses index 1
    c = Correspondence.of([(0, 1), (1, 0), (0, 0)], 2, 2)
    assert len(c) == 3
    assert c.image_of(0) == (0, 1)
    assert c.preimage_of(0) == (0, 1)


def test_distortion_examples():
    x, y = line(0, 1), line(0, 2)
    cert = distortion(Relation.of([(0, 0), (1, 1)]), x, y)
    assert cert.value == 1
    assert cert.witness == ((0, 0), (1, 1))

    lone = distortion(Relation.of([(1, 0)]), x, y)
    assert lone.value == 0
    assert lone.witness == ((1, 0), (1, 0))

    z = line(0, 1, 3)
    ident = distortion(Correspondence.of([(0, 0), (1, 1), (2, 2)], 3, 3), z, z)
    assert ident.value == 0


def test_distortion_witness_attains_and_bounds():
    rng = random.Random(11)
    cfg = GeneratorConfig(seed=0)
    for _ in range(100):
        x = random_metric_space(rng, cfg)
        y = random_metric_space(rng, cfg)
        pairs = {(rng.randrange(x.n), rng.randrange(y.n)) for _ in range(4)}
        rel = Relation.of(pairs)
        cert = distortion(rel, x, y)
        (i, j), (i2, j2) = cert.witness
        assert abs(x.dist[i][i2] - y.dist[j][j2]) == cert.value
        for a, b in rel.pairs:
            for a2, b2 in rel.pairs:
                assert abs(x.dist[a][a2] - y.dist[b][b2]) <= cert.value


def test_distortion_index_validation():
    x, y = line(0, 1), line(0, 2)
    with pytest.raises(ValueError):
        distortion(Relation.of([(2, 0)]), x, y)


def test_diam_examples():
    assert diam(line(0, 1)) == 1
    assert diam(FiniteMetricSpace.singleton()) == 0
    assert diam(line(0, 4, 10)) == 10


def test_line_diam_matches_its_matrix():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        coords = sorted({F(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(n)})
        x = line(*coords)
        assert diam(x) == diam(FiniteMetricSpace.from_matrix(x.dist))
        if len(coords) == 1:
            assert diam(x) == 0


def test_gh_to_point_matches_solver():
    assert gh_to_point(line(0, 1)) == F(1, 2)
    assert gh_to_point(FiniteMetricSpace.singleton()) == 0
    point = FiniteMetricSpace.singleton()
    for space in (line(0, 1), line(0, 4, 10), line(0, F(1, 3), 2, 7)):
        assert gh_exact(space, point).exact == gh_to_point(space)


def test_scale_space():
    x = line(0, 1)
    assert scale_space(x, 1).dist == x.dist
    assert scale_space(x, 0).n == 1
    assert scale_space(x, 3).dist[0][1] == 3
    assert scale_space(x, 3).line_coords.points == (F(0), F(3))
    with pytest.raises(ValueError):
        scale_space(x, -1)


def test_metric_checks_compare_values_not_numerators():
    # 3/2 <= 1 + 1 holds, although the numerator 3 exceeds 1 + 1
    FiniteMetricSpace.from_matrix([[0, F(3, 2), 1], [F(3, 2), 0, 1], [1, 1, 0]])
    # 2 > 1/2 + 1/2 fails, although the numerators give 2 <= 1 + 1
    half = F(1, 2)
    with pytest.raises(ValueError, match=r"fails at \(0,1,2\)"):
        FiniteMetricSpace.from_matrix([[0, 2, half], [2, 0, half], [half, half, 0]])


def test_triangle_check_reports_first_failing_index():
    """Against the plain Fraction loop over (i, j, k) in lexicographic order."""
    rng = random.Random(29)
    for _ in range(400):
        n = rng.randint(2, 5)
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = F(rng.randint(1, 12), rng.randint(1, 4))
        want = next(
            (f"triangle inequality fails at ({i},{j},{k})"
             for i in range(n) for j in range(n) for k in range(n)
             if rows[i][j] > rows[i][k] + rows[k][j]),
            None,
        )
        try:
            FiniteMetricSpace.from_matrix(rows)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want, rows


@pytest.mark.parametrize("rows, message", [
    ((), "a metric space needs at least one point"),
    (((F(0), F(1)), (F(1), F(1, 2))), "diagonal must be zero"),
], ids=["empty", "nonzero-diagonal"])
def test_matrix_space_refusals(rows, message):
    with pytest.raises(ValueError) as exc:
        FiniteMetricSpace(rows)
    assert type(exc.value) is ValueError and str(exc.value) == message


# ---------------------------------------------------------------------------
# the stored int forms against Fraction references


def reference_scaled_int_matrices(x, y):
    """`scaled_int_matrices` before matrix spaces stored ints: line pairs from
    their coordinates, any other pair from rows of Fractions, frozen."""
    def line_distances(xs):
        return [[abs(a - b) for b in xs] for a in xs]

    xs, ys = x.line_coords, y.line_coords
    if xs is not None and ys is not None:
        den, lines = _scaled((xs.ints, xs.den), (ys.ints, ys.den))
        return den, *map(line_distances, lines)
    fx, fy = ([(row, p.den) for row in line_distances(p.ints)] if p is not None
              else map(_form, s.dist) for p, s in ((xs, x), (ys, y)))
    den, rows = _scaled(*fx, *fy)
    return den, rows[: x.n], rows[x.n :]


def random_space(rng: random.Random, kind: str) -> FiniteMetricSpace:
    cfg = GeneratorConfig()
    while True:
        space = random_metric_space(rng, cfg, max_points=6)
        if (space.line_coords is not None) == (kind == "line") and space.n > 1:
            return space


@pytest.mark.parametrize("kinds", [("line", "line"), ("line", "matrix"),
                                   ("matrix", "line"), ("matrix", "matrix")])
def test_int_matrices_match_the_fraction_reference(kinds):
    rng = random.Random(24)
    for _ in range(150):
        x, y = (random_space(rng, kind) for kind in kinds)
        assert scaled_int_matrices(x, y) == reference_scaled_int_matrices(x, y)


def test_matrix_space_operations_match_fraction_references():
    rng = random.Random(7)
    for _ in range(300):
        x = random_space(rng, rng.choice(("line", "matrix")))
        rows = x.dist
        assert diam(x) == max(map(max, rows))
        lam = F(rng.randint(1, 20), rng.randint(1, 12))
        scaled = scale_space(x, lam)
        assert scaled.dist == tuple(tuple(v * lam for v in row) for row in rows)
        assert (scaled.line_coords is None) == (x.line_coords is None)
        # the matrix form of a line space is the same metric, stored otherwise
        m = FiniteMetricSpace.from_matrix(rows)
        assert m.line_coords is None and m.dist == rows and diam(m) == diam(x)
        assert scale_space(m, lam) == FiniteMetricSpace.from_matrix(scaled.dist)
        assert math.gcd(m.metric.den, *m.metric.ints) == 1  # lowest terms


def test_line_distortion_equals_the_matrix_scan():
    # two line spaces are scanned on their coordinates; the value and the
    # witness must be those of the matrix scan, whose strict > keeps the first
    # pair of pairs that attains the value.  Coordinates on a small range
    # make ties common, so a scan that kept a later tie would fail here.
    rng = random.Random(25)
    cfg = GeneratorConfig(seed=0)
    for case in range(600):
        if case % 2:
            x, y = (random_point_set(rng, cfg, 1, 9) for _ in "xy")
        else:
            x, y = (PointSet.of(rng.sample(range(-4, 8), rng.randint(1, 8)))
                    for _ in "xy")
        pairs = {(rng.randrange(len(x)), rng.randrange(len(y)))
                 for _ in range(rng.randint(1, 2 * (len(x) + len(y))))}
        if case % 3:
            rel = Relation.of(pairs)
        else:
            pairs |= {(i, rng.randrange(len(y))) for i in range(len(x))}
            pairs |= {(rng.randrange(len(x)), j) for j in range(len(y))}
            rel = Correspondence.of(pairs, len(x), len(y))
        sx, sy = FiniteMetricSpace.from_line(x), FiniteMetricSpace.from_line(y)
        den, dx, dy = scaled_int_matrices(sx, sy)
        value, witness = int_distortion(rel.pairs, dx, dy)
        cert = distortion(rel, sx, sy)
        assert (cert.value, cert.witness) == (F(value, den), witness)
