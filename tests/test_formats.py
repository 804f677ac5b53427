"""Document formats: exact round-trips, rejection of inexact input."""

from __future__ import annotations

import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from netline import (
    FiniteMetricSpace,
    IntervalUnion,
    PointSet,
    Window,
    gh_branch_bound,
    gh_exact,
)
from netline.formats import (
    FormatError,
    dumps_doc,
    format_metric_space,
    format_space,
    gh_certificate_doc,
    loads_space,
    parse_metric_space,
    parse_scalar,
    parse_space,
    verify_gh_certificate,
)
from netline.harness import GeneratorConfig, random_point_set


def test_parse_scalar_forms():
    assert parse_scalar("3/4") == F(3, 4)
    assert parse_scalar("-1/2") == F(-1, 2)
    assert parse_scalar("3.25") == F(13, 4)
    assert parse_scalar(7) == 7
    with pytest.raises(FormatError):
        parse_scalar(0.5)  # floats are rejected, not rounded
    with pytest.raises(FormatError):
        parse_scalar(True)
    with pytest.raises(FormatError):
        parse_scalar("seven")
    with pytest.raises(FormatError):
        parse_scalar("1/0")


def test_space_roundtrips_bit_exact():
    rng = random.Random(51)
    cfg = GeneratorConfig(seed=0)
    for _ in range(200):
        ps = random_point_set(rng, cfg)
        assert parse_space(format_space(ps)) == ps
    union = IntervalUnion.merge([(F(0), F(1, 3)), (F(2), F(2)), (F(5, 2), F(3))])
    assert parse_space(format_space(union)) == union
    w = Window.of(F(-1, 2), F(21, 2))
    assert parse_space(format_space(w)) == w


def test_grid_parses_to_points():
    doc = {"kind": "grid", "start": "0", "step": "1/2", "count": 5}
    got = parse_space(doc)
    assert got == PointSet.of([0, F(1, 2), 1, F(3, 2), 2])


def test_parse_errors_carry_location():
    with pytest.raises(FormatError) as err:
        parse_space({"kind": "points", "coords": ["1", 0.5]})
    assert "coords[1]" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse_space({"kind": "nope"})
    assert ".kind" in str(err.value)
    with pytest.raises(FormatError):
        loads_space("{not json")
    with pytest.raises(FormatError):
        parse_space({"kind": "points", "coords": []})
    with pytest.raises(FormatError):
        parse_space({"kind": "grid", "start": "0", "step": "0", "count": 3})


def test_intervals_parse_canonicalizes():
    doc = {"kind": "intervals", "intervals": [["2", "3"], ["0", "1"], ["1", "3/2"]]}
    got = parse_space(doc)
    assert got == IntervalUnion.merge([(0, F(3, 2)), (2, 3)])
    # printing is canonical, so a second round-trip is the identity
    assert parse_space(format_space(got)) == got
    contained = {"kind": "intervals", "intervals": [["0", "5"], ["1", "2"]]}
    assert parse_space(contained).intervals == ((F(0), F(5)),)


def test_matrix_space_roundtrip():
    space = FiniteMetricSpace.from_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    doc = format_metric_space(space)
    assert doc["kind"] == "matrix"
    again = parse_metric_space(doc)
    assert again.dist == space.dist
    line = FiniteMetricSpace.from_line(PointSet.of([0, F(1, 2), 2]))
    doc2 = format_metric_space(line)
    assert doc2["kind"] == "points"
    assert parse_metric_space(doc2).dist == line.dist
    with pytest.raises(FormatError):
        parse_metric_space({"kind": "matrix", "dist": [["0", "1"], ["2", "0"]]})


def test_gh_certificate_roundtrip_exact():
    x = FiniteMetricSpace.from_line(PointSet.of([0, 1]))
    y = FiniteMetricSpace.from_line(PointSet.of([0, 2]))
    res = gh_exact(x, y)
    doc = gh_certificate_doc(res, x, y)
    assert doc["status"] == "exact"
    assert doc["exact"] == "1/2"
    assert verify_gh_certificate(doc)
    # tamper with the claimed distortion: verification must fail
    tampered = dict(doc)
    tampered["distortion"] = "2"
    assert not verify_gh_certificate(tampered)
    # the document survives JSON serialization byte-for-byte
    assert json.loads(dumps_doc(doc)) == doc


def test_gh_certificate_bounds_only():
    # a 14-point pair whose search is still open after 5000 nodes
    x = FiniteMetricSpace.from_line(
        PointSet.of([0, 3, 4, 6, 7, 8, 15, 16, 24, 25, 28, 30, 31, 36])
    )
    y = FiniteMetricSpace.from_line(
        PointSet.of([0, 1, 6, 14, 17, 20, 24, 27, 28, 29, 30, 32, 35, 37])
    )
    res = gh_branch_bound(x, y, budget=5000)
    assert res.exact is None
    doc = gh_certificate_doc(res, x, y)
    assert doc["status"] == "bounds-only"
    assert verify_gh_certificate(doc)


def test_forged_gh_certificate_is_refused():
    # the full relation on X={0,1}, Y={0,3} has distortion 3, so upper 3/2 is
    # honestly witnessed; the claimed lower and exact 3/2 are not: d_GH = 1
    x = FiniteMetricSpace.from_line(PointSet.of([0, 1]))
    y = FiniteMetricSpace.from_line(PointSet.of([0, 3]))
    assert gh_exact(x, y).exact == 1
    forged = {
        "kind": "gh-certificate", "status": "exact",
        "lower": "3/2", "upper": "3/2", "exact": "3/2", "nodes_explored": 0,
        "x": format_metric_space(x), "y": format_metric_space(y),
        "correspondence": [[0, 0], [0, 1], [1, 0], [1, 1]],
        "distortion": "3", "witness": [[0, 0], [0, 1]],
    }
    assert not verify_gh_certificate(forged)
    # the same relation as an honest bounds-only claim verifies
    honest = dict(forged, status="bounds-only", lower="1", exact=None)
    assert verify_gh_certificate(honest)
    # a bounds-only claim whose lower bound overshoots d_GH
    assert not verify_gh_certificate(dict(forged, status="bounds-only", exact=None))


def test_golden_gh_certificates_verify():
    golden = Path(__file__).parent / "golden"
    certs = sorted(golden.glob("*.cert.json"))
    assert len(certs) == 6
    for path in certs:
        assert verify_gh_certificate(json.loads(path.read_text(encoding="utf-8")))


def test_gh_certificate_missing_field_is_a_format_error():
    x = FiniteMetricSpace.from_line(PointSet.of([0, 1]))
    y = FiniteMetricSpace.from_line(PointSet.of([0, 2]))
    doc = gh_certificate_doc(gh_exact(x, y), x, y)
    del doc["upper"]
    with pytest.raises(FormatError) as exc:
        verify_gh_certificate(doc)
    assert exc.value.location == "$.upper"
