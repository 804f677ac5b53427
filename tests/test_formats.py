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
    # non-canonical but portable scalars parse to the values they name and
    # print back canonically
    doc = {"kind": "points", "coords": ["-0", "0.25", "6/4", "10/5"]}
    canonical = {"kind": "points", "coords": ["0", "1/4", "3/2", "2"]}
    want = PointSet.of(canonical["coords"])
    assert parse_space(doc) == parse_space(canonical) == want
    assert format_space(parse_space(doc)) == canonical
    doc = {"kind": "intervals", "intervals": [["6/4", "10/5"], ["-0", "0.25"]]}
    canonical = {"kind": "intervals", "intervals": [["0", "1/4"], ["3/2", "2"]]}
    assert format_space(parse_space(doc)) == canonical
    want = IntervalUnion.merge([(0, F(1, 4)), (F(3, 2), 2)])
    assert parse_space(doc) == want and hash(parse_space(doc)) == hash(want)


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
    # a 5x6 matrix pair whose search is still open after 700 nodes
    x = FiniteMetricSpace.from_matrix(
        [[0, 4, 3, 3, 4], [4, 0, 2, F(7, 2), F(5, 2)], [3, 2, 0, 2, F(5, 2)],
         [3, F(7, 2), 2, 0, 2], [4, F(5, 2), F(5, 2), 2, 0]]
    )
    y = FiniteMetricSpace.from_matrix(
        [[0, 3, F(7, 2), F(5, 2), F(7, 2), 4], [3, 0, 2, 4, F(5, 2), 2],
         [F(7, 2), 2, 0, F(5, 2), F(7, 2), 3],
         [F(5, 2), 4, F(5, 2), 0, F(5, 2), F(7, 2)],
         [F(7, 2), F(5, 2), F(7, 2), F(5, 2), 0, F(5, 2)],
         [4, 2, 3, F(7, 2), F(5, 2), 0]]
    )
    res = gh_branch_bound(x, y, budget=700)
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
    assert len(certs) == 9
    for path in certs:
        assert verify_gh_certificate(json.loads(path.read_text(encoding="utf-8")))


@pytest.mark.parametrize("pairs, location", [
    ([[0.5, 4], [1, 4], [2, 2], [2, 3], [3, 0], [3, 1]], "$.correspondence[0]"),
    ([[0, 4], ["1", 4], [2, 2], [2, 3], [3, 0], [3, 1]], "$.correspondence[1]"),
    ([[0, 4], [True, 4], [2, 2], [2, 3], [3, 0], [3, 1]], "$.correspondence[1]"),
    (5, "$.correspondence"),
])
def test_certificate_correspondence_indices_must_be_int_pairs(pairs, location):
    golden = Path(__file__).parent / "golden" / "dist-gh-line.cert.json"
    doc = json.loads(golden.read_text(encoding="utf-8"))
    assert verify_gh_certificate(doc)
    with pytest.raises(FormatError) as exc:
        verify_gh_certificate(dict(doc, correspondence=pairs))
    assert exc.value.location == location


@pytest.mark.parametrize("pairs, message", [
    ([[0, 4], [1, 4], [2, 2], [2, 3], [3, 0], [3, 1], [9, 0]], "pair index out of range"),
    ([[0, 4], [1, 4], [2, 2], [2, 3], [3, 0], [3, 1], [-1, 0]],
     "indices must be nonnegative"),
    ([], "a relation needs at least one pair"),
    ([[0, 4], [1, 4], [2, 2], [2, 3], [3, 0]], "right projection is not surjective"),
], ids=["extra-9-0", "extra-minus-1-0", "empty", "dropped-3-1"])
def test_certificate_non_correspondence_is_a_located_format_error(pairs, message):
    golden = Path(__file__).parent / "golden" / "dist-gh-line.cert.json"
    doc = json.loads(golden.read_text(encoding="utf-8"))
    with pytest.raises(FormatError) as exc:
        verify_gh_certificate(dict(doc, correspondence=pairs))
    assert exc.value.location == "$.correspondence"
    assert str(exc.value) == f"$.correspondence: {message}"


def test_gh_certificate_missing_field_is_a_format_error():
    x = FiniteMetricSpace.from_line(PointSet.of([0, 1]))
    y = FiniteMetricSpace.from_line(PointSet.of([0, 2]))
    doc = gh_certificate_doc(gh_exact(x, y), x, y)
    del doc["upper"]
    with pytest.raises(FormatError) as exc:
        verify_gh_certificate(doc)
    assert exc.value.location == "$.upper"


# the two forms the parser takes with int(), their look-alikes, and strings
# whose acceptance differs between Python versions
EDGE_SCALARS = [
    "12", "-3", "3/6", "-0", "007/014", "+3", " 3", "3/-4", "--3", "-", "1/0",
    "1.5", "1e3", "1_000", "1_0/2", "3 / 4", "٣", "3/٤", "9" * 5000,
]


def _as_fraction_does(s: str):
    """What parse_scalar must give: Fraction(s), or the error it wraps."""
    try:
        return F(s)
    except (ValueError, ZeroDivisionError) as exc:
        return f"$: not a rational: {s!r} ({exc})"


def _as_parsed(s: str):
    try:
        return parse_scalar(s)
    except FormatError as exc:
        return str(exc)


def test_parse_scalar_agrees_with_fraction_on_edge_strings():
    for s in EDGE_SCALARS:
        assert _as_parsed(s) == _as_fraction_does(s), s[:20]


def test_parse_scalar_agrees_with_fraction_on_random_strings():
    rng = random.Random(9)
    alphabet = "0123456789-+/._ e"
    strings = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
               for _ in range(2000)]
    accepted = 0
    for s in strings:
        want = _as_fraction_does(s)
        assert _as_parsed(s) == want, s
        accepted += isinstance(want, F)
    assert accepted > 100  # the table reaches both the fast path and the rest


def test_bad_scalar_locations():
    with pytest.raises(FormatError) as err:
        parse_space({"kind": "points", "coords": ["0", "1/2", "3/-4", "x"]})
    assert err.value.location == "$.coords[2]"
    with pytest.raises(FormatError) as err:
        parse_space({"kind": "intervals", "intervals": [["0", "1"], ["2", "1/0"]]})
    assert err.value.location == "$.intervals[1][1]"
    # fields fail in document order: a bad scalar before a bad pair
    with pytest.raises(FormatError) as err:
        parse_space({"kind": "intervals", "intervals": [["0", "--1"], ["2"]]})
    assert err.value.location == "$.intervals[0][1]"
    with pytest.raises(FormatError) as err:
        parse_metric_space(
            {"kind": "matrix", "dist": [["0", "1"], ["1", "0"], ["1", "+-1"]]}, "m"
        )
    assert err.value.location == "m.dist[2][1]"


MISSING = object()


def _golden_cert(name: str) -> dict:
    path = Path(__file__).parent / "golden" / f"{name}.cert.json"
    return json.loads(path.read_text(encoding="utf-8"))


def test_certificate_without_correspondence_is_malformed():
    # 36 cells, above the exhaustive limit, so nothing re-solves the pair;
    # lower = upper = 0 is false (d_GH = 8) and no correspondence witnesses it
    x = FiniteMetricSpace.from_line(PointSet.of(range(6)))
    y = FiniteMetricSpace.from_line(PointSet.of([0, 3, 7, 8, 20, 21]))
    assert gh_branch_bound(x, y).exact == 8
    forged = {
        "kind": "gh-certificate", "status": "bounds-only",
        "lower": "0", "upper": "0", "exact": None, "nodes_explored": 0,
        "x": format_metric_space(x), "y": format_metric_space(y),
    }
    with pytest.raises(FormatError) as exc:
        verify_gh_certificate(forged)
    assert exc.value.location == "$.correspondence"
    assert str(exc.value) == "$.correspondence: missing field 'correspondence'"


@pytest.mark.parametrize("witness, location, message", [
    ("anything", "$.witness", "expected a list of index pairs"),
    ([[1, 4]], "$.witness", "expected two index pairs"),
    ([[1, 4], [2, 2], [3, 0]], "$.witness", "expected two index pairs"),
    ([[1, 4], [2, "2"]], "$.witness[1]", "expected a pair of integers"),
    ([[1, 4], [True, 2]], "$.witness[1]", "expected a pair of integers"),
    ([[1, 4, 0], [2, 2]], "$.witness[0]", "expected a pair of integers"),
    (None, "$.witness", "expected a list of index pairs"),
    (MISSING, "$.witness", "missing field 'witness'"),
])
def test_malformed_witness_is_a_located_format_error(witness, location, message):
    doc = _golden_cert("dist-gh-line")
    doc["witness"] = witness
    if witness is MISSING:
        del doc["witness"]
    with pytest.raises(FormatError) as exc:
        verify_gh_certificate(doc)
    assert exc.value.location == location
    assert str(exc.value) == f"{location}: {message}"


def test_witness_must_attain_the_distortion_inside_the_correspondence():
    # distortion 17/6 on the golden line pair: over sixths, x = 0 2 12 42 and
    # y = 0 6 30 36 57, and | |2 - 12| - |57 - 30| | = 17
    doc = _golden_cert("dist-gh-line")
    assert doc["witness"] == [[1, 4], [2, 2]] and doc["distortion"] == "17/6"
    for attained in ([[2, 2], [1, 4]], [[1, 4], [3, 0]]):
        assert verify_gh_certificate(dict(doc, witness=attained)) is True
    # a term below the distortion, a repeated pair, and a pair that attains
    # 17/6 but lies outside the correspondence
    for unattained in ([[0, 4], [1, 4]], [[0, 0], [0, 0]], [[1, 2], [2, 4]]):
        assert verify_gh_certificate(dict(doc, witness=unattained)) is False


@pytest.mark.parametrize("status", ["proved-by-vibes", "Exact", None, 1])
def test_unknown_status_is_a_format_error(status):
    for name in ("dist-gh-line", "dist-gh-bb-matrix-truncated"):
        doc = _golden_cert(name)
        with pytest.raises(FormatError) as exc:
            verify_gh_certificate(dict(doc, status=status))
        assert str(exc.value) == (
            f"$.status: expected exact or bounds-only, got {status!r}")


def test_bounds_only_certificate_carries_no_exact_value():
    doc = _golden_cert("dist-gh-bb-matrix-truncated")
    assert doc["status"] == "bounds-only" and doc["exact"] is None
    assert verify_gh_certificate(doc) is True
    for exact in ("1", "1/2", 0, ""):
        assert verify_gh_certificate(dict(doc, exact=exact)) is False
    del doc["exact"]
    with pytest.raises(FormatError) as exc:
        verify_gh_certificate(doc)
    assert exc.value.location == "$.exact"


@pytest.mark.parametrize("doc, location, message", [
    ({"kind": "points", "coords": ["1", "0"]}, "$.coords",
     "points must be strictly increasing"),
    ({"kind": "points", "coords": ["0", "0/3"]}, "$.coords",
     "points must be strictly increasing"),
    ({"kind": "intervals", "intervals": []}, "$.intervals", "expected a nonempty list"),
    ({"kind": "intervals", "intervals": [["0", "1"], "2"]}, "$.intervals[1]",
     "expected a pair [lo, hi]"),
    ({"kind": "intervals", "intervals": [["0", "1"], ["2", "3", "4"]]},
     "$.intervals[1]", "expected a pair [lo, hi]"),
    ({"kind": "intervals", "intervals": [["0", "1"], ["3", "5/2"]]}, "$.intervals",
     "backwards interval [3, 5/2]"),
    ({"kind": "window", "lo": "1", "hi": "1"}, "$", "window needs lo < hi"),
    ({"kind": "window", "lo": "2", "hi": "1/2"}, "$", "window needs lo < hi"),
    ({"kind": "grid", "start": "0", "step": "1", "count": 0}, "$.count",
     "expected a positive integer"),
    ({"kind": "grid", "start": "0", "step": "1", "count": True}, "$.count",
     "expected a positive integer"),
    ({"kind": "grid", "start": "0", "step": "1", "count": "3"}, "$.count",
     "expected a positive integer"),
    (["points", "0"], "$", "expected an object"),
    ("points", "$", "expected an object"),
    ({"kind": "points", "coords": ["0", ["1"]]}, "$.coords[1]",
     "expected a rational, got list"),
    ({"kind": "window", "lo": {"num": 0}, "hi": "1"}, "$.lo",
     "expected a rational, got dict"),
], ids=["decreasing", "duplicate", "no-intervals", "non-pair", "triple", "backwards",
        "empty-window", "reversed-window", "count-0", "count-true", "count-str",
        "list-doc", "str-doc", "list-scalar", "dict-scalar"])
def test_parse_space_refusals(doc, location, message):
    with pytest.raises(FormatError) as exc:
        parse_space(doc)
    assert exc.value.location == location
    assert str(exc.value) == f"{location}: {message}"


@pytest.mark.parametrize("doc, location, message", [
    ({"kind": "matrix", "dist": "0"}, "$.dist", "expected a nonempty list of rows"),
    ({"kind": "matrix", "dist": [["0", "1"], "1 0"]}, "$.dist[1]", "expected a list"),
    ({"kind": "tree", "dist": [["0"]]}, "$.kind",
     "unknown kind 'tree'; expected points, grid or matrix"),
], ids=["dist-not-list", "row-not-list", "unknown-kind"])
def test_parse_metric_space_refusals(doc, location, message):
    with pytest.raises(FormatError) as exc:
        parse_metric_space(doc)
    assert exc.value.location == location
    assert str(exc.value) == f"{location}: {message}"
