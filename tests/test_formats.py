"""Document formats: exact round-trips, rejection of inexact input."""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest

from netline import (
    FiniteMetricSpace,
    IntervalUnion,
    PointSet,
    Window,
    as_scalar,
    gh_branch_bound,
    gh_exact,
)
from netline import formats
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


def test_forged_bounds_above_the_exhaustive_limit_are_refused():
    # 6 x 5 = 30 cells: nothing re-solves the pair, so only the order of the
    # bounds catches a lower bound above the honestly witnessed upper one
    x = FiniteMetricSpace.from_line(PointSet.of(range(6)))
    y = FiniteMetricSpace.from_line(PointSet.of([0, 2, 3, 7, 9]))
    doc = gh_certificate_doc(gh_branch_bound(x, y), x, y)
    assert verify_gh_certificate(doc)
    upper = parse_scalar(doc["upper"])
    forged = dict(doc, status="bounds-only", exact=None, lower=str(upper + 1))
    assert not verify_gh_certificate(forged)


def test_golden_gh_certificates_verify():
    golden = Path(__file__).parent / "golden"
    certs = sorted(golden.glob("*.cert.json"))
    assert len(certs) == 11
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


# the two forms the parser takes with int(), their look-alikes, strings that
# Fraction reads on some Python versions only, and exponents at the bound
EDGE_SCALARS = [
    "12", "-3", "3/6", "-0", "007/014", "+3", " 3", "3/-4", "--3", "-", "1/0",
    "1.5", "1e3", "1_000", "1_0/2", "3 / 4", "1 /2", "1/ 2", "1.5_0", "1e1_0",
    "٣", "3/٤", "9" * 5000, ".5", "5.", ".", "1e", "1/2e3", " -2.5E-3 ",
    "1e4300", "1E-4300", "1e4301", "-1e-4301", "1e+000004301",
]
# an independent statement of the grammar of Fraction(str) on Python 3.10
GRAMMAR = re.compile(r"\s*[-+]?(\d+/\d+|(\d+\.?\d*|\.\d+)([eE](?P<exp>[-+]?\d+))?)\s*")


def _as_fraction_does(s: str):
    """What parse_scalar must give on every Python: Fraction(s), or the error
    it wraps, for a string in 3.10's grammar with an exponent of at most 4300
    in absolute value; a refusal for any other string."""
    match = GRAMMAR.fullmatch(s)
    if match is None:
        return f"$: not a rational: {s!r} (Invalid literal for Fraction: {s!r})"
    if match["exp"] and abs(int(match["exp"])) > 4300:
        return f"$: not a rational: {s!r} (exponent beyond +-4300)"
    try:
        return F(s)
    except (ValueError, ZeroDivisionError) as exc:
        return f"$: not a rational: {s!r} ({exc})"


def _as_parsed(s: str):
    try:
        return parse_scalar(s)
    except FormatError as exc:
        return str(exc)


def _as_coerced(s: str):
    """`as_scalar`'s answer, with a refusal worded as `parse_scalar` wraps it."""
    try:
        return as_scalar(s)
    except (ValueError, ZeroDivisionError) as exc:
        return f"$: not a rational: {s!r} ({exc})"


def test_parse_scalar_agrees_with_fraction_on_edge_strings():
    for s in EDGE_SCALARS:
        want = _as_fraction_does(s)
        assert _as_parsed(s) == want, s[:20]
        assert _as_coerced(s) == want, s[:20]


def test_parse_scalar_agrees_with_fraction_on_random_strings():
    rng = random.Random(9)
    alphabet = "0123456789-+/._ e"
    strings = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
               for _ in range(2000)]
    accepted = 0
    for s in strings:
        want = _as_fraction_does(s)
        assert _as_parsed(s) == want, s
        assert _as_coerced(s) == want, s
        accepted += isinstance(want, F)
    assert accepted > 100  # the table reaches both the fast path and the rest


def test_scalar_grammar_is_the_same_on_every_python():
    written = ["2.50", "007", "1e1", "-7/14", "3.0"]
    assert [parse_scalar(s) for s in written] == [F(5, 2), 7, 10, F(-1, 2), 3]
    assert [as_scalar(s) for s in written] == [F(5, 2), 7, 10, F(-1, 2), 3]
    # Fraction takes these on 3.11 or 3.12 and later, not on 3.10
    for s in ["1_000", "1_0/2", "1 /2", "3 / 4"]:
        with pytest.raises(FormatError, match="Invalid literal for Fraction"):
            parse_scalar(s)
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            as_scalar(s)


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


# ---------------------------------------------------------------------------
# whole-list reads against the scalar-by-scalar reader they replace


def reference_ratio(value, location):
    """`formats._ratio` as it read every scalar before whole lists were read
    in one step, frozen as the reference."""
    try:
        if isinstance(value, str):
            num, slash, den = value.partition("/")
            digits = num[1:] if num[:1] == "-" else num
            if digits.isdigit() and digits.isascii() and (
                not slash or den.isdigit() and den.isascii() and den.strip("0")
            ):
                return int(num), int(den) if slash else 1
            return F(value).as_integer_ratio()
        if isinstance(value, bool):
            message = "expected an exact number, got a boolean"
        elif isinstance(value, int):
            return value, 1
        elif isinstance(value, float):
            message = "floats are not exact; write the value as a string"
        else:
            message = f"expected a rational, got {type(value).__name__}"
    except (ValueError, ZeroDivisionError) as exc:
        message = f"not a rational: {value!r} ({exc})"
    raise FormatError(location, message)


def reference_over_lcm(ratios):
    den = math.lcm(*{d for _, d in ratios})
    return [n * (den // d) for n, d in ratios], den


def reference_merge(ends, den):
    """`IntervalUnion.merge_ints` before its sorted and disjoint shortcut."""
    pairs = list(zip(ends[::2], ends[1::2]))
    if any(a0 >= a1 for (a0, _), (a1, _) in zip(pairs, pairs[1:])):
        pairs.sort()
    if not pairs:
        raise ValueError("an interval union needs at least one interval")
    for a, b in pairs:
        if a > b:
            raise ValueError(f"backwards interval [{F(a, den)}, {F(b, den)}]")
    fused = []
    for a, b in pairs:
        if fused and a <= fused[-1]:
            fused[-1] = max(fused[-1], b)
        else:
            fused += (a, b)
    return IntervalUnion.from_ints(fused, den)


def reference_parse(doc):
    """The points and intervals branches of `parse_space`, scalar by scalar."""
    if doc["kind"] == "points":
        ratios = [reference_ratio(v, f"$.coords[{k}]")
                  for k, v in enumerate(doc["coords"])]
        try:
            return PointSet.from_ints(*reference_over_lcm(ratios))._check()
        except ValueError as exc:
            raise FormatError("$.coords", str(exc))
    ends = []
    for i, span in enumerate(doc["intervals"]):
        if not isinstance(span, list) or len(span) != 2:
            raise FormatError(f"$.intervals[{i}]", "expected a pair [lo, hi]")
        ends += (reference_ratio(span[0], f"$.intervals[{i}][0]"),
                 reference_ratio(span[1], f"$.intervals[{i}][1]"))
    try:
        return reference_merge(*reference_over_lcm(ends))
    except ValueError as exc:
        raise FormatError("$.intervals", str(exc))


def outcome(parse, doc):
    try:
        parsed = parse(doc)
    except FormatError as exc:
        return exc.location, str(exc)
    return type(parsed).__name__, parsed.ints, parsed.den


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def spelled(rng: random.Random, v: F, fallback: float):
    """A document scalar that names v: a written form, or with probability
    ``fallback`` a form only the scalar-by-scalar reader takes."""
    p, q = v.numerator, v.denominator
    if rng.random() >= fallback:
        if p == 0 and rng.random() < 0.5:
            return "-0"
        k = rng.choice((1, 1, 1, 2, 3))
        return rng.choice((str(v), f"{p * k}/{q * k}", f"{p * k}/00{q * k}"))
    forms = [f" {v}", f"{v}\t"] + ([f"+{v}"] if p >= 0 else [])
    if q == 1:
        forms += [p, str(p).translate(ARABIC_INDIC)]
    if 10**6 % q == 0:
        forms.append(str(Decimal(p) / q))
    return rng.choice(forms)


BAD_SCALARS = [True, False, 0.25, None, ["1"], {"p": 1}, "1/0", "1/00", "x",
               "3/-4", "--1", "1/", "/2", "1//2", "1/2/3", "1-2", "-/2", "-", "",
               "1,2", "٣/", "9" * 4301, "-" + "9" * 4301, "1/" + "7" * 4301]


# the forms the program writes, as a pattern: the reference for `_written`
WRITTEN = "-?[0-9]+(?:/[0-9]+)?"


@pytest.mark.parametrize("values, form", [
    (["-0"], ([0], 1)),
    (["7/014"], ([7], 14)),
    (["12", "-3", "0", "007"], ([12, -3, 0, 7], 1)),
    (["-3", "1/2", "-5/6", "4/1"], ([-18, 3, -5, 24], 6)),
])
def test_written_lists_take_the_one_step_read(values, form):
    # a correct fallback would hide a lost fast path, so `_written` itself
    assert formats._written(values) == form


@pytest.mark.parametrize("near_miss", [
    "1/", "/2", "1//2", "1/2/3", "1-2", "-/2", "3/-4", "-", "", "1,2", "1/٣",
    "+1", " 1", "1_0",
])
def test_near_misses_leave_the_one_step_read(near_miss):
    assert re.fullmatch(WRITTEN, near_miss) is None
    for values in ([near_miss], ["1", near_miss, "2/3"], ["-4/7", near_miss]):
        assert formats._written(values) is None, values


def random_scalar_list(rng: random.Random) -> list:
    n = rng.randint(1, 400)
    values = set()
    while len(values) < n:
        q = rng.randint(1, 64)
        values.add(F(rng.randint(-40 * q * n, 40 * q * n), q))
    fallback = rng.choice((0.0, 0.0, 0.002, 0.05, 0.5))
    scalars = [spelled(rng, v, fallback) for v in sorted(values)]
    if rng.random() < 0.4:
        scalars[rng.randrange(n)] = rng.choice(BAD_SCALARS)
    return scalars


def test_whole_list_reads_agree_with_the_scalar_reader():
    rng = random.Random(23)
    reached = {"written": 0, "mixed": 0, "refused": 0}
    for _ in range(400):
        scalars = random_scalar_list(rng)
        doc = {"kind": "points", "coords": scalars}
        want = outcome(reference_parse, doc)
        assert outcome(parse_space, doc) == want, scalars
        if want[0] != "PointSet":
            reached["refused"] += 1
        else:
            written = all(type(v) is str and re.fullmatch(WRITTEN, v)
                          for v in scalars)
            reached["written" if written else "mixed"] += 1
        # the same scalars as interval ends, in order or not, and with one
        # malformed span now and then
        spans = [scalars[k:k + 2] for k in range(0, len(scalars) - 1, 2)]
        if rng.random() < 0.3:
            rng.shuffle(spans)
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            if spans:
                spans[rng.randrange(len(spans))].reverse()  # a backwards span
        if spans and rng.random() < 0.2:
            spans[rng.randrange(len(spans))] = rng.choice(
                (["0"], ["0", "1", "2"], "0", None, ("0", "1")))
        if spans:
            doc = {"kind": "intervals", "intervals": spans}
            want = outcome(reference_parse, doc)
            assert outcome(parse_space, doc) == want, spans
            reached["refused"] += want[0] != "IntervalUnion"
    # the one-step reads, the scalar-by-scalar reads and refusals are reached
    assert min(reached.values()) > 50, reached


@pytest.mark.parametrize("spans, location", [
    # fields fail in document order: a bad scalar before a malformed span
    ([["0", 0.5], ["1", "2", "3"]], "$.intervals[0][1]"),
    ([["x", "1"], "2"], "$.intervals[0][0]"),
    # and a malformed span before a bad scalar
    ([["0"], ["1", "x"]], "$.intervals[0]"),
    ([["0", "1"], ["2", "3", "4"], ["5", 0.5]], "$.intervals[1]"),
    ([["0", "1"], None, ["1/0", "2"]], "$.intervals[1]"),
], ids=["float-then-triple", "bad-then-str", "short-then-bad",
        "triple-then-float", "none-then-zero-den"])
def test_interval_errors_report_the_first_field_in_document_order(spans, location):
    with pytest.raises(FormatError) as exc:
        parse_space({"kind": "intervals", "intervals": spans})
    assert exc.value.location == location


@pytest.mark.parametrize("bad", ["0.25x", 0.25, "1/0", "9" * 4301, "1,2"],
                         ids=["junk", "float", "zero-den", "overlong", "comma"])
def test_a_bad_scalar_deep_in_a_long_list_is_located(bad):
    coords = [str(F(k, 7)) for k in range(300)]
    coords[250] = bad
    with pytest.raises(FormatError) as exc:
        parse_space({"kind": "points", "coords": coords})
    assert exc.value.location == "$.coords[250]"
    assert str(exc.value) == str(outcome(reference_parse, {
        "kind": "points", "coords": coords})[1])


# ---------------------------------------------------------------------------
# matrices read as one list against the row-by-row reader they replace


def reference_matrix(doc):
    """`parse_metric_space`'s matrix branch before matrices were read as one
    list, frozen as the reference: each row scalar by scalar, then the rows."""
    parsed = []
    for i, row in enumerate(doc["dist"]):
        if not isinstance(row, list):
            raise FormatError(f"$.dist[{i}]", "expected a list")
        parsed.append(tuple(F(*reference_ratio(v, f"$.dist[{i}][{j}]"))
                            for j, v in enumerate(row)))
    try:
        return FiniteMetricSpace(tuple(parsed))
    except ValueError as exc:
        raise FormatError("$.dist", str(exc))


def matrix_outcome(parse, doc):
    try:
        return parse(doc).dist
    except FormatError as exc:
        return exc.location, str(exc)


def random_matrix(rng: random.Random) -> list[list[F]]:
    """A band metric (distances in a 2:1 range) or a line subset's distances."""
    n = rng.randint(1, 8)
    q = rng.randint(1, 12)
    if rng.random() < 0.5:
        coords = sorted(F(v, q) for v in rng.sample(range(-40 * q, 40 * q), n))
        return [[abs(a - b) for b in coords] for a in coords]
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = F(q + rng.randint(0, q), q)
    return rows


def test_matrix_reads_agree_with_the_row_reader():
    rng = random.Random(24)
    reached = Counter()
    for _ in range(600):
        rows = random_matrix(rng)
        n = len(rows)
        fallback = rng.choice((0.0, 0.0, 0.05, 0.5))
        dist = [[spelled(rng, v, fallback) for v in row] for row in rows]
        roll = rng.random()
        if roll < 0.3:  # a bad scalar anywhere
            dist[rng.randrange(n)][rng.randrange(n)] = rng.choice(BAD_SCALARS)
        elif roll < 0.4:  # a row that is not a list
            dist[rng.randrange(n)] = rng.choice(("0 1", None, 0, {"0": 1}))
        elif roll < 0.5:  # a short or a long row
            row = dist[rng.randrange(n)]
            if rng.random() < 0.5:
                row.pop()
            else:
                row.append("1")
        elif roll < 0.6 and n > 1:  # an asymmetric or triangle-breaking entry
            dist[rng.randrange(n)][rng.randrange(n)] = str(F(rng.randint(0, 60), 4))
        if roll < 0.6 and rng.random() < 0.3:  # and a second fault after it
            dist.append(rng.choice((["x"] * (n + 1), "0", ["0"])))
        doc = {"kind": "matrix", "dist": dist}
        want = matrix_outcome(reference_matrix, doc)
        assert matrix_outcome(parse_metric_space, doc) == want, dist
        reached["read" if isinstance(want[0], tuple) else want[0]] += 1
    # spaces, bad scalars, bad rows and refused matrices are all reached
    assert reached["read"] > 100 and reached["$.dist"] > 50, reached
    assert sum(v for k, v in reached.items() if k.startswith("$.dist[")) > 100, reached


@pytest.mark.parametrize("dist, location, message", [
    # a bad scalar in row 0 ahead of a row that is not a list
    ([["0", "x"], "1 0"], "$.dist[0][1]", "not a rational: 'x' "),
    # a row that is not a list ahead of a bad scalar
    (["0 1", ["1", "x"]], "$.dist[0]", "expected a list"),
    # a bad scalar in a matrix that is not square, short row first
    ([["0"], ["1", 0.5]], "$.dist[1][1]", "floats are not exact"),
    ([["0", "1"], ["1", "0"], ["1", "1/0"]], "$.dist[2][1]", "not a rational: '1/0' "),
    ([["0", "1"], ["1"]], "$.dist", "distance matrix must be square"),
    ([["0", "1/2"], ["2/4", "0"], []], "$.dist", "distance matrix must be square"),
], ids=["bad-then-row", "row-then-bad", "short-then-float", "extra-row-zero-den",
        "short-row", "extra-empty-row"])
def test_matrix_errors_report_the_first_field_in_document_order(dist, location, message):
    doc = {"kind": "matrix", "dist": dist}
    with pytest.raises(FormatError) as exc:
        parse_metric_space(doc)
    assert exc.value.location == location
    assert str(exc.value).startswith(f"{location}: {message}")
    assert matrix_outcome(reference_matrix, doc) == (location, str(exc.value))


def test_matrix_spellings_of_one_value_give_equal_spaces():
    a = parse_metric_space({"kind": "matrix", "dist": [["0", "2/4"], ["1/2", "-0"]]})
    b = parse_metric_space({"kind": "matrix", "dist": [["0", "1/2"], ["1/2", "0"]]})
    c = parse_metric_space({"kind": "matrix", "dist": [["0", "0.5"], [" 1/2", 0]]})
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert (a.metric.ints, a.metric.den) == ((0, 1, 1, 0), 2)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.cert.json")), ids=lambda p: p.name)
def test_dumps_doc_rewrites_every_golden_certificate_byte_for_byte(path):
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert dumps_doc(doc) == text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# strings with non-ASCII, control, quote, backslash and %-format characters
CHARS = 'ab/0-%s%d"\\\n\t\x00\x1f\x7fé \U0001f600 '


def _random_doc(rng: random.Random, depth: int):
    """A random document value; lists of leaves and of rows of leaves are
    drawn often, since the writer fills those from one template."""
    text = lambda: "".join(rng.choice(CHARS) for _ in range(rng.randrange(4)))
    leaves = [text, lambda: rng.randint(-5, 5), lambda: rng.choice([-1, 1]) * 7 ** 60,
              lambda: rng.choice([True, False, None])]
    kind = rng.randrange(8 if depth else 4)
    if kind < 4:
        return leaves[kind]()
    if kind == 4:  # a dict, possibly empty
        return {text(): _random_doc(rng, depth - 1) for _ in range(rng.randrange(4))}
    if kind == 5:  # leaves of one kind
        leaf = rng.choice(leaves)
        return [leaf() for _ in range(rng.randrange(5))]
    if kind == 6:  # rows of one width, as lists or tuples, of one kind or mixed
        width, leaf = rng.randrange(3), rng.choice(leaves)
        pick = (lambda: leaf()) if rng.random() < 0.7 else (lambda: rng.choice(leaves)())
        rows = [[pick() for _ in range(width)] for _ in range(rng.randrange(4))]
        return [tuple(row) if rng.random() < 0.3 else row for row in rows]
    items = [_random_doc(rng, depth - 1) for _ in range(rng.randrange(4))]
    return tuple(items) if rng.random() < 0.3 else items


def test_dumps_doc_matches_json_dumps_on_random_documents():
    rng = random.Random(28)
    for _ in range(3000):
        doc = {"k": _random_doc(rng, 4)}
        assert dumps_doc(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_dumps_doc_writes_int_and_str_subclasses_as_json_does():
    class Label(str):
        pass

    doc = {"a": [True, 1], "b": [[False, 2]], "c": [Label("x"), "y"], "d": [Label("z")]}
    assert dumps_doc(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    {"x": 0.5}, {"x": [1, 0.5]}, {"x": [[0.5, 1.0]]}, {"x": {1, 2}}, {"x": frozenset()},
    {"x": [b"1"]}, {"x": F(1, 2)}, {1: "a"},
], ids=["float", "float-in-list", "float-row", "set", "frozenset", "bytes", "fraction",
        "int-key"])
def test_dumps_doc_refuses_what_a_document_cannot_hold(doc):
    with pytest.raises(TypeError):
        dumps_doc(doc)


def _strs(ints, den):
    return [str(F(v, den)) for v in ints]


def test_written_scalars_are_the_fraction_strings_of_the_stored_ints():
    # -2, 0, 3, 4 over 6 reduce to four different denominators
    points = PointSet.from_ints([-2, 0, 3, 4], 6)
    union = IntervalUnion.from_ints([-2, 0, 3, 4], 6)
    window = Window(F(-1, 2), F(2, 3))
    matrix = FiniteMetricSpace.from_matrix([[0, F(1, 2), F(2, 3)], [F(1, 2), 0, F(1, 3)],
                                            [F(2, 3), F(1, 3), 0]])
    assert points.den == union.den == window.den == matrix.metric.den == 6
    assert format_space(points)["coords"] == ["-1/3", "0", "1/2", "2/3"]
    assert format_space(union)["intervals"] == [["-1/3", "0"], ["1/2", "2/3"]]
    assert format_space(window) == {"kind": "window", "lo": "-1/2", "hi": "2/3"}
    assert format_metric_space(matrix)["dist"] == [
        ["0", "1/2", "2/3"], ["1/2", "0", "1/3"], ["2/3", "1/3", "0"]]
    # over den 1, negative values included
    assert format_space(PointSet.of([-3, 0, 5]))["coords"] == ["-3", "0", "5"]
    assert format_space(Window(-2, 5)) == {"kind": "window", "lo": "-2", "hi": "5"}
    assert format_metric_space(FiniteMetricSpace.from_matrix([[0, 2], [2, 0]]))["dist"] == [
        ["0", "2"], ["2", "0"]]
    for obj in (points, union, window):
        assert parse_space(format_space(obj)) == obj
    assert parse_metric_space(format_metric_space(matrix)) == matrix
    with pytest.raises(TypeError, match="cannot format FiniteMetricSpace as a space"):
        format_space(matrix)


def test_written_scalars_match_the_fraction_views_on_random_spaces():
    rng = random.Random(6)
    for _ in range(300):
        den = rng.choice([1, 1, 2, 6, 12, 35, 360])
        ints = sorted(rng.sample(range(-4 * den, 4 * den + 1), rng.randint(1, 9)))
        points = PointSet.from_ints(ints, den)
        coords = format_space(points)["coords"]
        assert coords == _strs(points.ints, points.den) == [str(p) for p in points.points]
        if len(ints) % 2 == 0 and len(set(ints)) == len(ints):
            union = IntervalUnion.from_ints(ints, den)
            assert format_space(union)["intervals"] == [
                [str(a), str(b)] for a, b in union.intervals]
            assert parse_space(format_space(union)) == union
        line = FiniteMetricSpace.from_line(points)
        matrix = FiniteMetricSpace.from_matrix(line.dist)
        assert format_metric_space(matrix)["dist"] == [
            [str(v) for v in row] for row in matrix.dist]
        assert parse_space(format_space(points)) == points
        assert parse_metric_space(format_metric_space(matrix)) == matrix
