"""Document formats: space descriptions, distance matrices, GH certificates.

Scalars travel as exact strings ("p/q", integers, or exact decimals like
"3.25"); JSON floats are rejected because they are already rounded.
Printing is canonical and deterministic, so parse(print(x)) = x bit-exact
and identical inputs always produce byte-identical documents.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Union

from .correspondence import Correspondence, FiniteMetricSpace, distortion
from .geometry import IntervalUnion, PointSet, Window, scalar_str
from .solver import EXHAUSTIVE_LIMIT, GHResult, gh_exact

SpaceObject = Union[PointSet, IntervalUnion, Window]


class FormatError(ValueError):
    """Malformed document; carries the JSON-path of the offending field."""

    def __init__(self, location: str, message: str) -> None:
        self.location = location
        super().__init__(f"{location}: {message}")


def parse_scalar(value: Any, location: str = "$") -> Fraction:
    if isinstance(value, bool):
        raise FormatError(location, "expected an exact number, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise FormatError(
            location, "floats are not exact; write the value as a string"
        )
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(location, f"not a rational: {value!r} ({exc})")
    raise FormatError(location, f"expected a rational, got {type(value).__name__}")


def _require(doc: Any, key: str, location: str) -> Any:
    if not isinstance(doc, dict):
        raise FormatError(location, "expected an object")
    if key not in doc:
        raise FormatError(location, f"missing field {key!r}")
    return doc[key]


def parse_space(doc: Any, location: str = "$") -> SpaceObject:
    """Parse a space description: points, intervals, window or grid."""
    kind = _require(doc, "kind", location)
    if kind == "points":
        coords = _require(doc, "coords", location)
        if not isinstance(coords, list) or not coords:
            raise FormatError(f"{location}.coords", "expected a nonempty list")
        points = [
            parse_scalar(v, f"{location}.coords[{i}]") for i, v in enumerate(coords)
        ]
        try:
            return PointSet(tuple(points))
        except ValueError as exc:
            raise FormatError(f"{location}.coords", str(exc))
    if kind == "intervals":
        spans = _require(doc, "intervals", location)
        if not isinstance(spans, list) or not spans:
            raise FormatError(f"{location}.intervals", "expected a nonempty list")
        parsed = []
        for i, span in enumerate(spans):
            here = f"{location}.intervals[{i}]"
            if not isinstance(span, list) or len(span) != 2:
                raise FormatError(here, "expected a pair [lo, hi]")
            parsed.append(
                (parse_scalar(span[0], f"{here}[0]"), parse_scalar(span[1], f"{here}[1]"))
            )
        try:
            return IntervalUnion.merge(parsed)
        except ValueError as exc:
            raise FormatError(f"{location}.intervals", str(exc))
    if kind == "window":
        lo = parse_scalar(_require(doc, "lo", location), f"{location}.lo")
        hi = parse_scalar(_require(doc, "hi", location), f"{location}.hi")
        try:
            return Window(lo, hi)
        except ValueError as exc:
            raise FormatError(location, str(exc))
    if kind == "grid":
        start = parse_scalar(_require(doc, "start", location), f"{location}.start")
        step = parse_scalar(_require(doc, "step", location), f"{location}.step")
        count = _require(doc, "count", location)
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise FormatError(f"{location}.count", "expected a positive integer")
        if step <= 0:
            raise FormatError(f"{location}.step", "step must be positive")
        return PointSet(tuple(start + k * step for k in range(count)))
    raise FormatError(
        f"{location}.kind",
        f"unknown kind {kind!r}; expected points, intervals, window or grid",
    )


def format_space(obj: SpaceObject) -> dict:
    if isinstance(obj, PointSet):
        return {"kind": "points", "coords": [scalar_str(p) for p in obj.points]}
    if isinstance(obj, IntervalUnion):
        return {
            "kind": "intervals",
            "intervals": [[scalar_str(a), scalar_str(b)] for a, b in obj.intervals],
        }
    if isinstance(obj, Window):
        return {"kind": "window", "lo": scalar_str(obj.lo), "hi": scalar_str(obj.hi)}
    raise TypeError(f"cannot format {type(obj).__name__} as a space")


def dumps_doc(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads_space(text: str, location: str = "$") -> SpaceObject:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(location, f"invalid JSON: {exc}")
    return parse_space(doc, location)


def parse_metric_space(doc: Any, location: str = "$") -> FiniteMetricSpace:
    """A metric-space input: a points document or an explicit matrix."""
    kind = _require(doc, "kind", location)
    if kind in ("points", "grid"):
        space = parse_space(doc, location)
        assert isinstance(space, PointSet)
        return FiniteMetricSpace.from_line(space)
    if kind == "matrix":
        rows = _require(doc, "dist", location)
        if not isinstance(rows, list) or not rows:
            raise FormatError(f"{location}.dist", "expected a nonempty list of rows")
        parsed = []
        for i, row in enumerate(rows):
            if not isinstance(row, list):
                raise FormatError(f"{location}.dist[{i}]", "expected a list")
            parsed.append(
                tuple(
                    parse_scalar(v, f"{location}.dist[{i}][{j}]")
                    for j, v in enumerate(row)
                )
            )
        try:
            return FiniteMetricSpace(tuple(parsed))
        except ValueError as exc:
            raise FormatError(f"{location}.dist", str(exc))
    raise FormatError(
        f"{location}.kind",
        f"unknown kind {kind!r}; expected points, grid or matrix",
    )


def format_metric_space(space: FiniteMetricSpace) -> dict:
    if space.line_coords is not None:
        return format_space(space.line_coords)
    return {
        "kind": "matrix",
        "dist": [[scalar_str(v) for v in row] for row in space.dist],
    }


def gh_certificate_doc(
    result: GHResult, x: FiniteMetricSpace, y: FiniteMetricSpace
) -> dict:
    """Self-contained certificate: bounds, witnesses, and both inputs.

    An external checker can re-verify it in O(|R|^2) from this document
    alone (see verify_gh_certificate).
    """
    corr = result.optimal if result.optimal is not None else result.upper_witness
    doc: dict = {
        "kind": "gh-certificate",
        "status": "exact" if result.exact is not None else "bounds-only",
        "lower": scalar_str(result.lower),
        "upper": scalar_str(result.upper),
        "exact": scalar_str(result.exact) if result.exact is not None else None,
        "nodes_explored": result.nodes_explored,
        "x": format_metric_space(x),
        "y": format_metric_space(y),
    }
    if corr is not None:
        cert = distortion(corr, x, y)
        doc["correspondence"] = [[i, j] for i, j in corr.pairs]
        doc["distortion"] = scalar_str(cert.value)
        doc["witness"] = [list(cert.witness[0]), list(cert.witness[1])]
    return doc


def verify_gh_certificate(doc: dict) -> bool:
    """Recompute the certificate's claims from its own payload.

    The upper bound is always re-derived from the witnessed correspondence.
    When |X|·|Y| is within the exhaustive limit the instance is also
    re-solved with `gh_exact`, and bounds that do not bracket the true
    distance are refused; an exact claim must equal both bounds, so it is
    checked too.  Above the limit, the lower bound is trusted.
    """

    def field(key: str) -> Any:
        return _require(doc, key, f"$.{key}")

    x = parse_metric_space(field("x"), "$.x")
    y = parse_metric_space(field("y"), "$.y")
    lower = parse_scalar(field("lower"), "$.lower")
    upper = parse_scalar(field("upper"), "$.upper")
    if lower > upper:
        return False
    if x.n * y.n <= EXHAUSTIVE_LIMIT and not lower <= gh_exact(x, y).exact <= upper:
        return False
    if "correspondence" not in doc:
        return field("status") == "bounds-only"
    corr = Correspondence.of(
        [(int(i), int(j)) for i, j in doc["correspondence"]], x.n, y.n
    )
    cert = distortion(corr, x, y)
    if cert.value != parse_scalar(field("distortion"), "$.distortion"):
        return False
    # the witnessed correspondence realizes the upper bound
    if cert.value != 2 * upper:
        return False
    if field("status") == "exact":
        exact = parse_scalar(field("exact"), "$.exact")
        if not (lower == exact == upper):
            return False
    return True
