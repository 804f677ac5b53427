"""Document formats: space descriptions, distance matrices, GH certificates.

Scalars travel as exact strings; JSON floats are rejected because they are
already rounded.  A scalar string is read in the one grammar that
`geometry.as_scalar` owns.  Coordinates, interval ends and matrix entries
become the ints over one denominator that the spaces store.  When every
scalar of a list is in a form the program writes, ASCII "-?digits" or
"-?digits/digits", one pass that deletes the ASCII digits checks them all
and `str.partition` and `int()` convert them; any other list, and any
single scalar, is read by `as_scalar`, which gives the same values and
reports the first bad field in document order.  Printing is canonical
and deterministic, so parse(print(x)) = x bit-exact and identical inputs
always produce byte-identical documents: scalar strings are built from the
stored ints, and `dumps_doc` writes `json.dumps(doc, sort_keys=True, indent=2)`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Any, Callable, Union

from .correspondence import Correspondence, FiniteMetricSpace, Relation, distortion
from .geometry import (
    Form, IntervalUnion, PointSet, Window, _Ints, _over_lcm, as_scalar, scalar_str)
from .solver import EXHAUSTIVE_LIMIT, GHResult, gh_exact

SpaceObject = Union[PointSet, IntervalUnion, Window]


class FormatError(ValueError):
    """Malformed document; carries the JSON-path of the offending field."""

    def __init__(self, location: str, message: str) -> None:
        self.location = location
        super().__init__(f"{location}: {message}")


# a written value, ASCII "-?digits" or "-?digits/digits", leaves one of these
# shapes when its ASCII digits are deleted; `int()` also takes other digits
_DIGITS = str.maketrans("", "", "0123456789")
_SHAPES = {"", "-", "/", "-/"}


def _written(values: list[Any]) -> Form | None:
    """The values over the lcm of their denominators when every one is a
    string in a written form with a nonzero denominator, else None."""
    try:
        text = ",".join(values)
    except TypeError:
        return None
    # no empty denominator; int() then refuses an empty part, a sign or a
    # slash out of place, and a value that holds a comma
    shapes = text.translate(_DIGITS).split(",")
    if not _SHAPES.issuperset(shapes) or text.endswith("/") or "/," in text:
        return None
    try:
        if "/" not in text:
            return list(map(int, values)), 1
        # two lazy passes: all the partition triples at once would hold three
        # objects per value at the peak
        dens = list(map(itemgetter(2), map(str.partition, values, repeat("/"))))
        qs = {den: int(den or 1) for den in dict.fromkeys(dens)}
        ints = list(map(int, map(itemgetter(0), map(str.partition, values, repeat("/")))))
    except ValueError:  # such a part, or more digits than int() converts
        return None
    lcm_den = lcm(*qs.values())
    if not lcm_den:  # a zero denominator
        return None
    scale = {den: lcm_den // q for den, q in qs.items()}
    return list(map(mul, ints, map(scale.__getitem__, dens))), lcm_den


def _ratio(value: Any, location: str | Callable[[], str]) -> tuple[int, int]:
    """(num, den) of a document scalar in lowest terms; a callable ``location``
    is called to build the field's location only if it fails."""
    try:
        if isinstance(value, bool):
            message = "expected an exact number, got a boolean"
        elif isinstance(value, int):
            return value, 1
        elif isinstance(value, str):
            return as_scalar(value).as_integer_ratio()
        elif isinstance(value, float):
            message = "floats are not exact; write the value as a string"
        else:
            message = f"expected a rational, got {type(value).__name__}"
    except (ValueError, ZeroDivisionError) as exc:
        message = f"not a rational: {value!r} ({exc})"
    raise FormatError(location() if callable(location) else location, message)


def _read_rows(rows: list, where: str, message: str, width: int | None = None) -> Form:
    """The scalars of rows that are lists (of ``width`` scalars, if given), flat
    over the lcm of their denominators: in one `_written` step, else row by row,
    which refuses the first bad row or scalar in document order."""
    if {*map(type, rows)} == {list} and (width is None or {*map(len, rows)} == {width}):
        form = _written(list(chain.from_iterable(rows)))
        if form is not None:
            return form
    ratios = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or width is not None and len(row) != width:
            raise FormatError(f"{where}[{i}]", message)
        ratios += [_ratio(v, lambda: f"{where}[{i}][{j}]") for j, v in enumerate(row)]
    return _over_lcm(ratios)


def parse_scalar(value: Any, location: str | Callable[[], str] = "$") -> Fraction:
    """The exact value of a document scalar (see `_ratio`)."""
    return Fraction(*_ratio(value, location))


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
        form = _written(coords) or _over_lcm(
            [_ratio(v, lambda: f"{location}.coords[{k}]") for k, v in enumerate(coords)])
        try:
            return PointSet.from_ints(*form)._check()
        except ValueError as exc:
            raise FormatError(f"{location}.coords", str(exc))
    if kind == "intervals":
        spans = _require(doc, "intervals", location)
        where = f"{location}.intervals"
        if not isinstance(spans, list) or not spans:
            raise FormatError(where, "expected a nonempty list")
        form = _read_rows(spans, where, "expected a pair [lo, hi]", 2)
        try:
            return IntervalUnion.merge_ints(*form)
        except ValueError as exc:
            raise FormatError(where, str(exc))
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


def _strs(stored: _Ints, width: int = 0) -> list:
    """`scalar_str` of each stored value, from the ints, in rows of ``width`` if given."""
    den = stored.den
    strs = list(map(str, stored.ints)) if den == 1 else [
        f"{v // g}/{den // g}" if (g := gcd(v, den)) != den else str(v // g) for v in stored.ints]
    return [strs[k:k + width] for k in range(0, len(strs), width)] if width else strs


def format_space(obj: SpaceObject) -> dict:
    if isinstance(obj, PointSet):
        return {"kind": "points", "coords": _strs(obj)}
    if isinstance(obj, IntervalUnion):
        return {"kind": "intervals", "intervals": _strs(obj, 2)}
    if isinstance(obj, Window):
        lo, hi = _strs(obj)
        return {"kind": "window", "lo": lo, "hi": hi}
    raise TypeError(f"cannot format {type(obj).__name__} as a space")


_LEAVES = {str: ("%s", _quote), int: ("%d", int)}  # placeholder, converter


def _dump(value: Any, indent: str) -> str:
    """The JSON text of a value whose lines start at ``indent``.  A list of
    leaves of one type, or of rows of one width of them, fills one %-template."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner, sep = indent + "  ", "," + indent + "  "
    if isinstance(value, dict):
        body = sep.join([_quote(key) + ": " + _dump(value[key], inner) for key in sorted(value)])
    elif not isinstance(value, (list, tuple)):
        raise TypeError(f"cannot write {type(value).__name__} to a document")
    else:
        widths = {*map(len, value)} if {*map(type, value)} <= {list, tuple} else ()
        leaves = list(chain.from_iterable(value)) if len(widths) == 1 else value
        leaf = _LEAVES.get(kinds.pop()) if len(kinds := {*map(type, leaves)}) == 1 else None
        if leaf is None:
            body = sep.join([_dump(item, inner) for item in value])
        else:
            cell, row = leaf[0], inner + "  "
            if leaves is not value:
                cell = "[" + row + ("," + row).join([cell] * widths.pop()) + inner + "]"
            # a tuple of a list is allocated at its length (see `_Ints.from_ints`)
            body = sep.join([cell] * len(value)) % tuple([*map(leaf[1], leaves)])
    brackets = "{}" if isinstance(value, dict) else "[]"
    return brackets[0] + inner + body + indent + brackets[1] if value else brackets


def dumps_doc(doc: dict) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2)` and a newline, for str, int, bool,
    None, dicts with str keys, lists and tuples; any other value is a TypeError."""
    return _dump(doc, "\n") + "\n"


def loads_doc(text: str, location: str = "$") -> Any:
    """The decoded JSON document.  A syntax error, an integer with more digits
    than `int()` converts or nesting deeper than the stack allows is a
    FormatError at ``location``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(location, f"invalid JSON: {exc}")
    except (ValueError, RecursionError) as exc:
        raise FormatError(location, f"unreadable JSON: {exc}")


def loads_space(text: str, location: str = "$") -> SpaceObject:
    return parse_space(loads_doc(text, location), location)


def parse_metric_space(doc: Any, location: str = "$") -> FiniteMetricSpace:
    """A metric-space input: a points document or an explicit matrix."""
    kind = _require(doc, "kind", location)
    if kind in ("points", "grid"):
        space = parse_space(doc, location)
        assert isinstance(space, PointSet)
        return FiniteMetricSpace.from_line(space)
    if kind == "matrix":
        rows = _require(doc, "dist", location)
        where = f"{location}.dist"
        if not isinstance(rows, list) or not rows:
            raise FormatError(where, "expected a nonempty list of rows")
        form = _read_rows(rows, where, "expected a list")
        try:
            if any(len(row) != len(rows) for row in rows):  # checked after every scalar
                raise ValueError("distance matrix must be square")
            return FiniteMetricSpace(_Ints.from_ints(*form))
        except ValueError as exc:
            raise FormatError(where, str(exc))
    raise FormatError(
        f"{location}.kind",
        f"unknown kind {kind!r}; expected points, grid or matrix",
    )


def format_metric_space(space: FiniteMetricSpace) -> dict:
    if space.line_coords is not None:
        return format_space(space.line_coords)
    return {"kind": "matrix", "dist": _strs(space.metric, space.n)}


def gh_certificate_doc(
    result: GHResult, x: FiniteMetricSpace, y: FiniteMetricSpace
) -> dict:
    """Self-contained certificate: bounds, witnesses, and both inputs.

    An external checker can re-verify it in O(|R|^2) from this document
    alone (see verify_gh_certificate).
    """
    return {
        "kind": "gh-certificate",
        "status": "exact" if result.exact is not None else "bounds-only",
        "lower": scalar_str(result.lower),
        "upper": scalar_str(result.upper),
        "exact": scalar_str(result.exact) if result.exact is not None else None,
        "nodes_explored": result.nodes_explored,
        "x": format_metric_space(x),
        "y": format_metric_space(y),
        "correspondence": [[i, j] for i, j in result.upper_witness.pairs],
        "distortion": scalar_str(2 * result.upper),
        "witness": [list(pair) for pair in result.witness],
    }


def _int_pairs(value: Any, location: str) -> list[tuple[int, int]]:
    """A list of [i, j] index pairs as tuples; anything else is malformed."""
    if not isinstance(value, list):
        raise FormatError(location, "expected a list of index pairs")
    for k, pair in enumerate(value):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(type(i) is int for i in pair)):  # no bool, no float
            raise FormatError(f"{location}[{k}]", "expected a pair of integers")
    return [tuple(pair) for pair in value]


def verify_gh_certificate(doc: dict) -> bool:
    """Recompute the certificate's claims from its own payload.

    The upper bound is always re-derived from the correspondence, whose
    witness must be two of its pairs that attain its distortion.  When
    |X|·|Y| is within the exhaustive limit the instance is also re-solved
    with `gh_exact`, and bounds that do not bracket the true distance are
    refused.  An exact claim must equal both bounds and a bounds-only one
    must carry none.  Above the limit, the lower bound is trusted.
    """

    def field(key: str) -> Any:
        return _require(doc, key, f"$.{key}")

    x = parse_metric_space(field("x"), "$.x")
    y = parse_metric_space(field("y"), "$.y")
    lower = parse_scalar(field("lower"), "$.lower")
    upper = parse_scalar(field("upper"), "$.upper")
    status = field("status")
    if status not in ("exact", "bounds-only"):
        raise FormatError("$.status", f"expected exact or bounds-only, got {status!r}")
    if lower > upper:
        return False
    if x.n * y.n <= EXHAUSTIVE_LIMIT and not lower <= gh_exact(x, y).exact <= upper:
        return False
    pairs = _int_pairs(field("correspondence"), "$.correspondence")
    try:
        corr = Correspondence.of(pairs, x.n, y.n)
    except ValueError as exc:
        raise FormatError("$.correspondence", str(exc)) from None
    witness = _int_pairs(field("witness"), "$.witness")
    if len(witness) != 2:
        raise FormatError("$.witness", "expected two index pairs")
    cert = distortion(corr, x, y)
    if cert.value != parse_scalar(field("distortion"), "$.distortion"):
        return False
    # the correspondence realizes the upper bound, and the witness attains it
    if cert.value != 2 * upper or not set(witness) <= set(corr.pairs):
        return False
    if distortion(Relation.of(witness), x, y).value != cert.value:
        return False
    if status == "bounds-only":
        return field("exact") is None
    return lower == parse_scalar(field("exact"), "$.exact") == upper
