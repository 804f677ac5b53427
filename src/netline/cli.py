"""Command-line front end.

Subcommands: dist-h, dist-gh, contract, trace, verify, experiment.  Every
run is a pure function of its command line: outputs are byte-identical on
reruns.  Exit status 3 flags an internal defect (a result that breaks an
invariant the library guarantees), 2 input/parse errors (with the offending
location), 1 a theorem-suite failure, 0 everything else; a solver that ran
out of budget still exits 0 with the output flagged bounds-only.  Every
command renders its whole output before it writes a byte (`_answer`), so a
refusal leaves no partial answer and no file behind.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain

from . import harness
from .correspondence import FiniteMetricSpace
from .errors import InvariantError
from .formats import (
    FormatError,
    SpaceObject,
    dumps_doc,
    format_space,
    gh_certificate_doc,
    loads_doc,
    loads_space,
    parse_metric_space,
    parse_scalar,
)
from .geometry import PointSet, Window, hausdorff, scalar_str
from .harness import SUITES
from .homotopy import contract, f_map, trace_csv
from .homotopy import trace as run_trace
from .solver import EXHAUSTIVE_LIMIT, GHResult, gh_branch_bound, gh_exact


def _read(path: str) -> str:
    """The document's text; bytes that are not UTF-8 are a FormatError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise FormatError(path, f"not UTF-8: {exc}") from None


def _load_space(path: str) -> SpaceObject:
    return loads_space(_read(path), location=path)


def _load_metric(path: str):
    return parse_metric_space(loads_doc(_read(path), path), location=path)


def _points_in_window(args: argparse.Namespace) -> tuple[PointSet, Window]:
    x = _load_space(args.x)
    if not isinstance(x, PointSet):
        raise FormatError(args.x, f"{args.command} expects a points document")
    w = _load_space(args.window)
    if not isinstance(w, Window):
        raise FormatError(args.window, "expected a window document")
    return x, w


def _answer(status: int, *outputs: tuple) -> int:
    """Write each output, (path, or None for stdout; render; fields), in order
    once every one has rendered, and return ``status``.  A render that fails
    with a ValueError names the first of its fields, (name, value) pairs read
    only then, that has no str: Python prints no int of more than
    sys.get_int_max_str_digits() digits.  Any other failure, an
    InvariantError among them, is re-raised unchanged."""
    texts = []
    for _, render, fields in outputs:
        try:
            texts.append(render())
        except ValueError:
            for name, value in fields:
                try:
                    str(value)
                except ValueError:
                    raise FormatError(name, (
                        f"exact value of more than {sys.get_int_max_str_digits()} "
                        "digits, too long to print")) from None
            raise
    for (path, _, _), text in zip(outputs, texts):
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
    return status


def cmd_dist_h(args: argparse.Namespace) -> int:
    a, b = (obj.span() if isinstance(obj, Window) else obj
            for obj in map(_load_space, (args.a, args.b)))
    d = hausdorff(a, b)
    return _answer(0, (None, lambda: scalar_str(d) + "\n", (("dist-h result", d),)))


def _nonnegative(value: int | None, flag: str) -> None:
    if value is not None and value < 0:
        raise FormatError(flag, "expected a nonnegative number")


def _certificate_fields(path: str, result: GHResult, x: FiniteMetricSpace,
                        y: FiniteMetricSpace) -> Iterator[tuple[str, object]]:
    """The scalars of the certificate at ``path``, in `gh_certificate_doc`'s order."""
    yield from ((f"{path}: {name}", v) for name, v in (
        ("lower", result.lower), ("upper", result.upper), ("exact", result.exact)))
    for name, space in (("x", x), ("y", y)):
        m, n = space.metric, space.n
        yield from ((f"{path}: {name}.coords[{k}]" if m is space.line_coords else
                     f"{path}: {name}.dist[{k // n}][{k % n}]", Fraction(v, m.den))
                    for k, v in enumerate(m.ints))
    yield f"{path}: distortion", 2 * result.upper


def cmd_dist_gh(args: argparse.Namespace) -> int:
    _nonnegative(args.budget, "--budget")
    _nonnegative(args.limit, "--limit")
    x = _load_metric(args.x)
    y = _load_metric(args.y)
    if args.method == "exact" or (
        args.method == "auto" and x.n * y.n <= args.limit
    ):
        result = gh_exact(x, y, limit=args.limit)
    else:
        result = gh_branch_bound(x, y, budget=args.budget)

    def report() -> str:
        pairs = " ".join(f"({i},{j})" for i, j in result.upper_witness.pairs)
        cert = "" if args.certificate is None else f"certificate: {args.certificate}\n"
        return ("status: bounds-only (budget exhausted)\n" if result.exact is None
                else f"status: exact\nd_gh: {scalar_str(result.exact)}\n") + (
            f"lower: {scalar_str(result.lower)}\nupper: {scalar_str(result.upper)}\n"
            f"correspondence: {pairs}\nnodes: {result.nodes_explored}\n{cert}")

    outputs = [(None, report, (("dist-gh d_gh", result.exact), ("dist-gh lower", result.lower),
                               ("dist-gh upper", result.upper)))]
    if args.certificate is not None:  # written first: a failed write prints no answer
        outputs.insert(0, (args.certificate,
                           lambda: dumps_doc(gh_certificate_doc(result, x, y)),
                           _certificate_fields(args.certificate, result, x, y)))
    return _answer(0, *outputs)


@contextlib.contextmanager
def _naming(flag: str, path: str) -> Iterator[None]:
    """Name the field a deformation refuses: the points file for a set
    outside the window, ``flag`` for its parameters."""
    try:
        yield
    except InvariantError:
        raise
    except ValueError as exc:
        raise FormatError(path if "window" in str(exc) else flag, str(exc)) from None


def cmd_contract(args: argparse.Namespace) -> int:
    x, w = _points_in_window(args)
    lam = parse_scalar(args.lam, "--lam")
    with _naming("--lam", args.x):
        result = contract(x, lam, w)
    return _answer(0, (args.out, lambda: dumps_doc(format_space(result)), (
        (f"contract output.intervals[{k // 2}][{k % 2}]", Fraction(v, result.den))
        for k, v in enumerate(result.ints))))


def cmd_trace(args: argparse.Namespace) -> int:
    x, w = _points_in_window(args)
    grid = [parse_scalar(g, "--grid") for g in args.grid.split(",")]
    with _naming("--grid", args.x):
        tr = run_trace(x, w, grid)
    columns = ("lam", "f_lam", "d_H_to_window", "step_d_H", "certified_bound")
    return _answer(0, (args.out, lambda: trace_csv(tr), (
        (f"trace row {k}, column {name}", v)
        for k, row in enumerate(tr.rows, 1)
        for name, v in zip(columns, (row.lam, f_map(row.lam), row.d_to_window,
                                     row.step_d, row.certified_bound)))))


def cmd_verify(args: argparse.Namespace) -> int:
    if args.cases is not None and args.cases < 1:
        raise FormatError("--cases", "expected a positive number of cases")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    cfg = harness.GeneratorConfig(seed=args.seed)
    status = 0
    chunks = []
    for name in names:
        fn, default_cases, theorem_backed = SUITES[name]
        report = fn(cfg, cases=default_cases if args.cases is None else args.cases)
        chunks.append(report.render())
        if theorem_backed and not report.passed:
            status = 1
    # the drawn values are bounded, so every one prints
    return _answer(status, (args.out, lambda: "\n".join(chunks), ()))


def cmd_experiment(args: argparse.Namespace) -> int:
    _nonnegative(args.budget, "--budget")
    if args.name == "homothety":
        lam = parse_scalar(args.lam, "--lam")
        if lam < 1:
            raise FormatError("--lam", "expected a scaling factor of at least 1")
        if min(args.sizes) < 1:
            raise FormatError("--sizes", "expected positive sizes")
        table = harness.homothety_experiment(lam, args.sizes, budget=args.budget)
    else:
        factor = parse_scalar(args.factor, "--factor")
        if factor <= 0:
            raise FormatError("--factor", "expected a positive factor")
        _nonnegative(args.k, "--k")
        table = harness.geometric_progression_experiment(
            args.k, factor, budget=args.budget
        )
    columns = ("2dGH_lower", "2dGH_upper", "2dGH_exact")
    return _answer(0, (args.out, table.render, chain(
        ((f"experiment param {name}", v) for name, v in table.params),
        ((f"experiment row {k}, column {name}", v)
         for k, row in enumerate(table.rows, 1)
         for name, v in zip(columns, (row.lower_double, row.upper_double,
                                      row.exact_double))))))


def comma_separated_ints(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused after that.

    Rebuilding it on every `main` call leaves reference cycles behind, so an
    in-process caller's memory would creep up call after call.
    """
    parser = argparse.ArgumentParser(
        prog="netline",
        description="Exact Hausdorff/Gromov-Hausdorff geometry on the line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist-h", help="exact Hausdorff distance of two sets")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_dist_h)

    p = sub.add_parser("dist-gh", help="Gromov-Hausdorff distance with certificate")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--method", choices=("auto", "exact", "branch-bound"),
                   default="auto")
    p.add_argument("--limit", type=int, default=EXHAUSTIVE_LIMIT,
                   help="exhaustive feasibility threshold on |X|*|Y|")
    p.add_argument("--budget", type=int, default=None,
                   help="node budget for branch-and-bound")
    p.add_argument("--certificate", default=None,
                   help="write a re-verifiable certificate document here")
    p.set_defaults(fn=cmd_dist_gh)

    p = sub.add_parser("contract", help="deform a point set inside a window")
    p.add_argument("x")
    p.add_argument("--lam", required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_contract)

    p = sub.add_parser("trace", help="deformation trace along a parameter grid")
    p.add_argument("x")
    p.add_argument("--window", required=True)
    p.add_argument("--grid", required=True,
                   help="comma-separated ascending parameters, e.g. 0,1/4,1")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("verify", help="run a randomized certification suite")
    p.add_argument("suite", choices=tuple(SUITES) + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("experiment", help="run a trend experiment")
    p.add_argument("name", choices=("homothety", "geometric"))
    p.add_argument("--lam", default="3/2", help="homothety scaling factor")
    p.add_argument("--sizes", default="2,3,4,5,6,7,8",
                   type=comma_separated_ints,
                   help="homothety grid sizes, comma separated")
    p.add_argument("--factor", default="2", help="geometric progression factor")
    p.add_argument("--k", type=int, default=4, help="largest progression length")
    p.add_argument("--budget", type=int, default=50_000)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvariantError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
