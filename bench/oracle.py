"""Independent checks of every answer the benchmark gets back.

Nothing here calls the code under test to produce an expected value, with
two deliberate exceptions the workloads call for: small exhaustive GH
answers are compared with `gh_branch_bound` (two independent solvers must
agree), and certificates are re-checked with `verify_gh_certificate` on
top of this module's own distortion recomputation.

Each check returns None when the answer is right, or a one-line reason.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

Spans = list[tuple[Fraction, Fraction]]


def _dist_to(x: Fraction, starts: list[Fraction], spans: Spans) -> Fraction:
    k = bisect_right(starts, x)
    best = None
    if k:
        hi = spans[k - 1][1]
        best = x - hi if x > hi else Fraction(0)
    if k < len(spans):
        right = spans[k][0] - x
        best = right if best is None or right < best else best
    return best


def _directed(src: Spans, dst: Spans) -> Fraction:
    """sup over src of the distance to dst; attained at an endpoint of src
    or at the midpoint of a gap of dst that lies inside src."""
    starts = [a for a, _ in dst]
    src_starts = [a for a, _ in src]
    critical = [v for span in src for v in span]
    for (_, b0), (a1, _) in zip(dst, dst[1:]):
        mid = (b0 + a1) / 2
        k = bisect_right(src_starts, mid)
        if k and mid <= src[k - 1][1]:
            critical.append(mid)
    return max(_dist_to(x, starts, dst) for x in critical)


def hausdorff(a: Spans, b: Spans) -> Fraction:
    return max(_directed(a, b), _directed(b, a))


def check_dist_h(check: dict, out: str) -> str | None:
    want = hausdorff(check["a"], check["b"])
    if out != f"{want}\n":
        return f"dist-h printed {out.strip()!r}, oracle says {want}"
    return None


def _contract(x: list[Fraction], lam: Fraction, lo: Fraction, hi: Fraction) -> Spans:
    if lam == 1:
        return [(lo, hi)]
    r = lam / (1 - lam)
    merged: Spans = []
    for p in x:
        a, b = max(p - r, lo), min(p + r, hi)
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return merged


def _dec(v) -> str:
    return "inf" if v == math.inf else f"{float(v):.12g}"


def expected_trace_csv(check: dict) -> str:
    lo, hi = check["lo"], check["hi"]
    lines = ["lam,f_lam,num_intervals,d_H_to_window,step_d_H,certified_bound,"
             "lam_dec,d_H_to_window_dec,step_d_H_dec"]
    prev = None
    prev_f = Fraction(0)
    for text in check["grid"].split(","):
        lam = Fraction(text)
        space = _contract(check["x"], lam, lo, hi)
        f = math.inf if lam == 1 else lam / (1 - lam)
        to_window = hausdorff(space, [(lo, hi)])
        if prev is None:
            step, bound = Fraction(0), Fraction(0)
        else:
            step = hausdorff(space, prev)
            if prev_f == math.inf:
                bound = Fraction(0) if f == math.inf else math.inf
            else:
                bound = math.inf if f == math.inf else abs(f - prev_f)
        cells = [str(lam), "inf" if f == math.inf else str(f), str(len(space)),
                 str(to_window), str(step),
                 "inf" if bound == math.inf else str(bound),
                 _dec(lam), _dec(to_window), _dec(step)]
        lines.append(",".join(cells))
        prev, prev_f = space, f
    return "\n".join(lines) + "\n"


def check_trace(check: dict, out: str) -> str | None:
    want = expected_trace_csv(check)
    if out != want:
        got, exp = out.splitlines(), want.splitlines()
        bad = next((i for i, (g, e) in enumerate(zip(got, exp)) if g != e),
                   min(len(got), len(exp)))
        return f"trace CSV differs from oracle at line {bad}"
    return None


def fields(out: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)


def _pairs(text: str) -> list[tuple[int, int]]:
    return [tuple(int(v) for v in p.strip("()").split(",")) for p in text.split()]


def _distortion(pairs, dx, dy) -> Fraction:
    return max(abs(dx[i][i2] - dy[j][j2]) for i, j in pairs for i2, j2 in pairs)


def _covers(pairs, n: int, m: int) -> bool:
    return ({i for i, _ in pairs} == set(range(n))
            and {j for _, j in pairs} == set(range(m)))


def _diam(rows) -> Fraction:
    return max(max(row) for row in rows)


def _line_rows(coords):
    return [[abs(p - q) for q in coords] for p in coords]


def check_gh_exact(check: dict, out: str) -> str | None:
    from netline.formats import parse_metric_space
    from netline.solver import gh_branch_bound

    dx, dy = check["x"], check["y"]
    f = fields(out)
    if f.get("status") != "exact":
        return f"exact method reported status {f.get('status')!r}"
    d = Fraction(f["d_gh"])
    if not Fraction(f["lower"]) == d == Fraction(f["upper"]):
        return "exact answer does not pinch lower and upper"
    pairs = _pairs(f["correspondence"])
    if not _covers(pairs, len(dx), len(dy)):
        return "printed correspondence is not a correspondence"
    if _distortion(pairs, dx, dy) != 2 * d:
        return "printed correspondence does not realize 2 * d_gh"
    x, y = parse_metric_space(check["xdoc"]), parse_metric_space(check["ydoc"])
    other = gh_branch_bound(x, y).exact
    if other != d:
        return f"gh_exact says {d}, gh_branch_bound says {other}"
    return None


def check_gh_bb(check: dict, out: str) -> str | None:
    from netline.formats import verify_gh_certificate

    xs, ys = check["x"], check["y"]
    dx, dy = _line_rows(xs), _line_rows(ys)
    f = fields(out)
    lower, upper = Fraction(f["lower"]), Fraction(f["upper"])
    doc = json.loads(Path(check["certificate"]).read_text(encoding="utf-8"))
    if doc["x"]["coords"] != [str(v) for v in xs] or doc["y"]["coords"] != [str(v) for v in ys]:
        return "certificate does not embed the input spaces"
    if (doc["lower"], doc["upper"]) != (f["lower"], f["upper"]):
        return "certificate bounds differ from the printed bounds"
    if not verify_gh_certificate(doc):
        return "verify_gh_certificate rejected the certificate"
    pairs = [tuple(p) for p in doc["correspondence"]]
    if not _covers(pairs, len(xs), len(ys)) or _distortion(pairs, dx, dy) != 2 * upper:
        return "certificate correspondence does not realize 2 * upper"
    dmx, dmy = _diam(dx), _diam(dy)
    if not abs(dmx - dmy) / 2 <= lower <= upper <= max(dmx, dmy) / 2:
        return f"bounds {lower}..{upper} break the diameter sandwich"
    if int(f["nodes"]) > check["budget"] + 1:
        return f"{f['nodes']} nodes exceed the budget {check['budget']}"
    exact = f.get("status") == "exact"
    if exact != (lower == upper == Fraction(f.get("d_gh", "-1"))):
        return "status disagrees with the printed bounds"
    return None


def check_verify(check: dict, out: str) -> str | None:
    f = fields(out)
    if f.get("failures") != "0":
        return f"suite reported failures: {f.get('failures')}"
    if (f.get("seed"), f.get("cases")) != (str(check["seed"]), str(check["cases"])):
        return "suite report names another seed or case count"
    return None


CHECKS = {
    "dist-h": check_dist_h,
    "trace": check_trace,
    "dist-gh-exact": check_gh_exact,
    "dist-gh-bb": check_gh_bb,
    "verify": check_verify,
}


def check(op, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit status {code}"
    try:
        return CHECKS[op.kind](op.check, out)
    except (KeyError, ValueError, TypeError, ZeroDivisionError, OSError) as exc:
        return f"unreadable answer: {exc!r}"
