"""Seeded, closed-loop benchmark of the netline command line.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in this process runs operations back to back: each operation is
one `netline.cli.main(argv)` call with stdout and stderr captured, so the
command-line parsing, document formats and output formatting sit on the
path as they do for a user.  No threads or subprocesses run while timing.

With --trace 0 the timed phase runs whole passes over the workload's
operations, at least one and until S seconds have passed, then stops at the
next operation boundary.  Set-up time is the median of several cold
interpreter starts that import the command line and parse every input
document.  Branch-and-bound bound quality comes from a fixed instance set,
run untimed after the timed phase.  Every reported time is scaled to
reference machine speed (bench/refclock.py).  With --trace 1 one untraced and one traced pass run
over the same operations and only per-layer metrics are reported; the spans
are written to bench/_work/spans/.

Every first answer is checked by an independent oracle (bench/oracle.py);
every repeat must be byte-identical to the first.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
COLD_STARTS = 15
COLD_START_SECONDS = 3.0

sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import refclock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BB_QUALITY_REPS, BB_QUALITY_SEED, GENERATORS, WORKLOADS, DocWriter, branch_bound_ops)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "op_samples": "count",
    "peak_rss_mib": "MiB",
    "ok_frac": "frac",
    "bb_gap": "dist",
    "bb_closed_frac": "frac",
}

FUNCTIONS = [
    "cli.main", "formats.parse", "formats.gh_certificate_doc",
    "geometry.hausdorff", "geometry.thicken", "geometry.sample",
    "homotopy.contract", "homotopy.trace",
    "correspondence.from_line", "correspondence.distortion",
    "correspondence.scaled_int_matrices",
    "solver.gh_branch_bound", "solver.gh_exact",
    "constructions.segment_correspondence", "constructions.extend_correspondence",
    "ordering.check_order_preservation", "ordering.order_violation_bound",
] + [f"harness.{suite}" for suite in (
    "ultrametric-h", "ultrametric-gh", "bounded-cloud", "continuity",
    "stability", "order-lemmas", "construction-bounds", "lambda-hits")]
# per-function quantities beyond self time: (quantity, unit)
EXTRA = {
    "geometry.hausdorff": [("calls", "count"), ("points_in", "count")],
    "correspondence.from_line": [("calls", "count"), ("entries", "count")],
    "correspondence.distortion": [("calls", "count"), ("pair_checks", "count")],
    "solver.gh_branch_bound": [("calls", "count"), ("nodes", "count"),
                               ("nodes_per_s", "1/s"), ("truncated", "count")],
    "solver.gh_exact": [("calls", "count"), ("nodes", "count")],
}
PER_LAYER = {f"{fn}.self_s": "s" for fn in FUNCTIONS}
PER_LAYER.update({f"{fn}.{q}": unit for fn, extra in EXTRA.items() for q, unit in extra})
PER_LAYER.update({"trace.overhead_frac": "frac", "trace.traced_pass_s": "s"})


class Ledger:
    """Per-operation answers and failures for one run."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.first: dict[int, tuple[int, str, str]] = {}
        self.attempts = [0] * len(ops)
        self.mismatches = [0] * len(ops)

    def record(self, k: int, code: int, out: str, err: str) -> None:
        self.attempts[k] += 1
        if k not in self.first:
            self.first[k] = (code, out, err)
        elif self.first[k][:2] != (code, out):
            self.mismatches[k] += 1

    def judge(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, reasons): a wrong first answer fails every
        attempt of that operation; otherwise each differing repeat fails."""
        failed, reasons = 0, []
        for k, (code, out, err) in sorted(self.first.items()):
            reason = oracle.check(self.ops[k], code, out)
            if reason is not None:
                failed += self.attempts[k]
            elif self.mismatches[k]:
                reason = "repeat answers differ from the first"
                failed += self.mismatches[k]
            else:
                continue
            detail = f" ({err.strip().splitlines()[-1]})" if err.strip() else ""
            reasons.append(f"{' '.join(self.ops[k].argv[:2])}: {reason}{detail}")
        return sum(self.attempts), failed, reasons


def call(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # counted as a failed operation; the run goes on
            code = -1
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_ops(cli, ops, ledger: Ledger, seconds: float = 0.0,
            tracer: Tracer | None = None) -> list[list[float]]:
    """Whole passes over ops until `seconds` have passed, stopping at an op
    boundary.  Returns, per op, its latencies at reference speed."""
    latencies: list[list[float]] = [[] for _ in ops]
    t0 = perf_counter()
    i = 0
    with refclock.SpeedProbe() as probe:
        while i < len(ops) or perf_counter() - t0 < seconds:
            k = i % len(ops)
            if tracer is not None:
                tracer.op = k
            answer, _, scaled = probe.measure(lambda: call(cli, ops[k].argv))
            ledger.record(k, *answer)
            latencies[k].append(scaled)
            i += 1
    return latencies


def cold_start_seconds(listing: Path, starts: int, min_seconds: float) -> float:
    """Median cold start at reference speed, over at least `starts` starts
    and at least `min_seconds` of starting."""
    cmd = [sys.executable, str(HERE / "coldstart.py"), str(SRC), str(listing)]
    probe = refclock.SpeedProbe()
    times = []
    t0 = perf_counter()
    while len(times) < starts or perf_counter() - t0 < min_seconds:
        times.append(probe.measure(lambda: subprocess.run(cmd, check=True))[2])
    return statistics.median(times)


def doc_listing(ops, docs: DocWriter, path: Path) -> Path:
    written = set(docs.paths)
    lines = [f"{'metric' if op.argv[0] == 'dist-gh' else 'space'} {arg}"
             for op in ops for arg in op.argv if arg in written]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def bb_quality(ops, ledger: Ledger) -> tuple[float, float]:
    """Mean upper - lower and share proved exact, over the budgeted B&B ops."""
    gaps, closed = [], 0
    for k, op in enumerate(ops):
        if op.kind != "dist-gh-bb" or k not in ledger.first:
            continue
        fields = oracle.fields(ledger.first[k][1])
        try:
            gaps.append(Fraction(fields["upper"]) - Fraction(fields["lower"]))
        except (KeyError, ValueError):
            continue
        closed += fields.get("status") == "exact"
    if not gaps:
        return 0.0, 0.0
    return float(sum(gaps) / len(gaps)), closed / len(gaps)


def warm_up(cli, ops) -> None:
    """One operation of each kind, untimed: lazy imports finish first."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            call(cli, op.argv)


def measure(workload: str, seed: int, seconds: float, tiny: bool,
            run_dir: Path) -> tuple[dict, int, int, list[str]]:
    import netline.cli as cli

    docs = DocWriter(run_dir / "docs")
    ops = GENERATORS[workload](seed, docs, tiny)
    listing = doc_listing(ops, docs, run_dir / "docs.txt")
    if tiny:
        setup_s = cold_start_seconds(listing, 3, 0.0)
    else:
        setup_s = cold_start_seconds(listing, COLD_STARTS, COLD_START_SECONDS)
    warm_up(cli, ops)

    ledger = Ledger(ops)
    latencies = run_ops(cli, ops, ledger, seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, reasons = ledger.judge()

    # bound quality on a fixed instance set, the same for every seed, so
    # bb_gap and bb_closed_frac repeat exactly from run to run
    quality = branch_bound_ops(BB_QUALITY_SEED, DocWriter(run_dir / "bb"), tiny,
                               BB_QUALITY_REPS)
    qledger = Ledger(quality)
    run_ops(cli, quality, qledger)
    gap, closed = bb_quality(quality, qledger)
    q_attempted, q_failed, q_reasons = qledger.judge()
    attempted, failed = attempted + q_attempted, failed + q_failed
    reasons += q_reasons

    # percentiles over one latency per distinct op, the median of its
    # repeats, so every run describes the same mix however many partial
    # passes it made
    per_op = [statistics.median(times) for times in latencies]
    timed = sum(len(times) for times in latencies)
    values = {
        "setup_s": setup_s,
        "ops_per_s": timed / sum(sum(times) for times in latencies),
        "op_p50_ms": statistics.median(per_op) * 1000,
        "op_p90_ms": statistics.quantiles(per_op, n=10)[8] * 1000,
        "op_samples": len(per_op),
        "peak_rss_mib": peak_rss_mib,
        "ok_frac": 1 - failed / attempted,
        "bb_gap": gap,
        "bb_closed_frac": closed,
    }
    print(f"{workload} seed {seed}: {timed} timed ops, "
          f"{timed / len(ops):.2f} passes of {len(ops)}", file=sys.stderr)
    return ({k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
            attempted, failed, reasons)


def measure_traced(workload: str, seed: int, tiny: bool,
                   run_dir: Path) -> tuple[dict, int, int, list[str]]:
    import netline.cli as cli

    ops = GENERATORS[workload](seed, DocWriter(run_dir / "docs"), tiny)
    warm_up(cli, ops)
    ledger = Ledger(ops)
    untraced = run_ops(cli, ops, ledger)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_ops(cli, ops, ledger, tracer=tracer)
    finally:
        tracer.uninstall()
    attempted, failed, reasons = ledger.judge()
    tracer.dump(WORK / "spans" / f"{workload}-{seed}.json",
                {"workload": workload, "seed": seed, "ops": [op.argv for op in ops]})

    # span times are wall-clock; scale them by the traced pass's ratio of
    # reference-speed time to the wall-clock time its cli.main spans cover
    traced_s = sum(sum(times) for times in traced)
    scale = traced_s / tracer.stats["cli.main"].total_s
    values: dict[str, float] = {}
    for fn in FUNCTIONS:
        stat = tracer.stats[fn]
        values[f"{fn}.self_s"] = stat.self_s * scale
        for quantity, _ in EXTRA.get(fn, ()):
            if quantity == "calls":
                values[f"{fn}.calls"] = stat.calls
            elif quantity == "nodes_per_s":
                search_s = stat.total_s * scale
                values[f"{fn}.nodes_per_s"] = stat.counts.get("nodes", 0) / search_s if search_s else 0.0
            else:
                values[f"{fn}.{quantity}"] = stat.counts.get(quantity, 0)
    values["trace.overhead_frac"] = traced_s / sum(sum(times) for times in untraced) - 1
    values["trace.traced_pass_s"] = traced_s
    return ({k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()},
            attempted, failed, reasons)


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    run_dir = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        if trace:
            metrics, attempted, failed, reasons = measure_traced(
                workload, seed, tiny, run_dir)
        else:
            metrics, attempted, failed, reasons = measure(
                workload, seed, seconds, tiny, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for reason in reasons[:10]:
        print(f"wrong answer: {reason}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "netline" / "cli.py").is_file():
        print(f"error: netline sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
