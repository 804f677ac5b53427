"""Steadiness check: run workloads repeatedly and summarise every metric.

Usage:
    python3 bench/steady.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                            [--trace 0|1]

Each run is `python3 bench/run.py` in a fresh interpreter, one after the
other.  For each workload and metric this prints the median, the first and
third quartiles (`statistics.quantiles(values, n=4)`), the spread
(q3 - q1) / median, and the metric's bound from BENCHMARK.json; "steady"
means the spread is below a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    status = 0
    for workload in args.workloads.split(","):
        runs, walls = [], []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed\n{proc.stderr}")
                status = 1
            runs.append(result)
        if len(runs) < 2:
            continue
        print(f"\n{workload}: {len(runs)} runs, {statistics.mean(walls):.1f} s wall each")
        print(f"  {'metric':<44}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else ("steady" if spread < bound / 3 else
                                             "WITHIN" if spread <= bound else "WIDE")
            print(f"  {name + ' [' + first['unit'] + ']':<44}{med:>14.6g}{q1:>14.6g}"
                  f"{q3:>14.6g}{spread:>9.3f}{'' if bound is None else bound:>7} {flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
