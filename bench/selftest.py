"""Self-tests of the benchmark itself.

Usage: python3 bench/selftest.py

1. Smoke: every workload at the tiny scale, untraced and traced; every
   metric named in BENCHMARK.json appears with its unit and nothing else,
   every answer is correct, and no end-to-end metric reads 0.
2. Negative control: with a deliberately wrong answer patched into the
   program, each workload reports failed > 0 and ok_frac < 1.
3. Bare directory: with only BENCHMARK.json and bench/ present, run.py
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, str(run.SRC))


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {message}")


def smoke() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads differ from bench/workloads.py")
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace, want in wanted.items():
            result = run.run(workload, 1, 0.2, trace, tiny=True)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload} trace={trace}: {result['failed']} wrong answers")
            if not trace:
                zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
                expect(not zero, f"{workload}: end-to-end metrics read 0: {zero}")
            print(f"PASS smoke {workload} trace={int(trace)}: {len(got)} metrics")


def _halve_scale(orig):
    def faulty(x, y):
        den, dx, dy = orig(x, y)
        return 2 * den, dx, dy
    return faulty


# one wrong answer per workload, each on a path that workload's oracle covers
FAULTS = {
    "hausdorff-sweep": ("netline.geometry", "hausdorff",
                        lambda orig: lambda a, b: orig(a, b) + Fraction(1, 997)),
    "gh-solve": ("netline.solver", "scaled_int_matrices", _halve_scale),
    "certify-suites": ("netline.harness", "covering_radius",
                       lambda orig: lambda a, w: Fraction(0)),
}


def negative_control() -> None:
    for workload, (module_name, attr, make) in FAULTS.items():
        __import__(module_name)
        module = sys.modules[module_name]
        orig = getattr(module, attr)
        setattr(module, attr, make(orig))
        try:
            result = run.run(workload, 1, 0.2, False, tiny=True)
        finally:
            setattr(module, attr, orig)
        ok_frac = result["metrics"]["ok_frac"]["value"]
        expect(result["failed"] > 0 and not result["correct"] and ok_frac < 1,
               f"{workload}: a wrong {attr} went unnoticed")
        print(f"PASS negative control {workload}: {result['failed']} of "
              f"{result['attempted']} failed, ok_frac {ok_frac:.3f}")


def bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"PASS bare directory: exit {proc.returncode}")


if __name__ == "__main__":
    smoke()
    negative_control()
    bare_directory()
