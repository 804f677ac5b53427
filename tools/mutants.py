"""Rerun the mutation record: each catalogued mutant against its tests.

Usage: python tools/mutants.py [--root DIR] [ID ...]

Every entry of the catalogue, tools/mutants.json next to this file, holds an
"id", a "file" under the checkout, the exact "old" text to replace there
(it must occur once), the "new" text, a "select" list of test files or
node ids that should catch the change, the "expect"ed result, "killed" or
"equivalent" with the "reason" no test can tell, and a one-line "what".
Entries list test files, not -k expressions, so that the unmutated run
below can take the union of all selections.  Each mutant
is applied to a fresh temporary copy of the checkout's src/, tests/ and
pyproject.toml, never to the checkout itself, and its selection runs there
with -x.  The unmutated copy first runs every selection once, so a killed
mutant is one that turns a passing selection red.

A table goes to stdout.  The exit status is 1 when any entry ends other
than expected (a killed mutant survives, an equivalent one is killed, or
its old text no longer occurs exactly once), 2 when the unmutated copy
fails, and 0 otherwise.  The whole catalogue takes about a minute on a
2-core Xeon; it is not part of the tier-1 suite, and CI runs it on its
Python 3.11 entry only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT = 120  # seconds; all selections together take about 30 unmutated


def copy_checkout(root: Path, dest: Path) -> None:
    for name in COPIED:
        if (root / name).is_dir():
            shutil.copytree(root / name, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        else:
            shutil.copy2(root / name, dest / name)


def run_pytest(copy: Path, select: list[str]) -> int | None:
    """pytest's exit status, or None when it outlives TIMEOUT."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *select]
    try:
        return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def run_entry(root: Path, entry: dict) -> str:
    """killed, survived, stale (old text not there exactly once) or error; a
    selection that outlives TIMEOUT is a kill, as a hung suite fails its run."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        copy_checkout(root, copy)
        target = copy / entry["file"]
        text = target.read_text(encoding="utf-8")
        if text.count(entry["old"]) != 1:
            return "stale"
        target.write_text(text.replace(entry["old"], entry["new"]), encoding="utf-8")
        code = run_pytest(copy, entry["select"])
    if code is None:
        return "killed"
    return {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", help="entries to run (default: all)")
    parser.add_argument("--root", type=Path, default=HERE.parent,
                        help="checkout to mutate (default: this one)")
    args = parser.parse_args(argv)
    entries = json.loads((HERE / "mutants.json").read_text(encoding="utf-8"))
    if args.ids:
        unknown = set(args.ids) - {e["id"] for e in entries}
        if unknown:
            parser.error(f"unknown ids: {', '.join(sorted(unknown))}")
        entries = [e for e in entries if e["id"] in args.ids]
    root = args.root.resolve()

    start = time.perf_counter()
    selections = list(dict.fromkeys(a for e in entries for a in e["select"]))
    with tempfile.TemporaryDirectory(prefix="unmutated-") as tmp:
        copy_checkout(root, Path(tmp))
        code = run_pytest(Path(tmp), selections)
    if code != 0:
        print(f"the unmutated copy fails its selections (pytest exit {code})")
        return 2

    print("| id | file | expected | result | seconds | |")
    print("| --- | --- | --- | --- | --- | --- |")
    unexpected = 0
    for entry in entries:
        t0 = time.perf_counter()
        result = run_entry(root, entry)
        want = "killed" if entry["expect"] == "killed" else "survived"
        ok = result == want
        unexpected += not ok
        print(f"| {entry['id']} | {entry['file']} | {entry['expect']} | {result} "
              f"| {time.perf_counter() - t0:.1f} | {'ok' if ok else 'UNEXPECTED'} |",
              flush=True)
    print(f"{len(entries)} mutants, {unexpected} unexpected, "
          f"{time.perf_counter() - start:.0f} s in all")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
