"""Spans around the public functions of every netline module.

The tracer wraps each traced function once and installs the wrapper under
every name that binds it in a netline module (so `from .geometry import
hausdorff` in `homotopy`, `harness` and `cli` is caught as well), in the
`cli.SUITES` table, and, for `from_line`, on the class itself.  Nothing in
`src/netline` changes; `uninstall` puts every original back.

Each span records its name, the operation it belongs to, its parent span,
start and end.  Self time is a span's duration minus the time covered by
its child spans.  Spans stay in memory until `dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from time import perf_counter


# (module, attribute, span name, counts taken from (args, result))
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("formats", "loads_space", "formats.parse", None),
    ("formats", "parse_metric_space", "formats.parse", None),
    ("formats", "gh_certificate_doc", "formats.gh_certificate_doc", None),
    ("geometry", "hausdorff", "geometry.hausdorff",
     lambda args, res: {"points_in": len(args[0]) + len(args[1])}),
    ("geometry", "thicken", "geometry.thicken", None),
    ("geometry", "sample", "geometry.sample", None),
    ("homotopy", "contract", "homotopy.contract", None),
    ("homotopy", "trace", "homotopy.trace", None),
    ("correspondence", "distortion", "correspondence.distortion",
     lambda args, res: {"pair_checks": len(args[0].pairs) * (len(args[0].pairs) + 1) // 2}),
    ("correspondence", "scaled_int_matrices", "correspondence.scaled_int_matrices", None),
    ("solver", "gh_branch_bound", "solver.gh_branch_bound",
     lambda args, res: {"nodes": res.nodes_explored, "truncated": int(res.exact is None)}),
    ("solver", "gh_exact", "solver.gh_exact",
     lambda args, res: {"nodes": res.nodes_explored}),
    ("constructions", "segment_correspondence", "constructions.segment_correspondence", None),
    ("constructions", "extend_correspondence", "constructions.extend_correspondence", None),
    ("ordering", "check_order_preservation", "ordering.check_order_preservation", None),
    ("ordering", "order_violation_bound", "ordering.order_violation_bound", None),
]
FROM_LINE = ("correspondence.from_line", lambda args, res: {"entries": res.n ** 2})


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.counts: dict[str, int] = {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self.stats: dict[str, Stat] = {}
        self.op = -1
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        stack, spans = self._stack, self.spans
        stat = self.stats.setdefault(name, Stat())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(spans), perf_counter(), 0.0]
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                spans[frame[0]] = (frame[0], parent, self.op, name, frame[1], end)
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[2]
            if count is not None:
                for key, value in count(args, result).items():
                    stat.counts[key] = stat.counts.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        import netline.cli as cli
        import netline.correspondence as corr

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "netline" or name.startswith("netline."))]
        for module, attr, name, count in TARGETS:
            orig = getattr(sys.modules[f"netline.{module}"], attr)
            wrapper = self.wrap(name, orig, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for suite, (fn, cases, backed) in list(cli.SUITES.items()):
            self._restore.append((cli.SUITES, suite, (fn, cases, backed)))
            cli.SUITES[suite] = (self.wrap(f"harness.{suite}", fn), cases, backed)
        cls = corr.FiniteMetricSpace
        orig = cls.__dict__["from_line"]
        self._restore.append((cls, "from_line", orig))
        name, count = FROM_LINE
        cls.from_line = classmethod(self.wrap(name, orig.__func__, count))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    def dump(self, path: Path, meta: dict) -> None:
        t0 = min((s[4] for s in self.spans), default=0.0)
        rows = [[i, parent, op, name, round(start - t0, 9), round(end - t0, 9)]
                for i, parent, op, name, start, end in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "columns": [
            "id", "parent", "op", "name", "start_s", "end_s"], "spans": rows}),
            encoding="utf-8")
