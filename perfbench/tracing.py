"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of the package boundary:
every public function of the traced modules is replaced, in each
``pmlstrip`` namespace that binds it (``pmlstrip.timedomain.assemble``
and ``pmlstrip.fem.assemble`` are the same object), by a wrapper that
records one span per call.  The package source is not touched, and
``Tracer.restore`` puts the original objects back.

The process is single-threaded, so spans nest strictly: a span's
children are the calls made while it is open, and its self time is its
duration minus the summed durations of its direct children.  Nothing
waits in a queue, so there is no waiting time to report.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass, field

TRACED_MODULES = ("mesh", "fem", "timedomain", "xform", "symbols", "cli",
                  "config")
# private functions traced because a per-layer metric names them
TRACED_PRIVATE = ("cli._time_route_errors",)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1            # index of the enclosing span, -1 at top
    run: int = 0                # repetition the span belongs to
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _csv_counts(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    rows = kwargs.get("rows", args[2] if len(args) > 2 else ())
    return {"rows": len(rows), "bytes": os.path.getsize(path)}


# counts recorded at a layer boundary, from the call's arguments/result
COUNTERS = {
    "mesh.build_mesh": lambda a, k, r: {"n_vertices": r.n_vertices},
    "fem.build_blocks": lambda a, k, r: {"n_dofs": r.dof.size},
    "fem.assemble": lambda a, k, r: {"nnz": r.matrix.nnz},
    "xform.laplace_grid": lambda a, k, r: {
        "points": len(k.get("s2", a[2] if len(a) > 2 else ()))
        * len(k.get("sig", a[0]).t)},
    "cli.write_csv": _csv_counts,
}


class Tracer:
    """In-memory span store plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self.captured: dict[str, list] = {}   # name -> [(span, bound args)]
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, capture):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if capture else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, run=self.run,
                        parent=self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            if capture:
                self.captured.setdefault(name, []).append(
                    (span, signature.bind(*args, **kwargs)))
            return result

        return traced

    def install(self, package, capture=()):
        """Wrap the traced functions of ``package`` in every submodule
        namespace that binds them.  Calls to the names in ``capture``
        also keep their bound arguments for a later replay."""
        originals = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{package.__name__}.{short}"]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and (not attr.startswith("_")
                             or name in TRACED_PRIVATE):
                    originals[id(obj)] = (name, obj)
        wrappers = {key: self._wrap(name, fn, name in capture)
                    for key, (name, fn) in originals.items()}
        prefix = package.__name__ + "."
        for modname, mod in list(sys.modules.items()):
            if modname != package.__name__ and not modname.startswith(prefix):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and originals[id(obj)][1] is obj:
                    setattr(mod, attr, wrappers[id(obj)])
                    self._patched.append((mod, attr, obj))
        return {name: fn for name, fn in originals.values()}

    def restore(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def summary(self, run: int) -> dict:
        """Per span name for one repetition: calls, busy and self time,
        individual durations and summed counts."""
        out: dict[str, dict] = {}
        own = self.self_times()
        for s, self_s in zip(self.spans, own):
            if s.run != run:
                continue
            rec = out.setdefault(s.name, {"calls": 0, "s": 0.0,
                                          "self_s": 0.0, "durations": [],
                                          "counts": {}, "max": {}})
            rec["calls"] += 1
            rec["s"] += s.duration
            rec["self_s"] += self_s
            rec["durations"].append(s.duration)
            for key, val in s.counts.items():
                rec["counts"][key] = rec["counts"].get(key, 0) + val
                rec["max"][key] = max(rec["max"].get(key, val), val)
        return out

    def dump(self, path: str, meta: dict) -> None:
        """Write every span once, at the end of the traced run, as rows
        [name index, start, end, parent, run, counts]."""
        names = sorted({s.name for s in self.spans})
        index = {name: k for k, name in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": names,
                       "columns": ["name", "start", "end", "parent", "run",
                                   "counts"],
                       "spans": [[index[s.name], s.start, s.end, s.parent,
                                  s.run, s.counts] for s in self.spans]},
                      fh, separators=(",", ":"))
