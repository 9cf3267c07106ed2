"""Trace shim: spans and counters at predprey's module boundaries.

The shim rebinds public names where callers look them up (module globals),
so the package itself is not edited and nothing inside a function body is
traced.  A span records (name, start, end, parent, task id); spans stay in
memory and are written once, at the end of the run.  Factories whose
products run in hot loops (the field closures of make_rhs / make_u_rhs and
the scan function F) are not spanned; their products count their calls.

Span names are "<layer>.<operation>"; the layer is the predprey module.
"""
from __future__ import annotations

import csv
import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  `predprey.integrate` the package attribute
# is the integrate() function, so modules are always taken from sys.modules.
SPANS = [
    ("predprey.cli", "main", "cli.main"),
    ("predprey.cli", "load_config", "config.load"),
    ("predprey.cli", "integrate", "integrate.integrate"),
    ("predprey.cli", "integrate_u_system", "integrate.u_system"),
    ("predprey.cli", "interior_equilibria", "equilibria.interior"),
    ("predprey.cli", "trivial_equilibrium", "equilibria.axis"),
    ("predprey.cli", "predator_free_equilibrium", "equilibria.axis"),
    ("predprey.cli", "extinction_ic_condition", "extinction.criterion"),
    ("predprey.cli", "refuge_threshold", "extinction.refuge"),
    ("predprey.cli", "dissipative_bound_K2", "extinction.bounds"),
    ("predprey.cli", "verify_assumptions", "model.audit"),
    ("predprey.cli", "branch_sweep", "bifurcation.sweep"),
    ("predprey.cli", "detect_saddle_node", "bifurcation.detect"),
    ("predprey.cli", "detect_hopf", "bifurcation.detect"),
    ("predprey.cli", "detect_transcritical", "bifurcation.detect"),
    ("predprey.cli", "trace_stable_separatrix_E0", "geometry.separatrix"),
    ("predprey.cli", "trace_unstable_manifold_E1", "geometry.manifold"),
    ("predprey.cli", "separatrix_relative_position", "geometry.compare"),
    ("predprey.csvio", "write_trajectory", "csvio.write"),
    ("predprey.csvio", "write_curve", "csvio.write"),
    ("predprey.csvio", "write_equilibria", "csvio.write"),
    ("predprey.csvio", "write_branch", "csvio.write"),
    ("predprey.csvio", "write_events", "csvio.write"),
    ("predprey.csvio", "write_report", "csvio.write"),
    ("predprey.geometry", "integrate", "integrate.integrate"),
    ("predprey.geometry", "separatrix_boundary_x2", "geometry.probe"),
    ("predprey.geometry", "trace_unstable_manifold_E1", "geometry.manifold"),
    ("predprey.geometry", "separatrix_relative_position", "geometry.compare"),
    ("predprey.bifurcation", "interior_equilibria", "equilibria.interior"),
    ("predprey.bifurcation", "branch_sweep", "bifurcation.sweep"),
    ("predprey.bifurcation", "detect_saddle_node", "bifurcation.detect"),
    ("predprey.bifurcation", "detect_hopf", "bifurcation.detect"),
    ("predprey.bifurcation", "detect_transcritical", "bifurcation.detect"),
    ("predprey.bifurcation", "hopf_a1_fixed_point", "bifurcation.detect"),
]

# (module, factory attribute, counter): every call of the product counts.
COUNTED = [
    ("predprey.integrate", "make_rhs", "rhs.integrate"),
    ("predprey.integrate", "make_u_rhs", "rhs.integrate"),
    ("predprey.geometry", "make_rhs", "rhs.geometry"),
    ("predprey.equilibria", "make_rhs", "rhs.equilibria"),
    ("predprey.bifurcation", "make_rhs", "rhs.bifurcation"),
    ("predprey.equilibria", "interior_scan_function", "F"),
    ("predprey.bifurcation", "interior_scan_function", "F"),
]

NAME, START, END, PARENT, TASK = range(5)


class Tracer:
    """Installs the shim on construction; uninstall() restores every name."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.task = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        for mod, attr, name in SPANS:
            self._patch(mod, attr, self._spanned(getattr(sys.modules[mod], attr), name))
        for mod, attr, key in COUNTED:
            self._patch(mod, attr, self._counting(getattr(sys.modules[mod], attr), key))

    def _patch(self, mod: str, attr: str, new) -> None:
        module = sys.modules[mod]
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()

    def _spanned(self, fn, name: str):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            i = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task]
            spans.append(span)
            stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                span[START] = t0
                stack.pop()
            if name.startswith("integrate."):
                counts["steps"] += len(out) - 1
            elif name == "equilibria.interior":
                counts["roots"] += len(out)
            elif name == "bifurcation.detect":
                counts["events"] += len(out) if isinstance(out, list) else 1
            elif name == "csvio.write":
                counts["bytes"] += os.path.getsize(args[1])
            return out

        return wrapper

    def _counting(self, factory, key: str):
        counts = self.counts

        def make(*args, **kwargs):
            f = factory(*args, **kwargs)

            def counted(*xs):
                counts[key] += 1
                return f(*xs)

            return counted

        return make

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time (duration minus children's durations) and count per
        span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self_t: dict[str, float] = defaultdict(float)
        n: dict[str, int] = defaultdict(int)
        for s, c in zip(self.spans, child):
            self_t[s[NAME]] += s[END] - s[START] - c
            n[s[NAME]] += 1
        return self_t, n

    def children_named(self, parent_prefix: str, name: str) -> int:
        """Spans called `name` whose parent's name starts with parent_prefix."""
        sp = self.spans
        return sum(1 for s in sp if s[NAME] == name and s[PARENT] >= 0
                   and sp[s[PARENT]][NAME].startswith(parent_prefix))

    def write(self, path: str, header: dict[str, str]) -> None:
        with open(path, "w", newline="") as fh:
            for k, v in header.items():
                fh.write(f"# {k}: {v}\n")
            w = csv.writer(fh)
            w.writerow(("name", "start_s", "end_s", "parent", "task"))
            t0 = self.spans[0][START] if self.spans else 0.0
            for s in self.spans:
                w.writerow((s[NAME], f"{s[START] - t0:.9f}", f"{s[END] - t0:.9f}",
                            s[PARENT], s[TASK]))
