"""Spans around qharm's public functions, recorded from outside the library.

``Tracer.install`` replaces each boundary function with a wrapper in every
qharm module that holds it: the defining module, the package namespace and
the copies other modules import (``qharm.verify.class_transform``,
``qharm.classes.q_integer_pow``), so calls between layers are seen too.
Wrappers record only inside an op (``Tracer.op``), so the benchmark's own
checks between ops stay untraced.

Each span is (name, start_ns, end_ns, parent span, op id), timed by the
wall clock ``time.perf_counter_ns`` (the thread CPU clock is a system call,
too costly per weight call); spans stay in memory and are written out by
``Tracer.dump``.  The weight layer
(``q_integer`` + ``q_integer_pow``) is called hundreds of times per op, so it
keeps only a call count and summed time, charged to the enclosing span.
A span's self time is its duration minus its children's and its weight time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("qharm", "qharm.qcore", "qharm.series", "qharm.salagean", "qharm.classes", "qharm.verify", "qharm.cli")

WEIGHT = "qcore.weight"
OP = "op"  # the benchmark's own work inside an op
BOUNDARIES = {
    WEIGHT: ("qcore.q_integer", "qcore.q_integer_pow"),
    "series.harmonic_from_json": ("series.harmonic_from_json",),
    "series.harmonic_to_json": ("series.harmonic_to_json",),
    "salagean.class_transform": ("salagean.class_transform",),
    "salagean.salagean_harmonic": ("salagean.salagean_harmonic",),
    "classes.coeff_functional": ("classes.coeff_functional",),
    "classes.satisfies_sufficient": ("classes.satisfies_sufficient",),
    "classes.member_t_iff": ("classes.member_t_iff",),
    "classes.construct": ("classes.extreme_point", "classes.convex_combination", "classes.sharpness_witness"),
    "classes.growth_bounds": ("classes.growth_bounds",),
    "verify.re_condition_margin": ("verify.re_condition_margin",),
    "verify.sense_preserving_margin": ("verify.sense_preserving_margin",),
    "verify.injectivity_sample_check": ("verify.injectivity_sample_check",),
    "verify.growth_bound_check": ("verify.growth_bound_check",),
    "verify.counterexample_scan": ("verify.counterexample_scan",),
    "verify.necessity_probe": ("verify.necessity_probe",),
    "verify.random_t_form": ("verify.random_t_form",),
    "verify.margin_rows": ("verify.margin_rows",),
    "verify.write_margin_csv": ("verify.write_margin_csv",),
    "cli.build_parser": ("cli.build_parser",),
    "cli.run": ("cli.run",),
}
# Calls of these each evaluate the whole grid once.
GRID_PASSES = (
    "verify.re_condition_margin",
    "verify.sense_preserving_margin",
    "verify.injectivity_sample_check",
    "verify.growth_bound_check",
    "verify.margin_rows",
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent, op)
        self.weight_ns: list[int] = []  # weight time inside each span
        self.weight_calls = 0
        self.op = None
        self.ops = 0
        self._stack: list[int] = []
        self._in_weight = False
        self._patched: list = []

    def install(self) -> None:
        mods = [importlib.import_module(m) for m in MODULES]
        for boundary, targets in BOUNDARIES.items():
            for target in targets:
                mod_name, attr = target.split(".")
                original = getattr(importlib.import_module("qharm." + mod_name), attr)
                wrapper = self._weight(original) if boundary == WEIGHT else self._span(boundary, original)
                for mod in mods:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _open(self, name: str) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        self.weight_ns.append(0)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, name: str, parent, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[sid] = (name, start, end, parent, self.op)

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            sid, parent = self._open(name)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, name, parent, start)

        return wrapper

    def _weight(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None or self._in_weight:
                return fn(*args, **kwargs)
            self._in_weight = True
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                self._in_weight = False
                self.weight_calls += 1
                self.weight_ns[self._stack[-1]] += elapsed

        return wrapper

    @contextmanager
    def op_span(self):
        """Root span of one op; wrappers record only inside it.  Ops are
        numbered in the order they run."""
        self.op = self.ops
        self.ops += 1
        sid, parent = self._open(OP)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, OP, parent, start)
            self.op = None

    def layers(self) -> tuple[dict, int]:
        """Calls and self time (ns) per boundary, and the summed op time."""
        calls: dict = defaultdict(int)
        self_ns: dict = defaultdict(int)
        total = 0
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            duration = end - start
            calls[name] += 1
            self_ns[name] += duration - self.weight_ns[sid]
            if parent is None:
                total += duration
            else:
                self_ns[self.spans[parent][0]] -= duration
        calls[WEIGHT] = self.weight_calls
        self_ns[WEIGHT] = sum(self.weight_ns)
        return {n: (calls[n], self_ns[n]) for n in (*BOUNDARIES, OP)}, total

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "weight_ns": self.weight_ns[sid]}) + "\n")
            fh.write(json.dumps({"name": WEIGHT, "calls": self.weight_calls, "ns": sum(self.weight_ns)}) + "\n")
