"""Spans around the solver's layers, recorded from outside the solver.

Tracer.installed() replaces each traced function on the module binding its
caller looks it up through (cut_lhs, validate and make_schedule are
imported by name into cmils_master and separation, so those bindings are
the ones patched) and restores every binding on exit.  A span is
[name, start, end, parent span index, op id]; spans are kept in memory and
written out when the run ends.  A layer's self time is its span's
duration minus the durations of its direct children.

lp_core.solve_to_vertex is named after its caller: a solve under
cmils_master.solve_master is a master solve, one under laminar_kc.solve a
laminar rounding solve.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from typing import Callable, Iterator, Optional

# (module, attribute, span name); None names the span after its parent.
SPANS = (
    ("cli", "main", "cli.solve"),
    ("instance", "load", "instance.load"),
    ("instance", "save_schedule", "instance.save_schedule"),
    ("cmils_master", "run_pipeline", "cmils_master.run_pipeline"),
    ("cmils_master", "validate", "instance.validate"),
    ("cmils_master", "build_base_lp", "cmils_master.build"),
    ("cmils_master", "solve_master", "cmils_master.solve_master"),
    ("cmils_master", "add_cut", "cmils_master.add_cut"),
    ("cmils_master", "cut_lhs", "cuts.cut_lhs"),
    ("cmils_master", "make_schedule", "instance.make_schedule"),
    ("separation", "try_round", "separation.try_round"),
    ("separation", "cut_lhs", "cuts.cut_lhs"),
    ("interval_kc", "solve_interval_kc", "interval_kc.solve"),
    ("interval_kc", "construct_laminar_family", "interval_kc.family_build"),
    ("laminar_kc", "solve", "laminar_kc.solve"),
    ("assignment", "scaled_profile", "assignment.profile"),
    ("assignment", "solve_assignment", "assignment.solve"),
    ("lp_core", "solve_to_vertex", None),
)
LP_NAME_BY_PARENT = {
    "cmils_master.solve_master": "lp_core.master_solve",
    "laminar_kc.solve": "lp_core.laminar_solve",
}

# Called too often for a span each: counted only.  dedup runs once per
# iteration of the laminar rounding loop.
COUNTERS = (
    ("interval_kc", "max_coverable", "interval_kc.max_coverable_calls"),
    ("laminar_kc", "dedup", "laminar_kc.iterations"),
)

# Per-layer metrics: name, unit, better, and the end-to-end metric and
# workload each should move.  Times and counts are per traced op unless the
# name says otherwise; a layer that did no work reads 0.
PER_LAYER = (
    ("lp_core.master_solve_s", "s", "lower", "solve_s_*, solves_per_s on random-mid and gap-stack"),
    ("lp_core.master_solves", "count", "lower", "solve_s_*, solves_per_s on gap-stack (one plus one per cut round)"),
    ("lp_core.master_rows", "count", "lower", "solve_s_* on random-mid and gap-stack (mean per master solve)"),
    ("lp_core.master_cols", "count", "lower", "solve_s_* on random-mid and gap-stack (mean per master solve)"),
    ("lp_core.master_nnz", "count", "lower", "solve_s_* on random-mid and gap-stack (mean per master solve)"),
    ("lp_core.master_dense_cells", "count", "lower", "peak_rss_mb, solve_s_* on random-mid and gap-stack (rows x columns incl. slacks)"),
    ("lp_core.laminar_solves", "count", "lower", "solve_s_*, solves_per_s on laminar-round; about 0 elsewhere"),
    ("lp_core.laminar_solve_s", "s", "lower", "solve_s_*, solves_per_s on laminar-round; about 0 elsewhere"),
    ("laminar_kc.iterations", "count", "lower", "solve_s_* on laminar-round; about 0 elsewhere"),
    ("laminar_kc.solve_self_s", "s", "lower", "solve_s_* on laminar-round; about 0 elsewhere"),
    ("interval_kc.family_build_s", "s", "lower", "solve_s_* on laminar-round; about 0 elsewhere"),
    ("interval_kc.max_coverable_calls", "count", "lower", "solve_s_* on laminar-round; about 0 elsewhere"),
    ("interval_kc.family_size", "count", "lower", "solve_s_* on laminar-round (mean per family)"),
    ("interval_kc.solve_self_s", "s", "lower", "solve_s_* on laminar-round; about 0 elsewhere"),
    ("cmils_master.cut_rounds", "count", "lower", "solve_s_* on gap-stack only"),
    ("cmils_master.cuts_added", "count", "lower", "solve_s_* on gap-stack only"),
    ("cmils_master.build_s", "s", "lower", "solve_s_* on gap-stack and random-mid (small)"),
    ("cmils_master.solve_master_self_s", "s", "lower", "solve_s_* on gap-stack only"),
    ("cmils_master.add_cut_s", "s", "lower", "solve_s_* on gap-stack only"),
    ("cuts.cut_lhs_calls", "count", "lower", "solve_s_* on gap-stack only"),
    ("cuts.cut_lhs_s", "s", "lower", "solve_s_* on gap-stack only"),
    ("separation.try_round_calls", "count", "lower", "solve_s_* on gap-stack only"),
    ("separation.try_round_s", "s", "lower", "solve_s_* on gap-stack only"),
    ("separation.cut_yield", "ratio", "higher", "solve_s_* on gap-stack only (cuts returned / calls)"),
    ("assignment.profile_s", "s", "lower", "no end-to-end change expected (under 2% everywhere)"),
    ("assignment.solve_s", "s", "lower", "no end-to-end change expected (under 2% everywhere)"),
    ("assignment.supplies", "count", "lower", "no end-to-end change expected (supply nodes per flow)"),
    ("instance.load_s", "s", "lower", "no end-to-end change expected (under 2% everywhere)"),
    ("instance.validate_s", "s", "lower", "no end-to-end change expected (under 2% everywhere)"),
    ("instance.make_schedule_s", "s", "lower", "no end-to-end change expected (under 2% everywhere)"),
    ("instance.save_schedule_s", "s", "lower", "no end-to-end change expected (under 2% everywhere)"),
    ("cli.solve_self_s", "s", "lower", "no end-to-end change expected (under 2% everywhere)"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced op time / untraced op time - 1 on the same inputs"),
)


class Tracer:
    """Records spans and counters, but only while an op is open."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.sums: dict[str, float] = defaultdict(float)
        self.ops = 0
        self._op: Optional[int] = None
        self._stack: list[int] = []
        self._cut_type: type = type(None)

    @contextlib.contextmanager
    def op(self) -> Iterator[None]:
        """One traced op; its spans share the op's id."""
        self._op = self.ops
        try:
            yield
        finally:
            self._op = None
            self._stack.clear()
            self.ops += 1

    def _span(self, name: Optional[str], fn: Callable, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        if name is None:
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            name = LP_NAME_BY_PARENT.get(parent_name, "lp_core.solve_to_vertex")
        self._observe(name, args)
        span = [name, 0.0, 0.0, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        self._observe_result(name, result)
        return result

    def _observe(self, name: str, args) -> None:
        if name == "lp_core.master_solve":
            lp = args[0]
            free = sum(1 for lo, hi in lp.bounds if lo != hi)
            slacks = sum(1 for row in lp.rows if row.relation != "=")
            self.sums["master_rows"] += len(lp.rows)
            self.sums["master_cols"] += lp.num_vars
            self.sums["master_nnz"] += sum(len(row.coeffs) for row in lp.rows)
            self.sums["master_dense_cells"] += len(lp.rows) * (free + slacks)

    def _observe_result(self, name: str, result) -> None:
        if name == "separation.try_round":
            cuts = [result] if isinstance(result, self._cut_type) else result
            if isinstance(cuts, list):
                self.sums["cuts_returned"] += len(cuts)
                self.sums["cut_rounds"] += 1
        elif name == "interval_kc.family_build":
            self.sums["family_size"] += len(result.members)
        elif name == "assignment.profile":
            self.sums["supplies"] += len(result)

    def wrap(self, name: Optional[str], fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            return self._span(name, fn, args, kwargs)
        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._op is not None:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    @contextlib.contextmanager
    def installed(self, lib) -> Iterator["Tracer"]:
        """Patch every traced binding on the solver's modules, then restore."""
        self._cut_type = lib.cuts.CoveringCut
        saved = []
        try:
            for module, attr, name in SPANS:
                mod = getattr(lib, module)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            for module, attr, name in COUNTERS:
                mod = getattr(lib, module)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.count(name, getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    # -- derived numbers ----------------------------------------------------

    def layer_totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, self share."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        root_time = sum(end - start for _n, start, end, parent, _o in self.spans
                        if parent < 0)
        totals: dict[str, dict] = {}
        for idx, (name, start, end, _parent, _op) in enumerate(self.spans):
            entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[idx]
        for entry in totals.values():
            entry["self_share"] = entry["self_s"] / root_time if root_time else 0.0
        return totals

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Every PER_LAYER metric; 0 where the layer did no work."""
        totals = self.layer_totals()
        ops = self.ops or 1

        def calls(name):
            return totals.get(name, {}).get("calls", 0)

        def per_op(name, key="total_s"):
            return totals.get(name, {}).get(key, 0.0) / ops

        def mean(sum_key, per):
            n = calls(per)
            return self.sums[sum_key] / n if n else 0.0

        tries = calls("separation.try_round")
        values = {
            "lp_core.master_solve_s": per_op("lp_core.master_solve"),
            "lp_core.master_solves": calls("lp_core.master_solve") / ops,
            "lp_core.master_rows": mean("master_rows", "lp_core.master_solve"),
            "lp_core.master_cols": mean("master_cols", "lp_core.master_solve"),
            "lp_core.master_nnz": mean("master_nnz", "lp_core.master_solve"),
            "lp_core.master_dense_cells": mean("master_dense_cells", "lp_core.master_solve"),
            "lp_core.laminar_solves": calls("lp_core.laminar_solve") / ops,
            "lp_core.laminar_solve_s": per_op("lp_core.laminar_solve"),
            "laminar_kc.iterations": self.counts["laminar_kc.iterations"] / ops,
            "laminar_kc.solve_self_s": per_op("laminar_kc.solve", "self_s"),
            "interval_kc.family_build_s": per_op("interval_kc.family_build"),
            "interval_kc.max_coverable_calls": self.counts["interval_kc.max_coverable_calls"] / ops,
            "interval_kc.family_size": mean("family_size", "interval_kc.family_build"),
            "interval_kc.solve_self_s": per_op("interval_kc.solve", "self_s"),
            "cmils_master.cut_rounds": self.sums["cut_rounds"] / ops,
            "cmils_master.cuts_added": calls("cmils_master.add_cut") / ops,
            "cmils_master.build_s": per_op("cmils_master.build"),
            "cmils_master.solve_master_self_s": per_op("cmils_master.solve_master", "self_s"),
            "cmils_master.add_cut_s": per_op("cmils_master.add_cut"),
            "cuts.cut_lhs_calls": calls("cuts.cut_lhs") / ops,
            "cuts.cut_lhs_s": per_op("cuts.cut_lhs"),
            "separation.try_round_calls": tries / ops,
            "separation.try_round_s": per_op("separation.try_round"),
            "separation.cut_yield": self.sums["cuts_returned"] / tries if tries else 0.0,
            "assignment.profile_s": per_op("assignment.profile"),
            "assignment.solve_s": per_op("assignment.solve"),
            "assignment.supplies": mean("supplies", "assignment.profile"),
            "instance.load_s": per_op("instance.load"),
            "instance.validate_s": per_op("instance.validate"),
            "instance.make_schedule_s": per_op("instance.make_schedule"),
            "instance.save_schedule_s": per_op("instance.save_schedule"),
            "cli.solve_self_s": per_op("cli.solve", "self_s"),
            "trace.overhead_ratio": overhead_ratio,
        }
        return values

    def write(self, path: str, header: dict) -> None:
        """Spans, layer totals and self-time shares, as one JSON file."""
        doc = dict(header)
        doc["layers"] = dict(sorted(self.layer_totals().items(),
                                    key=lambda kv: -kv[1]["self_s"]))
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "op"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
