"""Spans around each layer's public functions, recorded from outside.

Wrappers replace module attributes at the sites where nbhd looks them up
(``nbhd.engine.step`` is looked up by both ``cli`` and ``engine.run``), so no
file of the package changes.  ``contains``, which runs once per box point, is
never wrapped.  Spans stay in memory; per-layer metrics are derived at the
end of each traced pass.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

from .workloads import LIFE, WIDE

CHECKS = (
    "sharp_k_formula_vs_recurrence",
    "k_formula_vs_recurrence",
    "partial_sum_identity",
    "moore_shell_identity",
    "diamond_formula_vs_recurrence",
    "delannoy_identities",
    "specializations",
    "oracle_agreement",
)
LAYERS = ("cli", "engine", "neighborhoods", "counting", "sequences", "verification")
COMMANDS = ("simulate", "count", "enumerate", "sequence", "verify")
CASES = tuple(case.name for case in LIFE + WIDE)

# Every per-layer metric, with its unit, in report order.
PER_LAYER: dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.invocations": "count",
    "cli.stdout_bytes": "bytes",
    **{f"cli.{command}_s": "s" for command in COMMANDS},
    "engine.step_calls": "count",
    "engine.cell_updates": "count",
    "engine.neighbour_reads": "count",
    "engine.ns_per_neighbour_read": "ns",
    "engine.cell_updates_per_s": "cells/s",
    "engine.load_pattern_s": "s",
    "engine.make_grid_s": "s",
    **{f"engine.step_ms_{p}.{case}": "ms" for case in CASES for p in ("p50", "p90")},
    "neighborhoods.enumerate_s": "s",
    "neighborhoods.offsets_enumerated": "count",
    "neighborhoods.box_scan_s": "s",
    "neighborhoods.box_scan_calls": "count",
    "neighborhoods.box_points_scanned": "count",
    "counting.count_self_s": "s",
    "counting.count_calls": "count",
    "counting.box_scan_fallback_calls": "count",
    "sequences.generate_s": "s",
    "sequences.emit_self_s": "s",
    "sequences.terms": "count",
    "sequences.bytes_written": "bytes",
    **{f"verification.{check}_s": "s" for check in CHECKS},
    "verification.cases": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "machine.ref_ms": "ms",
    "probes.failed": "count",
}


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    op: str | None  # key of the op the span belongs to
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[index], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.seconds - covered)
    return result


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable[..., dict] | None = None,
        after: Callable[[dict, tuple, Any], None] | None = None,
    ) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, attrs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after:
                after(attrs, args, result)
            return result

        return traced

    def install(self, nbhd: Any) -> None:
        for module, attr, name, before, after in _sites(nbhd):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, before, after))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _sites(nbhd: Any) -> list[tuple]:
    """(module, attribute, span name, before, after) for every wrapped site."""
    cli, engine, counting = nbhd.cli, nbhd.engine, nbhd.counting
    sequences, verification = nbhd.sequences, nbhd.verification
    closed_form = counting.closed_form_available

    def box_points(spec, **_):
        return {"points": (2 * spec.r + 1) ** spec.dimension}

    def offsets_out(attrs, args, result):
        attrs["offsets"] = len(result)

    def emit_before(seq_id, terms, sink):
        return {"pos": sink.tell()}

    def emit_after(attrs, args, result):
        attrs["bytes"] = args[2].tell() - attrs["pos"]

    sites = [
        (cli, "main", "cli.main", lambda argv=None: {"command": argv[0]}, None),
        (engine, "run", "engine.run", lambda g, rule, offs, steps, *a: {"cells": g.states.size * steps}, None),
        (engine, "step", "engine.step",
         lambda g, rule, offs: {"cells": g.states.size, "reads": g.states.size * len(offs)}, None),
        (engine, "load_pattern", "engine.load_pattern", None, None),
        (engine, "make_grid", "engine.make_grid", None, None),
        (engine, "population", "engine.population", None, None),
        (cli, "enumerate_offsets", "neighborhoods.enumerate_offsets", None, offsets_out),
        (verification, "enumerate_offsets", "neighborhoods.enumerate_offsets", None, offsets_out),
        (counting, "brute_force_count", "neighborhoods.brute_force_count", box_points, None),
        (verification, "brute_force_count", "neighborhoods.brute_force_count", box_points, None),
        (counting, "count", "counting.count", lambda spec: {"fallback": not closed_form(spec)}, None),
        (sequences, "generate", "sequences.generate", None,
         lambda attrs, args, result: attrs.update(terms=len(result))),
        (sequences, "emit_bfile", "sequences.emit_bfile", emit_before, emit_after),
        (cli, "run_verification", "verification.run_verification", None, None),
    ]
    for check in CHECKS:
        sites.append((verification, f"check_{check}", f"verification.{check}", None,
                      lambda attrs, args, result: attrs.update(cases=result.cases)))
    return sites


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; every name in PER_LAYER except
    the ones computed across passes (step percentiles, trace.overhead_s) and
    cli.stdout_bytes, which the harness counts."""
    m: dict[str, float] = defaultdict(float)
    step_s = run_s = run_cells = 0.0
    for span, own in zip(spans, self_times(spans)):
        m[f"{span.layer}.self_s"] += own
        if span.parent is None:
            m["trace.wall_s"] += span.seconds
        name, a = span.name, span.attrs
        if name == "cli.main":
            m["cli.invocations"] += 1
            m[f"cli.{a['command']}_s"] += span.seconds
        elif name == "engine.step":
            m["engine.step_calls"] += 1
            m["engine.cell_updates"] += a["cells"]
            m["engine.neighbour_reads"] += a["reads"]
            step_s += span.seconds
        elif name == "engine.run":
            run_cells += a["cells"]
            run_s += span.seconds
        elif name in ("engine.load_pattern", "engine.make_grid"):
            m[f"{name}_s"] += span.seconds
        elif name == "neighborhoods.enumerate_offsets":
            m["neighborhoods.enumerate_s"] += own
            m["neighborhoods.offsets_enumerated"] += a["offsets"]
        elif name == "neighborhoods.brute_force_count":
            m["neighborhoods.box_scan_s"] += span.seconds
            m["neighborhoods.box_scan_calls"] += 1
            m["neighborhoods.box_points_scanned"] += a["points"]
        elif name == "counting.count":
            m["counting.count_self_s"] += own
            m["counting.count_calls"] += 1
            m["counting.box_scan_fallback_calls"] += a["fallback"]
        elif name == "sequences.generate":
            m["sequences.generate_s"] += span.seconds
            m["sequences.terms"] += a["terms"]
        elif name == "sequences.emit_bfile":
            m["sequences.emit_self_s"] += own
            m["sequences.bytes_written"] += a["bytes"]
        elif name.startswith("verification.") and name != "verification.run_verification":
            m[f"{name}_s"] += span.seconds
            m["verification.cases"] += a["cases"]
    reads = m["engine.neighbour_reads"]
    m["engine.ns_per_neighbour_read"] = step_s / reads * 1e9 if reads else 0.0
    m["engine.cell_updates_per_s"] = run_cells / run_s if run_s else 0.0
    return m


def step_samples(spans: list[Span], case_of: dict[str, str]) -> dict[str, list[float]]:
    """Step durations in seconds, grouped by the case of the op they ran in."""
    samples: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        if span.name == "engine.step" and span.op in case_of:
            samples[case_of[span.op]].append(span.seconds)
    return samples

