"""Tests for the benchmark's own code: oracles, span arithmetic, probe accounting.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import oracles
from perfbench.measure import Op, Reference, Tally, execute, pass_seconds, tail
from perfbench.tracing import LAYERS, PER_LAYER, Span, Tracer, self_times, summarize
from perfbench.workloads import LIFE, MODULES, WIDE, Case, Shape, spec_of

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
nbhd = types.SimpleNamespace(**{m: importlib.import_module(f"nbhd.{m}") for m in MODULES})


# ---------------------------------------------------------------- oracles

TINY = [
    Case("life", (7, 6), Shape("k-radius", 2, 2, 1), (3,), (2, 3), True, 0.4, 3),
    Case("narrow", (5, 9), Shape("k-radius", 2, 1, 2), (2, 3), (1, 2, 4), True, 0.4, 3),
    Case("diamond", (6, 6), Shape("diamond", 2, None, 2), (3, 4, 5), (2, 3, 4, 5), True, 0.4, 3),
    # a torus smaller than the neighbourhood's span sees cells more than once
    Case("small-torus", (3, 4), Shape("k-radius", 2, 2, 2), (5, 6, 7), (4, 5, 6, 7, 8), True, 0.4, 3),
    Case("3d", (4, 5, 3), Shape("k-radius", 3, 2, 1), (4, 5), (3, 4, 5, 6), True, 0.4, 3),
    # the benchmark's own cases, shrunk
    *(dataclasses.replace(c, dims=tuple(min(n, 14) for n in c.dims), steps=2) for c in LIFE + WIDE),
]


@pytest.mark.parametrize("torus", [True, False], ids=["torus", "dead"])
@pytest.mark.parametrize("case", TINY, ids=lambda c: c.name)
def test_oracle_step_agrees_with_engine_step(case, torus):
    case = dataclasses.replace(case, torus=torus)
    engine = nbhd.engine
    states = (np.random.default_rng(7).random(case.dims) < case.density).astype(np.uint8)
    boundary = engine.Boundary.TOROIDAL if torus else engine.Boundary.FIXED_DEAD
    grid = engine.Grid(case.dims, states, boundary)
    rule = engine.parse_rule(case.rule_text())
    offsets = nbhd.neighborhoods.enumerate_offsets(spec_of(nbhd, case.shape))
    for _ in range(case.steps):
        grid = engine.step(grid, rule, offsets)
        states = oracles.step(states, case)
        assert np.array_equal(grid.states, states)


def test_members_agree_with_enumerate_offsets():
    shapes = [Shape("diamond", d, None, r, sharp_r=s) for d in (1, 2, 3) for r in (1, 2, 3) for s in (False, True)]
    shapes += [
        Shape("k-radius", d, k, r, sk, sr)
        for d in (1, 2, 3)
        for k in range(1, d + 1)
        for r in (1, 2, 3)
        for sk in (False, True)
        for sr in (False, True)
    ]
    for shape in shapes:
        expected = nbhd.neighborhoods.enumerate_offsets(spec_of(nbhd, shape))
        assert [tuple(row) for row in oracles.members(shape).tolist()] == expected, shape
        assert int(oracles.mask(shape).sum()) == len(expected), shape


@pytest.mark.parametrize("seq_id", ["A005843", "A024023", "A013609", "A265014", "A266213", "A008288"])
def test_sequence_closed_forms_match_golden_bfiles(seq_id):
    golden = (ROOT / "tests" / "fixtures" / f"b{seq_id[1:]}.txt").read_bytes()
    assert oracles.bfile_bytes(oracles.sequence_terms(seq_id, 64)) == golden


# ---------------------------------------------------------------- spans


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        Span("cli.main", 0.0, 10.0, None, "op", {"command": "count"}),
        Span("neighborhoods.enumerate_offsets", 1.0, 4.0, 0, "op", {"offsets": 8}),
        Span("counting.count", 2.0, 3.0, 1, "op", {"fallback": True}),
        Span("engine.step", 5.0, 9.0, 0, "op", {"cells": 4, "reads": 32}),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    m = summarize(spans)
    assert (m["cli.self_s"], m["neighborhoods.self_s"], m["counting.self_s"], m["engine.self_s"]) == pytest.approx(
        (3.0, 2.0, 1.0, 4.0)
    )
    assert sum(m[f"{layer}.self_s"] for layer in LAYERS) == pytest.approx(m["trace.wall_s"]) == pytest.approx(10.0)
    assert m["counting.box_scan_fallback_calls"] == 1
    assert m["engine.ns_per_neighbour_read"] == pytest.approx(4.0 / 32 * 1e9)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("cli.main", 0.0, 10.0, None, None),
        Span("engine.step", 1.0, 6.0, 0, None),
        Span("engine.step", 4.0, 8.0, 0, None),
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_nests_spans_through_wrapped_lookups():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2  # looks ``inner`` up at call time
    tracer = Tracer()
    mod.inner = tracer.wrap("engine.inner", mod.inner)
    mod.outer = tracer.wrap("cli.outer", mod.outer)
    tracer.op = "op-1"
    assert mod.outer(1) == 4
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent, inner.op) == (None, 0, "op-1")
    own = self_times(tracer.spans)
    assert own[0] + own[1] == pytest.approx(outer.seconds)


def test_install_restores_every_site():
    before = {(m, a): getattr(getattr(nbhd, m), a) for m in MODULES for a in dir(getattr(nbhd, m))}
    tracer = Tracer()
    tracer.install(nbhd)
    assert nbhd.engine.step is not before[("engine", "step")]
    tracer.uninstall()
    assert all(getattr(getattr(nbhd, m), a) is f for (m, a), f in before.items())


# ---------------------------------------------------------------- probes


def _fake_cli(argv):
    if argv[0] == "raise":
        raise ValueError("defect")
    if argv[0] == "exit":
        return 1
    print("ok")
    return 0


def _check(op, outcome):
    return None if outcome.stdout == b"ok\n" else "output differs from the oracle"


def test_failing_probe_counts_as_failed_and_adds_no_time():
    cli = types.SimpleNamespace(main=_fake_cli)
    good = Op("good", "count", None, argv=["fine"])
    probes = [Op("p1", "count", None, argv=["raise"], probe=True), Op("p2", "count", None, argv=["exit"], probe=True)]
    tally = Tally()
    execute(good, cli, _check, tally)
    timed = pass_seconds(tally, [good, *probes], min)
    for probe in probes:
        execute(probe, cli, _check, tally)
    assert (tally.attempted, tally.failed, tally.correct) == (3, 2, True)
    assert not tally.samples["p1"] and not tally.samples["p2"]
    assert pass_seconds(tally, [good, *probes], min) == timed


def test_failing_op_that_is_no_probe_is_incorrect():
    cli = types.SimpleNamespace(main=_fake_cli)
    tally = Tally()
    execute(Op("bad", "count", None, argv=["raise"]), cli, _check, tally)
    assert (tally.failed, tally.correct) == (1, False)


def test_reference_kernel_is_timed_at_most_once_per_interval():
    reference = Reference(every=3600.0)
    reference.maybe_sample()
    reference.maybe_sample()
    assert len(reference.samples) == 1 and reference.samples[0] > 0


def test_tail_needs_ten_samples_beyond():
    assert tail([1.0] * 19) is None
    assert tail([1.0] * 20)[0] == 50
    assert tail(list(range(100)))[0] == 90
    assert tail(list(range(1000)))[0] == 99


# ---------------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_names_what_run_emits():
    from perfbench.run import END_TO_END

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
