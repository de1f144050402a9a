"""Benchmark for nbhd: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload life --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; nbhd is imported from its ``src``.  With
``--trace 0`` the result holds the end-to-end metrics, with ``--trace 1`` the
per-layer ones (traced passes alternate with untraced passes, whose
difference is ``trace.overhead_s``).  Every output is checked against an
oracle outside the timed region.  Human-readable detail precedes the last
line, which is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.measure import Reference, Tally, describe, execute, pass_seconds, quantile, repeat_passes  # noqa: E402
from perfbench.oracles import Checker  # noqa: E402
from perfbench.tracing import LAYERS, PER_LAYER, Tracer, step_samples, summarize  # noqa: E402
from perfbench.workloads import WORKLOADS, Prepared, prepare  # noqa: E402

SETUP_REPEATS = 5  # at least
MAX_SETUPS = 50
SETUP_SHARE = 0.1  # set-ups between passes stop once they took this share of the run
MIN_PASSES = 3  # untraced run
MIN_TRACE_PASSES = 4  # traced run: two untraced and two traced
WORKDIR = ROOT / "perfbench" / ".work"
END_TO_END = {"setup_s": "s", "pass_over_ref": "ratio", "peak_rss_mib": "MiB"}
GROUPS = ("simulate", "run", "count", "enumerate", "sequence", "verify")


@dataclass
class Run:
    prepared: Prepared
    setups: list[float]
    tally: Tally = field(default_factory=Tally)  # the workload's ops
    probes: Tally = field(default_factory=Tally)  # known defects, kept apart
    reference: Reference = field(default_factory=Reference)
    passes: dict[bool, list[float]] = field(default_factory=lambda: {False: [], True: []})  # traced? -> op time
    layers: list[dict[str, float]] = field(default_factory=list)  # one per traced pass
    steps: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))  # case -> step seconds
    peak_rss_mib: float = 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    setups: list[float] = []

    def set_up() -> Prepared:
        t0 = time.perf_counter()
        prepared = prepare(workload, seed, ROOT / "src", WORKDIR)
        setups.append(time.perf_counter() - t0)
        return prepared

    # The passes run on the first set-up.  The others, spread over the run
    # between passes, sample set-up at different moments like the op
    # samples.  Each one imports nbhd afresh, so the first import goes back
    # into sys.modules, where nbhd's call-time imports look.
    run = Run(set_up(), setups)
    package = {name: mod for name, mod in sys.modules.items() if name.partition(".")[0] == "nbhd"}

    def set_up_again() -> None:
        set_up()
        sys.modules.update(package)

    prepared = run.prepared
    checker = Checker(ROOT / "tests" / "fixtures")
    checker.prime(prepared.ops + prepared.probes, prepared.initial)
    cli = prepared.nbhd.cli
    tracer = Tracer()
    case_of = {op.key: op.payload.name for op in prepared.ops if op.group in ("simulate", "run")}

    def one_pass(index: int) -> None:
        traced = trace and index % 2 == 1
        ops = prepared.pass_ops(index)
        if traced:
            tracer.spans = []
            tracer.install(prepared.nbhd)
        gc.collect()  # so that no op pays for the garbage of earlier passes
        try:
            busy = 0.0
            for op in ops:
                tracer.op = op.key
                busy += execute(op, cli, checker.check, run.tally).seconds
                run.reference.maybe_sample()
        finally:
            tracer.uninstall()
        run.passes[traced].append(busy)
        if traced:
            layer = summarize(tracer.spans)
            layer["cli.stdout_bytes"] = sum(run.tally.stdout_bytes.get(op.key, 0) for op in ops if op.argv)
            run.layers.append(layer)
            for case, values in step_samples(tracer.spans, case_of).items():
                run.steps[case].extend(values)
        while len(setups) < MAX_SETUPS and sum(setups) < SETUP_SHARE * (time.perf_counter() - start):
            set_up_again()

    start = time.perf_counter()
    repeat_passes(one_pass, seconds, MIN_TRACE_PASSES if trace else MIN_PASSES)
    while len(setups) < SETUP_REPEATS:
        set_up_again()
    run.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for probe in prepared.probes:
        execute(probe, cli, checker.check, run.probes)
    return run


def end_to_end(run: Run) -> dict[str, float]:
    one_pass = pass_seconds(run.tally, run.prepared.ops, statistics.median)
    return {
        "setup_s": statistics.median(run.setups),
        "pass_over_ref": one_pass / statistics.median(run.reference.samples),
        "peak_rss_mib": run.peak_rss_mib,
    }


def per_layer(run: Run) -> dict[str, float]:
    values = {}
    for name in PER_LAYER:
        if name.startswith("engine.step_ms_"):
            p, case = name.removeprefix("engine.step_ms_").split(".", 1)
            samples = run.steps.get(case)
            values[name] = quantile(samples, int(p[1:]) / 100) * 1e3 if samples else 0.0
        elif name == "machine.ref_ms":
            values[name] = statistics.median(run.reference.samples) * 1e3
        elif name == "probes.failed":
            values[name] = run.probes.failed
        elif name == "trace.overhead_s":
            values[name] = min(run.passes[True]) - min(run.passes[False])
        else:
            values[name] = statistics.median(layer.get(name, 0.0) for layer in run.layers)
    return values


def report(workload: str, seed: int, run: Run, metrics: dict[str, tuple[float, str]]) -> list[str]:
    prepared, tally = run.prepared, run.tally
    passes = len(run.passes[False]) + len(run.passes[True])
    lines = [
        f"workload {workload}, seed {seed}: {passes} passes of {len(prepared.ops)} ops, {len(prepared.probes)} probes",
        f"setup_s: {describe(run.setups)}",
    ]
    for group in GROUPS:
        ops = [op for op in prepared.ops if op.group == group]
        if ops:
            samples = [t for op in ops for t in tally.samples[op.key]]
            lines.append(
                f"{group}_s: {pass_seconds(tally, ops, statistics.median):.6g} s per pass from per-op medians, "
                f"{pass_seconds(tally, ops, min):.6g} s from per-op minima; per op {describe(samples)}"
            )
    lib_ops = [op for op in prepared.ops if op.call]
    if lib_ops:
        updates = sum(op.payload.steps * op.payload.cells for op in lib_ops)
        seconds = pass_seconds(tally, lib_ops, statistics.median)
        lines.append(f"cell_updates_per_s: {updates / seconds:.6g} cells/s in engine.run (per-op medians)")
    ops_median, ops_min = (pass_seconds(tally, prepared.ops, stat) for stat in (statistics.median, min))
    lines.append(f"pass_s: {ops_median:.6g} s per pass from per-op medians, {ops_min:.6g} s from per-op minima")
    lines.append(f"reference kernel: {describe(run.reference.samples)}")
    lines.append(f"peak_rss_mib: {run.peak_rss_mib:.6g} MiB")
    lines.append(f"failed_ops: {tally.failed} of attempted_ops {tally.attempted}")
    lines += [f"  failed: {failure}" for failure in tally.failures]
    if prepared.probes:
        lines.append(f"probes failed: {run.probes.failed} of {run.probes.attempted} (known defects, not in failed_ops)")
        lines += [f"  probe failed: {failure}" for failure in run.probes.failures]
    if run.layers:
        layer_self = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
        lines.append(
            f"self-time accounting: layers sum to {layer_self:.6g} s of {metrics['trace.wall_s'][0]:.6g} s "
            f"traced wall; fastest untraced pass {min(run.passes[False]):.6g} s"
        )
    return lines + [f"{name}: {value:.6g} {unit}" for name, (value, unit) in metrics.items()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nbhd" / "__init__.py").is_file():
        print(f"error: no nbhd sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    values, units = (per_layer(run), PER_LAYER) if args.trace else (end_to_end(run), END_TO_END)
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    print("\n".join(report(args.workload, args.seed, run, metrics)))
    print(json.dumps({
        "correct": run.tally.correct and run.probes.correct,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
