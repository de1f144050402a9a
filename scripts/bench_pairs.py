"""Paired benchmark runs of two checkouts, summarised as one BENCH_<label>.json.

    python3 scripts/bench_pairs.py --parent ../nbhd-parent --change . --label lookup

For each workload of BENCHMARK.json, pair i of ten runs
``perfbench/run.py --trace 0`` once in each checkout with seed i, for
BENCHMARK.json's run_seconds; the parent runs first in odd pairs and the
change first in even ones, so drift in the machine's speed falls on both
sides alike.  Each checkout is benchmarked with its own perfbench and its own
src, so give both the same perfbench when a change claims a gain.  Every run
compiles the sources afresh, reading and writing no bytecode cache.

The JSON holds every run's end-to-end metrics, and per workload and metric
each side's median and quartiles, the pairs the change won and lost, and
whether the change's median beats the parent's by more than the parent's
interquartile range.  For the no-regression rule it holds how much worse the
change's median is than the parent's, relative to it, whether that is within
the metric's bound in BENCHMARK.json, and whether the parent's own spread is
too wide for the bound to tell.  It also records the seeds, the run length,
the machine and, per checkout, its git HEAD and a sha256 of the Python files
under src/ and perfbench/, which names the code that ran even when it is not
committed.
A run that fails or prints a wrong result is recorded as such, left out of
the quartiles and counted as a pair not won; the script exits 1 if any did.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory() as cache:
        # every import compiles from source: a bytecode cache left in one
        # checkout would make that side's set-ups look faster
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": cache}
        done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False, "exit": done.returncode, "stderr": done.stderr[-2000:]}
    ok = done.returncode == 0 and result["correct"] is True and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"ok": ok, "exit": done.returncode, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def summarise(pairs: list[dict[str, dict]], better: dict[str, str], bounds: dict[str, float]) -> dict[str, dict]:
    """Per metric: each side's quartiles, wins and losses, the claim test,
    and the no-regression test against the metric's relative bound."""
    good = [p for p in pairs if p["parent"]["ok"] and p["change"]["ok"]]
    summary = {}
    for name, direction in better.items():
        sign = 1 if direction == "lower" else -1
        values = {side: [p[side]["metrics"][name] for p in good] for side in SIDES}
        if len(good) < 2:
            summary[name] = {"pairs": len(good)}
            continue
        stats = {side: quartiles(values[side]) for side in SIDES}
        gains = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
        gap = sign * (stats["parent"]["median"] - stats["change"]["median"])
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        worse_by = -gap / stats["parent"]["median"]
        beats_all = len(good) == len(pairs) and max(sign * v for v in values["change"]) < min(
            sign * v for v in values["parent"])
        summary[name] = {
            "better": direction,
            "pairs": len(good),
            **stats,
            "change_won": sum(g > 0 for g in gains),
            "change_lost": sum(g < 0 for g in gains),
            "median_gain": gap,
            "parent_iqr": iqr,
            # at least nine tenths of all pairs run won, a failed one counting
            # as not won, and a median gap wider than the parent's own spread
            "gain_shown": sum(g > 0 for g in gains) >= 0.9 * len(pairs) and gap > iqr,
            # the change's median relative to the parent's, positive when worse
            "worse_by": worse_by,
            "bound": bounds[name],
            "within_bound": worse_by <= bounds[name],
            # the parent's spread is wider than the bound, so the bound cannot
            # tell a regression from noise, unless every change run beat every
            # parent run
            "unresolved": iqr / stats["parent"]["median"] > bounds[name] and not beats_all,
        }
    return summary


def machine() -> dict[str, object]:
    info: dict[str, object] = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }
    try:
        with open("/proc/cpuinfo") as handle:
            names = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        info["cpu"] = names[0] if names else platform.processor()
    except OSError:
        info["cpu"] = platform.processor()
    try:
        import numpy
        info["numpy"] = numpy.__version__
    except ImportError:
        pass
    return info


def source(checkout: Path) -> dict[str, str | None]:
    """The checkout's git HEAD and a sha256 of its Python sources as they are."""
    digest = hashlib.sha256()
    for path in sorted(p for top in ("src", "perfbench") for p in (checkout / top).rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes() + b"\0")
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
        head = done.stdout.strip() or None
    except OSError:  # no git
        head = None
    return {"head": head, "py_sha256": digest.hexdigest()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = list(range(1, PAIRS + 1))
    sources = {side: source(path) for side, path in checkouts.items()}

    results: dict[str, dict] = {}
    bad = 0
    for workload in workloads:
        pairs = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                t0 = time.perf_counter()
                pair[side] = run_once(checkouts[side], workload, seed, seconds)
                pair[side]["wall_s"] = time.perf_counter() - t0
                bad += not pair[side]["ok"]
            pairs.append(pair)
            shown = {side: pair[side].get("metrics", {}) for side in SIDES}
            print(f"{workload} pair {i + 1}/{len(seeds)} seed {seed}: " + "; ".join(
                f"{name} {shown['parent'].get(name, float('nan')):.4g} -> {shown['change'].get(name, float('nan')):.4g}"
                for name in better), file=sys.stderr)
        results[workload] = {"summary": summarise(pairs, better, bounds), "pairs": pairs}

    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({
        "label": args.label,
        "command": "perfbench/run.py --trace 0",
        "seconds": seconds,
        "seeds": seeds,
        "sources": sources,
        "machine": machine(),
        "workloads": results,
    }, indent=1) + "\n")
    print(out)
    if any(source(path) != sources[side] for side, path in checkouts.items()):
        print("a checkout's sources changed during the runs", file=sys.stderr)
        return 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
