"""Running one op in-process, keeping its outcome, and reducing timings.

An op is either a CLI command, run through ``nbhd.cli.main(argv)`` with
stdout and stderr captured, or a library call.  Only ops that completed and
passed their output check add a timing sample; probes never do, so a defect
a probe exposes shows up in the failed count of the tally it is run with,
and not as a slowdown.
"""

from __future__ import annotations

import io
import itertools
import math
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


@dataclass
class Op:
    key: str  # unique within a workload
    group: str  # simulate, run, count, enumerate, sequence, verify
    payload: Any  # what the oracle needs: a Case, a Shape or a sequence id
    argv: list[str] | None = None  # CLI op
    call: Callable[[], Any] | None = None  # library op
    probe: bool = False  # expected to fail at the baseline; never timed


@dataclass
class Outcome:
    seconds: float
    rc: int | None = None
    stdout: bytes = b""
    stderr: str = ""
    value: Any = None
    error: str | None = None  # "Type: message" when the op raised


@dataclass
class Tally:
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    stdout_bytes: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed ops that were not probes, plus probes with wrong output
    failures: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.wrong == 0


def run_cli(cli: Any, argv: list[str]) -> Outcome:
    """``cli.main(argv)`` with stdout/stderr captured; ``main`` is looked up
    on the module at call time so that a traced run sees its wrapper."""
    out = io.BytesIO()
    text = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = text, err
    rc, error = None, None
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the op failed; the benchmark carries on
        error = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        sys.stdout, sys.stderr = saved
        text.flush()
        text.detach()
    return Outcome(seconds, rc=rc, stdout=out.getvalue(), stderr=err.getvalue(), error=error)


def run_call(call: Callable[[], Any]) -> Outcome:
    value, error = None, None
    start = time.perf_counter()
    try:
        value = call()
    except Exception as exc:  # the op failed; the benchmark carries on
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Outcome(seconds, value=value, error=error)


def execute(op: Op, cli: Any, check: Callable[[Op, Outcome], str | None], tally: Tally) -> Outcome:
    """Run one op, check its output outside the timed region, and tally it."""
    outcome = run_cli(cli, op.argv) if op.argv is not None else run_call(op.call)
    tally.attempted += 1
    if outcome.error is not None or outcome.rc not in (None, 0):
        last_line = outcome.stderr.strip().rpartition("\n")[2]
        problem = outcome.error or f"exit status {outcome.rc}: {last_line}"
        wrong = not op.probe
    else:
        problem = check(op, outcome)
        wrong = problem is not None
    if problem is not None:
        tally.failed += 1
        tally.wrong += wrong
        tally.failures.append(f"{op.key}: {problem}")
    elif not op.probe:
        tally.samples[op.key].append(outcome.seconds)
        tally.stdout_bytes[op.key] = len(outcome.stdout)
    return outcome


def repeat_passes(run_pass: Callable[[int], None], seconds: float, min_passes: int) -> None:
    """Call ``run_pass(i)`` for i = 0, 1, ... until ``seconds`` would be
    overrun by one more pass as long as the last, but at least
    ``min_passes`` times."""
    start = time.perf_counter()
    for index in itertools.count():
        t0 = time.perf_counter()
        run_pass(index)
        elapsed = time.perf_counter() - start
        if index + 1 >= min_passes and elapsed + (time.perf_counter() - t0) > seconds:
            return


class Reference:
    """Times a fixed kernel that shares no code with nbhd, at most once every
    ``every`` seconds, between ops.

    The machine's speed drifts by up to 1.8x over minutes as other tenants
    load it, for interpreter and numpy code alike.  Op times divided by the
    kernel's time, both taken as medians over the same run, cancel most of
    that drift.  The kernel is about equal parts interpreter work (dict and
    string operations, as in argument parsing, pattern parsing and box
    scans) and numpy work (shifted adds over a 512^2 grid, as in a step).
    """

    def __init__(self, every: float = 0.4):
        self.every = every
        self.samples: list[float] = []
        self._last = -math.inf
        # Preallocated, so that timing the kernel leaves the heap, and so
        # peak_rss_mib, as it was.
        self._grid = (np.random.default_rng(0).random((514, 514)) < 0.3).astype(np.int32)
        self._counts = np.zeros((512, 512), np.int32)

    def kernel(self) -> int:
        table: dict[str, int] = {}
        for i in range(30000):
            key = str(i % 997)
            table[key] = table.get(key, 0) + i * 3 // 7
        grid, counts = self._grid, self._counts
        for _ in range(8):
            counts.fill(0)
            for row in range(3):
                for col in range(3):
                    np.add(counts, grid[row:row + 512, col:col + 512], out=counts)
        return len(table) + int(counts[0, 0])

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.every:
            start = time.perf_counter()
            self.kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - start)


# --------------------------------------------------------------------------
# Statistics


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest of p99.9, p99, p90 and p50 with at least ten samples
    beyond it, as (percentile, value); None with fewer than 20 samples."""
    for tenths in (999, 990, 900, 500):  # percentile in tenths, exact arithmetic
        if len(values) * (1000 - tenths) >= 10 * 1000:
            return tenths / 10, quantile(values, tenths / 1000)
    return None


def pass_seconds(tally: Tally, ops: list[Op], stat: Callable[[list[float]], float]) -> float:
    """One pass over ``ops`` estimated as the sum over ops of ``stat`` of
    each op's times."""
    return sum(stat(tally.samples[op.key]) for op in ops if tally.samples[op.key])


def describe(values: list[float]) -> str:
    """'median X s, pNN Y s, n=N' for a list of timings in seconds."""
    if not values:
        return "no samples"
    text = f"median {statistics.median(values):.6g} s"
    t = tail(values)
    if t is not None and t[0] > 50:
        text += f", p{t[0]:g} {t[1]:.6g} s"
    return text + f", n={len(values)}"
