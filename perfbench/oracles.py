"""Output oracles that share no code path with nbhd.

Neighbourhoods come from the families' definitions applied to the box
[-r, r]^d with numpy, steps from ``scipy.ndimage.correlate``, and sequence
terms from closed forms over ``math.comb``.  Nothing here is timed: expected
outputs are built once per run, before the measured passes.
"""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path

import numpy as np
from scipy import ndimage

from .measure import Op, Outcome
from .workloads import Case, Shape


def _member(shape: Shape, nonzero, largest, total):
    """The family's definition, over arrays of per-offset statistics: number
    of nonzero components, largest |component| and Manhattan length."""
    if shape.family == "diamond":
        return (total == shape.r) if shape.sharp_r else (total >= 1) & (total <= shape.r)
    ok = (largest >= 1) & (largest <= shape.r)
    ok &= (nonzero == shape.k) if shape.sharp_k else (nonzero <= shape.k)
    if shape.sharp_r:
        ok &= largest == shape.r
    return ok


def mask(shape: Shape) -> np.ndarray:
    """Membership over the whole box as a (2r+1)^d boolean array, centre at r."""
    box = np.abs(np.indices((2 * shape.r + 1,) * shape.d) - shape.r)
    return _member(shape, (box > 0).sum(axis=0), box.max(axis=0), box.sum(axis=0))


def members(shape: Shape) -> np.ndarray:
    """Member offsets in lexicographic order, one row each.

    The box is filtered one axis at a time, dropping prefixes that no
    completion can bring back (too many nonzeros, too long), so boxes such
    as 13^8 never have to be held whole.
    """
    values = np.arange(-shape.r, shape.r + 1)
    rows = np.zeros((1, 0), dtype=np.int64)
    for _ in range(shape.d):
        rows = np.column_stack([np.repeat(rows, len(values), axis=0), np.tile(values, len(rows))])
        mags = np.abs(rows)
        if shape.family == "diamond":
            rows = rows[mags.sum(axis=1) <= shape.r]
        else:
            rows = rows[(mags > 0).sum(axis=1) <= shape.k]
    mags = np.abs(rows)
    return rows[_member(shape, (mags > 0).sum(axis=1), mags.max(axis=1), mags.sum(axis=1))]


def step(states: np.ndarray, case: Case) -> np.ndarray:
    weights = mask(case.shape).astype(np.int32)
    mode = "wrap" if case.torus else "constant"
    counts = ndimage.correlate(states.astype(np.int32), weights, mode=mode, cval=0)
    born = np.isin(counts, case.birth)
    kept = np.isin(counts, case.survival)
    return np.where(states.astype(bool), kept, born).astype(np.uint8)


def evolve(states: np.ndarray, case: Case) -> np.ndarray:
    for _ in range(case.steps):
        states = step(states, case)
    return states


# --------------------------------------------------------------------------
# Sequences


def _delannoy(m: int, n: int) -> int:
    return sum(math.comb(m, k) * math.comb(n, k) << k for k in range(min(m, n) + 1))


def sequence_terms(seq_id: str, terms: int) -> list[tuple[int, int]]:
    """(n, a(n)) pairs from closed forms, in the layouts of tests/fixtures."""
    values: list[int] = []
    if seq_id == "A005843":
        values = [2 * n for n in range(terms)]
    elif seq_id == "A024023":
        values = [3**n - 1 for n in range(terms)]
    else:
        for s in itertools.count(0 if seq_id in ("A013609", "A008288") else 1):
            if seq_id == "A013609":  # row s: 2^k C(s, k), k = 0..s
                values += [math.comb(s, k) << k for k in range(s + 1)]
            elif seq_id == "A265014":  # row s: sum_{j<=k} 2^j C(s, j), k = 1..s
                acc = 0
                for j in range(1, s + 1):
                    acc += math.comb(s, j) << j
                    values.append(acc)
            elif seq_id == "A266213":  # shell = D(d, r) - D(d, r-1), d + r = s + 1
                values += [_delannoy(d, s + 1 - d) - _delannoy(d, s - d) for d in range(1, s + 1)]
            else:  # A008288: D(i, s - i)
                values += [_delannoy(i, s - i) for i in range(s + 1)]
            if len(values) >= terms:
                break
    first = 1 if seq_id in ("A265014", "A266213") else 0
    return [(first + i, v) for i, v in enumerate(values[:terms])]


def bfile_bytes(pairs: list[tuple[int, int]]) -> bytes:
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return "".join(f"{n} {v}\n" for n, v in pairs).encode("ascii")
    finally:
        sys.set_int_max_str_digits(saved)


def offsets_bytes(rows: np.ndarray) -> bytes:
    return "".join(",".join(map(str, row)) + "\n" for row in rows.tolist()).encode("ascii")


# --------------------------------------------------------------------------
# Checking outcomes


def _terms(op: Op) -> int:
    return int(op.argv[op.argv.index("--terms") + 1])


class Checker:
    """Expected outputs per op, computed once; ``check`` compares one outcome."""

    def __init__(self, fixtures: Path):
        self.fixtures = fixtures
        self.expected: dict[str, object] = {}
        self.finals: dict[str, np.ndarray] = {}  # case name -> oracle's final grid

    def prime(self, ops: list[Op], initial: dict[str, np.ndarray]) -> None:
        for op in ops:
            if op.key not in self.expected:
                self.expected[op.key] = self._expect(op, initial)

    def _expect(self, op: Op, initial: dict[str, np.ndarray]) -> object:
        if op.group in ("simulate", "run"):
            case = op.payload
            if case.name not in self.finals:
                self.finals[case.name] = evolve(initial[case.name], case)
            return self.finals[case.name]
        if op.group == "count":
            return f"{len(members(op.payload))}\n".encode("ascii")
        if op.group == "enumerate":
            return offsets_bytes(members(op.payload))
        if op.group == "sequence":
            if op.probe:  # built only if the probe ever succeeds
                return None
            expected = bfile_bytes(sequence_terms(op.payload, _terms(op)))
            golden = (self.fixtures / f"b{op.payload[1:]}.txt").read_bytes()
            if not expected.startswith(golden):
                raise RuntimeError(f"closed form for {op.payload} disagrees with {golden!r:.40}")
            return expected
        return None

    def check(self, op: Op, outcome: Outcome) -> str | None:
        expected = self.expected.get(op.key)
        if op.group == "run":
            ok = np.array_equal(outcome.value.states, expected)
        elif op.group == "simulate":
            ok = outcome.stdout.endswith(f"final population {int(expected.sum())}\n".encode())
        elif op.group == "verify":
            ok = outcome.stdout.endswith(b"all checks passed\n")
        elif op.group == "sequence" and expected is None:
            ok = outcome.stdout == bfile_bytes(sequence_terms(op.payload, _terms(op)))
        else:
            ok = outcome.stdout == expected
        return None if ok else "output differs from the oracle"
