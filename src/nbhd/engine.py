"""Synchronous totalistic cellular automaton over a d-dimensional binary grid.

A step computes every cell's next state from the previous generation only
(double buffering), so the result is deterministic and independent of any
internal evaluation order.  Neighbor counts are taken per offset: on a torus
smaller than the neighborhood span the same physical cell can be seen through
several offsets and is counted once per offset.

Grids are immutable values from the caller's perspective: step always
returns a fresh grid and never writes to an existing one.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import BoundsError, DimensionError, DomainError, ParseError
from .neighborhoods import Offset, format_offset, parse_offset


class Boundary(enum.Enum):
    TOROIDAL = "toroidal"
    FIXED_DEAD = "fixed-dead"


@dataclass(frozen=True, eq=False)
class Grid:
    dims: tuple[int, ...]
    states: np.ndarray  # uint8 array of shape dims; 0 dead, 1 live
    boundary: Boundary = Boundary.TOROIDAL

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.boundary == other.boundary
            and np.array_equal(self.states, other.states)
        )


@dataclass(frozen=True)
class Rule:
    """Totalistic birth/survival rule over live-neighbor counts."""

    birth: frozenset[int]
    survival: frozenset[int]

    def __post_init__(self) -> None:
        for n in self.birth | self.survival:
            if n < 0:
                raise DomainError(f"rule counts must be nonnegative, got {n}")

    def check_fits(self, size: int) -> None:
        """Raise DomainError when a count exceeds the neighborhood size."""
        for n in self.birth | self.survival:
            if n > size:
                raise DomainError(f"rule count {n} exceeds the neighborhood size {size}")


def parse_rule(text: str) -> Rule:
    """Parse 'B3/S23' style rules.

    Without commas every character is a single-digit count; with commas the
    counts are read as comma-separated integers ('B3,12/S0,15'), which allows
    counts above 9 for large neighborhoods.
    """
    match = re.fullmatch(r"[Bb]([0-9,]*)/[Ss]([0-9,]*)", text.strip())
    if match is None:
        raise ParseError(f"rule must look like B3/S23, got {text!r}")

    def counts(part: str) -> frozenset[int]:
        if not part:
            return frozenset()
        try:
            if "," in part:
                return frozenset(int(f) for f in part.split(","))
            return frozenset(int(ch) for ch in part)
        except ValueError:
            raise ParseError(f"bad counts {part!r} in rule {text!r}") from None

    return Rule(birth=counts(match.group(1)), survival=counts(match.group(2)))


def format_rule(rule: Rule) -> str:
    def part(counts: frozenset[int]) -> str:
        ordered = sorted(counts)
        if all(c <= 9 for c in ordered):
            return "".join(str(c) for c in ordered)
        return ",".join(str(c) for c in ordered)

    return f"B{part(rule.birth)}/S{part(rule.survival)}"


def make_grid(
    dims: Sequence[int],
    boundary: Boundary = Boundary.TOROIDAL,
    live_cells: Iterable[Sequence[int]] = (),
) -> Grid:
    """A grid with exactly the listed cells live."""
    dims = tuple(int(n) for n in dims)
    if not dims or any(n < 1 for n in dims):
        raise DomainError(f"grid dims must be positive, got {dims}")
    states = np.zeros(dims, dtype=np.uint8)
    for cell in live_cells:
        cell = tuple(int(c) for c in cell)
        if len(cell) != len(dims):
            raise DimensionError(f"cell {cell} does not match grid dimension {len(dims)}")
        if any(not 0 <= c < n for c, n in zip(cell, dims)):
            raise BoundsError(f"cell {cell} outside grid of dims {dims}")
        states[cell] = 1
    return Grid(dims, states, boundary)


def population(grid: Grid) -> int:
    return int(grid.states.sum())


def live_cells(grid: Grid) -> list[tuple[int, ...]]:
    return [tuple(int(c) for c in cell) for cell in np.argwhere(grid.states)]


def _shifted_fill_dead(states: np.ndarray, offset: Offset) -> np.ndarray:
    # out[x] = states[x + offset], zero outside the grid
    out = np.zeros_like(states)
    src, dst = [], []
    for n, o in zip(states.shape, offset):
        lo, hi = max(0, -o), min(n, n - o)
        if lo >= hi:
            return out
        dst.append(slice(lo, hi))
        src.append(slice(lo + o, hi + o))
    out[tuple(dst)] = states[tuple(src)]
    return out


def step(grid: Grid, rule: Rule, offsets: Sequence[Offset]) -> Grid:
    """One synchronous update.

    A cell's next state is 1 iff it is dead with a live-neighbor count in
    rule.birth, or live with a count in rule.survival.  Neighbor lookups wrap
    on a toroidal grid and read 0 outside a fixed-dead one.
    """
    d = len(grid.dims)
    for off in offsets:
        if len(off) != d:
            raise DimensionError(f"offset {off} does not match grid dimension {d}")
    rule.check_fits(len(offsets))

    states = grid.states
    counts = np.zeros(grid.dims, dtype=np.int32)
    axes = tuple(range(d))
    for off in offsets:
        if grid.boundary is Boundary.TOROIDAL:
            counts += np.roll(states, shift=tuple(-o for o in off), axis=axes)
        else:
            counts += _shifted_fill_dead(states, off)

    # table[count, state] is the next state; gathered flat at 2*count + state,
    # in place on counts (int32, so the index never overflows the uint8 states)
    table = np.zeros((len(offsets) + 1, 2), dtype=np.uint8)
    table[list(rule.birth), 0] = 1
    table[list(rule.survival), 1] = 1
    counts *= 2
    counts += states
    return Grid(grid.dims, table.ravel()[counts], grid.boundary)


def run(
    grid: Grid,
    rule: Rule,
    offsets: Sequence[Offset],
    steps: int,
    observer: Callable[[int, int], None] | None = None,
) -> Grid:
    """Apply step exactly ``steps`` times.

    After each step the observer (if any) receives the 1-based step index and
    the population.  steps=0 returns the input grid unchanged.
    """
    if steps < 0:
        raise DomainError(f"steps must be >= 0, got {steps}")
    current = grid
    for i in range(1, steps + 1):
        current = step(current, rule, offsets)
        if observer is not None:
            observer(i, population(current))
    return current


# --------------------------------------------------------------------------
# Pattern files and snapshots


def load_pattern(source: str | Path | Iterable[str]) -> list[tuple[int, ...]]:
    """Live-cell coordinates from a pattern file: one comma-separated tuple
    per line, '#' lines and blank lines ignored."""
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="ascii") as handle:
                lines = handle.readlines()
        except UnicodeDecodeError:
            raise ParseError(f"{source}: pattern file is not ASCII text") from None
        return load_pattern(lines)
    cells = []
    for lineno, line in enumerate(source, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            cells.append(parse_offset(text))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return cells


def render_snapshot(grid: Grid) -> str:
    """Human-readable grid state.

    2-D grids render as one row per line, '.' dead and 'O' live.  Other
    dimensions list the live-cell coordinates, one per line, in the pattern
    file format.
    """
    if len(grid.dims) == 2:
        return "\n".join(
            "".join("O" if v else "." for v in row) for row in grid.states
        )
    return "\n".join(format_offset(cell) for cell in sorted(live_cells(grid)))
