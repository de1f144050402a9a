"""Synchronous totalistic cellular automaton over a d-dimensional binary grid.

A step computes every cell's next state from the previous generation only
(double buffering), so the result is deterministic and independent of any
internal evaluation order.  Neighbor counts are taken per offset: on a torus
smaller than the neighborhood span the same physical cell can be seen through
several offsets and is counted once per offset.  Boundaries are handled by one
padded copy of the grid per step (wrapped on a torus, dead cells outside a
fixed-dead grid), so every offset is added as a view of that copy.

Grids are immutable values from the caller's perspective: step always
returns a fresh grid and never writes to an existing one.
"""

from __future__ import annotations

import enum
import io
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .errors import BoundsError, CapacityError, DimensionError, DomainError, ParseError
from .neighborhoods import DEFAULT_CELL_CAP, Offset, format_offset


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
    live_cells: np.ndarray | Iterable[Sequence[int]] = (),
) -> Grid:
    """A grid with exactly the listed cells live, of at most DEFAULT_CELL_CAP cells.

    ``live_cells`` is an (n, d) integer array, as load_pattern returns, or
    any iterable of coordinate sequences; zero rows mean no live cells,
    whatever their width.  A cell with other than ``len(dims)`` components
    raises DimensionError; the first cell outside the grid (a coordinate
    outside int64 included) raises BoundsError.
    """
    dims = tuple(int(n) for n in dims)
    if not dims or any(n < 1 for n in dims):
        raise DomainError(f"grid dims must be positive, got {dims}")
    cells = math.prod(dims)
    if cells > DEFAULT_CELL_CAP:
        raise CapacityError(f"grid of {cells} cells would exceed the cap of {DEFAULT_CELL_CAP}")
    if not isinstance(live_cells, np.ndarray):
        live_cells = list(live_cells)
    try:
        coords = np.asarray(live_cells, dtype=np.int64)
    except (ValueError, OverflowError):
        # ragged cells or a coordinate outside int64: name the first bad cell
        for cell in live_cells:
            _check_cell(tuple(int(c) for c in cell), dims)
        raise
    states = np.zeros(dims, dtype=np.uint8)
    if len(coords):
        if coords.ndim != 2:
            raise DimensionError(f"live cells must be coordinate sequences, got shape {coords.shape}")
        if coords.shape[1] != len(dims):
            _check_cell(tuple(coords[0].tolist()), dims)
        outside = ((coords < 0) | (coords >= dims)).any(axis=1)
        if outside.any():
            _check_cell(tuple(coords[outside.argmax()].tolist()), dims)
        states[tuple(coords.T)] = 1
    return Grid(dims, states, boundary)


def _check_cell(cell: tuple[int, ...], dims: tuple[int, ...]) -> None:
    if len(cell) != len(dims):
        raise DimensionError(f"cell {cell} does not match grid dimension {len(dims)}")
    if any(not 0 <= c < n for c, n in zip(cell, dims)):
        raise BoundsError(f"cell {cell} outside grid of dims {dims}")


def population(grid: Grid) -> int:
    return int(grid.states.sum())


def live_cells(grid: Grid) -> list[tuple[int, ...]]:
    """Coordinates of the live cells in lexicographic order (np.argwhere's)."""
    return list(map(tuple, np.argwhere(grid.states).tolist()))


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

    # keep every pad within its axis: on a torus fold each component into
    # [-n//2, n - n//2); on a fixed-dead grid drop an offset that reaches a
    # whole axis length, since it reads only dead cells
    dims, states = grid.dims, grid.states
    if grid.boundary is Boundary.TOROIDAL:
        mode = "wrap"
        near = [tuple((o + n // 2) % n - n // 2 for o, n in zip(off, dims)) for off in offsets]
    else:
        mode = "constant"
        near = [off for off in offsets if all(abs(o) < n for o, n in zip(off, dims))]
    reach = [max((abs(off[i]) for off in near), default=0) for i in range(d)]
    padded = np.pad(states, [(p, p) for p in reach], mode=mode)
    counts = np.zeros(dims, dtype=np.int32)
    for off in near:
        counts += padded[tuple(slice(p + o, p + o + n) for o, p, n in zip(off, reach, dims))]

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


def load_pattern(source: str | Path | Iterable[str]) -> np.ndarray:
    """Live-cell coordinates from a pattern file, as an (n, d) int64 array.

    ``source`` is a path or the file's lines, with no line break but at
    their end.  Each line holds one cell as
    comma-separated integers, each field ``[+-]?[0-9]+`` after stripping
    whitespace and inside the int64 range.  '#' starts a comment anywhere on
    a line and blank lines are ignored, so a file without cells gives zero
    rows.  A bad field, a value outside int64, or a component count other
    than the first cell's raises ParseError naming the line.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="ascii") as handle:
                return _parse_pattern(handle)
        except UnicodeDecodeError:
            raise ParseError(f"{source}: pattern file is not ASCII text") from None
    return _parse_pattern(list(source))


def _parse_pattern(lines: IO[str] | list[str]) -> np.ndarray:
    try:
        return _loadtxt(lines)
    except ValueError:
        pass
    if isinstance(lines, list):
        text = "\n".join(lines)
    else:
        lines.seek(0)
        text = lines.read()
        lines = text.split("\n")
    try:
        # loadtxt reads whitespace before a comment or the line's end as a
        # cell with a bad field; blank such lines, and read a lone '\r' in a
        # caller's line as a line break, as a file opened in text mode does
        return _loadtxt(io.StringIO(_BLANK_LINE.sub("", text), newline=None))
    except ValueError:
        pass
    # loadtxt's row numbers skip comment lines and change base with the kind
    # of error, so read the lines again to name the offending one
    _check_pattern_lines(lines)
    raise ParseError("pattern is not one cell per line")


def _loadtxt(source: IO[str] | list[str]) -> np.ndarray:
    with warnings.catch_warnings():
        # a file without cells is zero rows, not a warning on stderr
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(source, dtype=np.int64, delimiter=",", comments="#", ndmin=2)


_BLANK_LINE = re.compile(r"^[^\S\n]*(?:#.*)?$", re.MULTILINE)
_FIELD = re.compile(r"[+-]?[0-9]+")
_INT64 = np.iinfo(np.int64)


def _check_pattern_lines(lines: Iterable[str]) -> None:
    """Raise ParseError naming the first line that breaks the pattern grammar."""
    width = 0
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        fields = [f.strip() for f in text.split(",")]
        for field in fields:
            if not _FIELD.fullmatch(field):
                raise ParseError(f"line {lineno}: {field!r} is not an integer")
            # past 19 significant digits no value fits, and int() stops at 4300
            if len(field.lstrip("+-").lstrip("0")) > 19 or not _INT64.min <= int(field) <= _INT64.max:
                raise ParseError(f"line {lineno}: {field} is outside the 64-bit integer range")
        width = width or len(fields)
        if len(fields) != width:
            raise ParseError(f"line {lineno}: {len(fields)} components, the first cell has {width}")


def render_snapshot(grid: Grid) -> str:
    """Human-readable grid state.

    2-D grids render as one row per line, '.' dead and 'O' live.  Other
    dimensions list the live-cell coordinates, one per line, in the pattern
    file format.
    """
    if len(grid.dims) == 2:
        rows, cols = grid.dims
        chars = np.full((rows, cols + 1), ord("\n"), dtype=np.uint8)
        chars[:, :cols] = np.where(grid.states, ord("O"), ord("."))
        return chars.tobytes()[:-1].decode("ascii")
    return "\n".join(format_offset(cell) for cell in live_cells(grid))
