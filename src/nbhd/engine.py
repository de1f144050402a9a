"""Synchronous totalistic cellular automaton over a d-dimensional binary grid.

A step computes every cell's next state from the previous generation only
(double buffering), so the result is deterministic and independent of any
internal evaluation order.  Neighbor counts are taken per offset: on a torus
smaller than the neighborhood span the same physical cell can be seen through
several offsets and is counted once per offset.  Boundaries are handled by one
padded copy of the grid per step (wrapped on a torus, dead cells outside a
fixed-dead grid), and every count is a sum of views of that copy.

How the views are summed depends on the offset list alone.  A list that is
exactly a k-radius neighborhood with k >= 2 (Moore's among them), in any
order, is counted axis by axis: the paper's row recurrence
T(d, k) = T(d-1, k) + 2r*T(d-1, k-1) says such a count is e_1 + ... + e_k,
where e_j is the j-th elementary symmetric sum of the per-axis ring filters
(the line sum over -r..r without 0), and a DP over the axes gives it in
O(d*k) ring passes of 2r adds each, not one add per offset (130 for
k_radius(5, 3, 1)).  Every other list, diamonds, shells, sharp-k sets and
k = 1 sets included, adds one view per offset; for k = 1 the ring sums cost
the same one add per offset and measured no faster.  Both ways give the
same counts.  Counts accumulate in the narrowest unsigned type that holds the
rule-table index 2*|N| + 1 (uint8 up to |N| = 127, uint16 up to 32767,
uint32 above), and the next state is gathered from the table with np.take.

Grids are immutable values from the caller's perspective: step always
returns a fresh grid and never writes to an existing one.
"""

from __future__ import annotations

import enum
import io
import itertools
import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .errors import BoundsError, CapacityError, DimensionError, DomainError, ParseError
from .counting import count
from .neighborhoods import _INTEGER, DEFAULT_CELL_CAP, Offset, _as_int, _offset_lines, k_radius


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
        for name in ("birth", "survival"):
            counts = frozenset(_as_int(n, "rule count") for n in getattr(self, name))
            object.__setattr__(self, name, counts)
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
    counts above 9 for large neighborhoods.  Such a part may end in one comma,
    so a lone count above 9 is written 'B12,/S'.
    """
    match = re.fullmatch(r"[Bb]([0-9,]*)/[Ss]([0-9,]*)", text.strip())
    if match is None:
        raise ParseError(f"rule must look like B3/S23, got {text!r}")

    def counts(part: str) -> frozenset[int]:
        if not part:
            return frozenset()
        try:
            if "," in part:
                return frozenset(int(f) for f in part.removesuffix(",").split(","))
            return frozenset(int(ch) for ch in part)
        except ValueError:
            raise ParseError(f"bad counts {part!r} in rule {text!r}") from None

    return Rule(birth=counts(match.group(1)), survival=counts(match.group(2)))


def format_rule(rule: Rule) -> str:
    def part(counts: frozenset[int]) -> str:
        ordered = sorted(counts)
        if all(c <= 9 for c in ordered):
            return "".join(str(c) for c in ordered)
        return ",".join(str(c) for c in ordered) + "," * (len(ordered) == 1)

    return f"B{part(rule.birth)}/S{part(rule.survival)}"


def make_grid(
    dims: Sequence[int],
    boundary: Boundary = Boundary.TOROIDAL,
    live_cells: np.ndarray | Iterable[Sequence[int]] = (),
) -> Grid:
    """A grid with exactly the listed cells live, of at most DEFAULT_CELL_CAP cells.

    ``live_cells`` is an (n, d) integer array, as load_pattern returns, or
    any iterable of coordinate sequences; zero rows mean no live cells,
    whatever their width and dtype.  A dim or coordinate that is not an
    integer raises DomainError.  A cell with other than ``len(dims)``
    components raises DimensionError; the first cell outside the grid (a
    coordinate outside int64 included) raises BoundsError.
    """
    dims = tuple(_as_int(n, "grid dim") for n in dims)
    if not dims or any(n < 1 for n in dims):
        raise DomainError(f"grid dims must be positive, got {dims}")
    cells = math.prod(dims)
    if cells > DEFAULT_CELL_CAP:
        raise CapacityError(f"grid of {cells} cells would exceed the cap of {DEFAULT_CELL_CAP}")
    if not isinstance(live_cells, np.ndarray):
        live_cells = list(live_cells)
    try:
        coords = np.asarray(live_cells)
    except ValueError:  # ragged cells
        coords = None
    if coords is None or (coords.size and (coords.dtype.kind not in "iu" or coords.max() > _INT64.max)):
        # ragged cells, non-integers, or integers past int64 (which numpy may
        # read as floats, or hold as uint64): check each cell as Python ints,
        # naming the first bad one
        coords = np.array([_check_cell(cell, dims) for cell in live_cells], dtype=np.int64)
    coords = coords.astype(np.int64, copy=False)
    states = np.zeros(dims, dtype=np.uint8)
    if len(coords):
        if coords.ndim != 2:
            raise DimensionError(f"live cells must be coordinate sequences, got shape {coords.shape}")
        if coords.shape[1] != len(dims):
            _check_cell(coords[0].tolist(), dims)
        outside = ((coords < 0) | (coords >= dims)).any(axis=1)
        if outside.any():
            _check_cell(coords[outside.argmax()].tolist(), dims)
        states[tuple(coords.T)] = 1
    return Grid(dims, states, boundary)


def _check_cell(cell: Sequence[int], dims: tuple[int, ...]) -> tuple[int, ...]:
    """``cell`` as a tuple of ints inside the grid, or the error it is."""
    try:
        cell = tuple(_as_int(c, "cell coordinate") for c in cell)
    except TypeError:  # a bare number
        raise DimensionError(f"live cell {cell!r} is not a coordinate sequence") from None
    if len(cell) != len(dims):
        raise DimensionError(f"cell {cell} does not match grid dimension {len(dims)}")
    if any(not 0 <= c < n for c, n in zip(cell, dims)):
        raise BoundsError(f"cell {cell} outside grid of dims {dims}")
    return cell


def population(grid: Grid) -> int:
    return int(grid.states.sum())


def live_cells(grid: Grid) -> list[tuple[int, ...]]:
    """Coordinates of the live cells in lexicographic order (np.argwhere's)."""
    return list(map(tuple, np.argwhere(grid.states).tolist()))


def step(grid: Grid, rule: Rule, offsets: Sequence[Offset] | np.ndarray) -> Grid:
    """One synchronous update.

    A cell's next state is 1 iff it is dead with a live-neighbor count in
    rule.birth, or live with a count in rule.survival.  Neighbor lookups wrap
    on a toroidal grid and read 0 outside a fixed-dead one.  A padded copy of
    more than DEFAULT_CELL_CAP cells raises CapacityError before it is made.

    When ``offsets`` are exactly the members of a k-radius neighborhood with
    k >= 2, in any order, the counts come from per-axis ring sums
    (_ring_index); any other list, k = 1 sets included, is added one offset
    at a time (_offset_index), since a k = 1 ring sum is one add per offset
    too.  Both give the same counts.  An (n, d) array, as offset_array
    returns, is taken as its rows.
    """
    if isinstance(offsets, np.ndarray):
        # narrow numpy scalars overflow against axis lengths past their type
        # (int8 + 256), and the k-radius recognition is ~10x slower on them
        offsets = list(map(tuple, offsets.tolist()))
    d = len(grid.dims)
    for off in offsets:
        if len(off) != d:
            raise DimensionError(f"offset {off} does not match grid dimension {d}")
    rule.check_fits(len(offsets))

    # table[count, state] is the next state, gathered flat at 2*count + state;
    # counts never exceed len(offsets), so that index fits the narrowest
    # unsigned type holding 2*len(offsets) + 1
    dtype = np.min_scalar_type(2 * len(offsets) + 1)
    k_r = _as_k_radius(offsets, d)
    if k_r is None:
        index = _offset_index(grid, offsets, dtype)
    else:
        index = _ring_index(grid, *k_r, dtype)
    table = np.zeros((len(offsets) + 1, 2), dtype=np.uint8)
    table[list(rule.birth), 0] = 1
    table[list(rule.survival), 1] = 1
    return Grid(grid.dims, np.take(table.ravel(), index), grid.boundary)


def _as_k_radius(offsets: Sequence[Offset], d: int) -> tuple[int, int] | None:
    """(k, r) when ``offsets`` are exactly the members of k_radius(d, k, r)
    with k >= 2, in any order; None for every other list.

    With r the largest |component| and k the most nonzero components, a list
    of distinct nonzero offsets lies inside that set, so it is the set iff
    it is as long.
    """
    if not len(offsets):
        return None
    r = int(max(map(abs, itertools.chain.from_iterable(offsets))))
    # a set with k >= 2 holds the 2rd members with one nonzero component and
    # the C(d, 2)(2r)^2 with two; this rejects most lists, and the huge r of
    # far offsets, before any other work
    if len(offsets) < 2 * r * d + d * (d - 1) // 2 * (2 * r) ** 2:
        return None
    sizes = [d - tuple(off).count(0) for off in offsets]
    k = max(sizes)
    if k < 2 or len(offsets) != count(k_radius(d, k, r)):
        return None
    if min(sizes) == 0 or len(set(map(tuple, offsets))) != len(offsets):
        return None
    return k, r


def _padded(grid: Grid, reach: Sequence[int]) -> np.ndarray:
    """The grid padded by reach[i] on each side of axis i: wrapped on a torus,
    dead cells on a fixed-dead grid."""
    padded_cells = math.prod(n + 2 * p for n, p in zip(grid.dims, reach))
    if padded_cells > DEFAULT_CELL_CAP:
        raise CapacityError(
            f"padded grid of {padded_cells} cells would exceed the cap of {DEFAULT_CELL_CAP}"
        )
    mode = "wrap" if grid.boundary is Boundary.TOROIDAL else "constant"
    return np.pad(grid.states, [(p, p) for p in reach], mode=mode)


def _offset_index(grid: Grid, offsets: Sequence[Offset], dtype: np.dtype) -> np.ndarray:
    """2*count + state per cell, adding one view of the padded grid per offset."""
    # keep every pad within its axis: on a torus fold each component into
    # [-n//2, n - n//2); on a fixed-dead grid drop an offset that reaches a
    # whole axis length, since it reads only dead cells
    dims, d = grid.dims, len(grid.dims)
    if grid.boundary is Boundary.TOROIDAL:
        near = [tuple((o + n // 2) % n - n // 2 for o, n in zip(off, dims)) for off in offsets]
    else:
        near = [off for off in offsets if all(abs(o) < n for o, n in zip(off, dims))]
    reach = [max((abs(off[i]) for off in near), default=0) for i in range(d)]
    padded = _padded(grid, reach)
    counts = np.zeros(dims, dtype=dtype)
    for off in near:
        counts += padded[tuple(slice(p + o, p + o + n) for o, p, n in zip(off, reach, dims))]
    counts *= 2
    counts += grid.states
    return counts


def _ring_index(grid: Grid, k: int, r: int, dtype: np.dtype) -> np.ndarray:
    """2*count + state per cell for the neighborhood k_radius(d, k, r).

    The paper's row recurrence T(d, k) = T(d-1, k) + 2r*T(d-1, k-1) read as
    an algorithm.  sums[j] counts the live cells at offsets with at most j
    nonzero components, all on the axes done so far and within r, the
    center included; each axis updates it to sums[j] + ring(sums[j-1]),
    where ring adds the shifts -r..r without 0 along that axis.  After the
    last axis, sums[k] is the neighbor count plus the cell itself.
    """
    dims, d = grid.dims, len(grid.dims)
    shifts = [*range(-r, 0), *range(1, r + 1)]
    if grid.boundary is Boundary.TOROIDAL:
        # folded as _offset_index folds; a repeated residue is one cell read
        # through several offsets, so it counts once per offset
        rings = [Counter((s + n // 2) % n - n // 2 for s in shifts) for n in dims]
    else:
        rings = [Counter(s for s in shifts if abs(s) < n) for n in dims]
    reach = [max(map(abs, ring), default=0) for ring in rings]
    # sums[j] is cropped on the axes done and padded on the rest; sums[j]
    # for j past the highest key equals the highest key's
    sums = {0: _padded(grid, reach)}
    for i, (ring, p, n) in enumerate(zip(rings, reach, dims)):
        top = max(sums)
        # only sums[k - (axes left)] and above can still reach sums[k]
        low = max(0, k - (d - 1 - i))
        for j in range(min(top + 1, k), low - 1, -1):
            base = _along(sums[min(j, top)], i, p, n)
            sums[j] = _add_ring(base, sums[j - 1], ring, i, p, n, dtype) if j else base
        for j in [j for j in sums if j < low]:
            del sums[j]
    # 2*count + state = 2*(sums[k] - state) + state, wrapping back into range
    index = sums[k]
    index *= 2
    index -= grid.states
    return index


def _along(array: np.ndarray, axis: int, start: int, n: int) -> np.ndarray:
    return array[(slice(None),) * axis + (slice(start, start + n),)]


def _add_ring(
    base: np.ndarray, source: np.ndarray, ring: Counter, axis: int, p: int, n: int, dtype: np.dtype
) -> np.ndarray:
    """A new ``dtype`` array: base plus source read at every shift in ring."""
    total = None
    for s, times in ring.items():
        term = _along(source, axis, p + s, n)
        if times > 1:
            term = np.multiply(term, times, dtype=dtype)
        if total is None:
            total = np.add(base, term, dtype=dtype)
        else:
            total += term
    return base.astype(dtype) if total is None else total


def run(
    grid: Grid,
    rule: Rule,
    offsets: Sequence[Offset] | np.ndarray,
    steps: int,
    observer: Callable[[int, int], None] | None = None,
) -> Grid:
    """Apply step exactly ``steps`` times.

    After each step the observer (if any) receives the 1-based step index and
    the population.  steps=0 returns the input grid unchanged.
    """
    if (steps := _as_int(steps, "steps")) < 0:
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
            if not _INTEGER.fullmatch(field):
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
    return _offset_lines(np.argwhere(grid.states)).decode("ascii")[:-1]
