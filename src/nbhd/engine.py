"""Synchronous totalistic cellular automaton over a d-dimensional binary grid.

A step computes every cell's next state from the previous generation only
(double buffering), so the result is deterministic and independent of any
internal evaluation order.  Neighbor counts are taken per offset: on a torus
smaller than the neighborhood span the same physical cell can be seen through
several offsets and is counted once per offset.  Boundaries are handled by one
padded copy of the grid per step (wrapped on a torus, dead cells outside a
fixed-dead grid), and every count is a sum of views of that copy.

Every offset list is summed one way.  Read axis by axis, the offsets form a
tree whose nodes are sub-neighbourhoods that many offsets share, and
_count_plan adds each shared sub-sum once.  For a k-radius list that is the
paper's row recurrence T(d, k) = T(d-1, k) + 2r*T(d-1, k-1) as ring sums
(25 views in 7 sums for k_radius(5, 3, 1), against 130 offsets), for a
diamond the Delannoy recurrence D(d, r) = D(d-1, r) + D(d-1, r-1) + D(d, r-1)
(45 views for diamond(2, 5), against 60), and for a list with no shared
parts one view per offset.  Offsets that fold onto one cell of a small torus
are one view, multiplied.

A cell's next state depends on its key count + (|N|+1)*state.  The plan's
sums make count + state in the narrowest unsigned type that holds the
largest key 2|N| + 1 (uint8 up to |N| = 127, uint16 up to 32767, uint32
above), and a block of cells at a time adds |N|*state.  Birth counts are
keys 0..|N| and survival counts keys |N|+1..2|N|+1, so a rule that is a
span of birth counts and one of survival counts, as most are, is two runs
of live keys.  Each run [a, b] is one compare (key - a) <= b - a in the
key's own type.  Past _MAX_RUNS runs, where that costs more than a gather,
the next state is gathered from a table with np.take instead.

Grids are immutable values from the caller's perspective: step always
returns a fresh grid and never writes to an existing one.
"""

from __future__ import annotations

import enum
import functools
import io
import math
import re
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .errors import BoundsError, CapacityError, DimensionError, DomainError, ParseError
from .neighborhoods import _INTEGER, DEFAULT_CELL_CAP, Offset, _as_int, _exact, _offset_lines


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
                raise DomainError(f"rule counts must be nonnegative, got {_exact(n)}")

    def check_fits(self, size: int) -> None:
        """Raise DomainError when a count exceeds the neighborhood size."""
        for n in self.birth | self.survival:
            if n > size:
                raise DomainError(f"rule count {_exact(n)} exceeds the neighborhood size {_exact(size)}")


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


_MAX_AXES = 64  # numpy's limit on an array's dimensions


def make_grid(
    dims: Sequence[int],
    boundary: Boundary = Boundary.TOROIDAL,
    live_cells: np.ndarray | Iterable[Sequence[int]] = (),
) -> Grid:
    """A grid with exactly the listed cells live, of at most DEFAULT_CELL_CAP cells.

    ``live_cells`` is an (n, d) integer array, as load_pattern returns, or
    any iterable of coordinate sequences; zero rows mean no live cells,
    whatever their width and dtype.  A dim or coordinate that is not an
    integer raises DomainError.  More than 64 dims (numpy's limit), or a
    cell with other than ``len(dims)`` components, raises DimensionError; the
    first cell outside the grid (a coordinate outside int64 included) raises
    BoundsError.
    """
    dims = tuple(_as_int(n, "grid dim") for n in dims)
    if not dims or any(n < 1 for n in dims):
        raise DomainError(f"grid dims must be positive, got {_exact(dims)}")
    if len(dims) > _MAX_AXES:
        raise DimensionError(f"grid of {len(dims)} axes exceeds numpy's limit of {_MAX_AXES}")
    cells = math.prod(dims)
    if cells > DEFAULT_CELL_CAP:
        raise CapacityError(f"grid of {_exact(cells)} cells would exceed the cap of {DEFAULT_CELL_CAP}")
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
        # one flat index per cell: numpy takes at most 63 index arrays
        flat = np.zeros(len(coords), dtype=np.int64)
        for column, n in zip(coords.T, dims):
            flat *= n
            flat += column
        states.reshape(-1)[flat] = 1
    return Grid(dims, states, boundary)


def _check_cell(cell: Sequence[int], dims: tuple[int, ...]) -> tuple[int, ...]:
    """``cell`` as a tuple of ints inside the grid, or the error it is."""
    try:
        cell = tuple(_as_int(c, "cell coordinate") for c in cell)
    except TypeError:  # a bare number
        raise DimensionError(f"live cell {_exact(cell)} is not a coordinate sequence") from None
    if len(cell) != len(dims):
        raise DimensionError(f"cell {_exact(cell)} does not match grid dimension {len(dims)}")
    if any(not 0 <= c < n for c, n in zip(cell, dims)):
        raise BoundsError(f"cell {_exact(cell)} outside grid of dims {_exact(dims)}")
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
    on a toroidal grid and read 0 outside a fixed-dead one.  Every offset
    component goes through operator.index, so numpy integers are read as
    Python ints and a non-integer raises DomainError.  An (n, d) array, as
    offset_array returns, is taken as its rows.  A padded copy of more than
    DEFAULT_CELL_CAP cells raises CapacityError before it is made.
    """
    if isinstance(offsets, np.ndarray):
        offsets = offsets.tolist()
    # as ints before the plan's cache key is made: 1.0 == 1 and hashes alike
    offsets = tuple(tuple(_as_int(c, "offset component") for c in off) for off in offsets)
    d = len(grid.dims)
    for off in offsets:
        if len(off) != d:
            raise DimensionError(f"offset {_exact(off)} does not match grid dimension {d}")
    n = len(offsets)
    rule.check_fits(n)

    runs, table = _lookup(rule, n)
    # count + state per cell, flat in C order whatever the grid's layout; a
    # block at a time it becomes the key count + (n+1)*state, then the next
    # state
    key, alive = _index(grid, offsets).reshape(-1), grid.states.reshape(-1)
    states = np.empty(key.size, dtype=np.uint8)
    part = np.empty(min(key.size, _BLOCK), dtype=key.dtype)
    scratch = np.empty(min(key.size, _BLOCK), dtype=bool)
    for start in range(0, key.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        here = key[block]
        here += np.multiply(alive[block], n, out=part[: here.size], dtype=key.dtype)
        if table is None:
            _test_runs(here, runs, states[block].view(bool), scratch)
        else:
            np.take(table, here, out=states[block])
    return Grid(grid.dims, states.reshape(grid.dims), grid.boundary)


_BLOCK = 2**16  # cells whose key is made or looked up at once
# Past this many runs of live keys np.take is faster than testing the runs.
# Steps timed with each lookup forced (2 shared vCPUs, medians of 31
# alternating rounds of 10 steps): on a 1024^2 torus with Moore-1 (uint8
# keys) np.take took 3.0 ms for any rule and the runs 1.35 ms for 2 runs,
# 2.21 for 6 and 2.85 for 9; with moore(2, 8) on 512^2 (uint16 keys) np.take
# took 2.8 ms, the runs 2.43 for 2, 2.70 for 6 and 2.83 for 7.
_MAX_RUNS = 6


@functools.lru_cache(maxsize=1)  # run steps with one rule: every step after the first reuses it
def _lookup(rule: Rule, n: int) -> tuple[list[list[int]], np.ndarray | None]:
    """(runs, table): how step finds the next state for ``rule`` and n offsets.

    A cell comes out live iff its key count + (n+1)*state is a birth count
    or n + 1 past a survival count.  Up to _MAX_RUNS runs of such keys, step
    tests a block of keys run by run, and ``table`` is None; past it, it
    gathers the next state from ``table`` with np.take, which first casts
    each block of keys to intp.
    """
    live = sorted(rule.birth | {n + 1 + c for c in rule.survival})
    runs: list[list[int]] = []  # maximal runs [a, b] of consecutive live keys
    for k in live:
        if runs and runs[-1][1] == k - 1:
            runs[-1][1] = k
        else:
            runs.append([k, k])
    if len(runs) <= _MAX_RUNS:
        return runs, None
    table = np.zeros(2 * n + 2, dtype=np.uint8)
    table[live] = 1
    table.flags.writeable = False  # shared by every step that reuses it
    return runs, table


def _test_runs(key: np.ndarray, runs: Sequence[Sequence[int]], live: np.ndarray, scratch: np.ndarray) -> None:
    """live = key is in one of ``runs``, sorted disjoint [a, b]; ``key`` is
    overwritten, and ``scratch`` is a bool array at least as long.

    In the key's unsigned type key - a wraps below a, so one compare
    (key - a) <= b - a tests a run.  Each run subtracts its start less the
    previous start in place, which leaves key - a in ``key``.
    """
    if not runs:
        live[...] = False
    other, below = scratch[: key.size], 0
    for i, (a, b) in enumerate(runs):
        if a != below:
            key -= a - below
            below = a
        np.less_equal(key, b - a, out=other if i else live)
        if i:
            live |= other


def _index(grid: Grid, offsets: tuple[Offset, ...]) -> np.ndarray:
    """count + state per cell, of the shape of the grid, for ``offsets``, a
    tuple of int tuples.

    Runs _count_plan's sums over one padded copy of the grid.  Counts never
    exceed n = len(offsets), so the sums are made in the narrowest unsigned
    type that holds the largest key 2n + 1, which step adds n*state toward.
    """
    n = len(offsets)
    reach, sums = _count_plan(offsets, grid.dims, grid.boundary)
    dtype = np.min_scalar_type(2 * n + 1)
    arrays = [_padded(grid, reach)]
    for views, drops in sums:
        # a view read ``times`` times is added once, multiplied
        terms = (arrays[j][at] if times == 1 else np.multiply(arrays[j][at], times, dtype=dtype)
                 for j, at, times in views)
        first, second = next(terms), next(terms, None)
        total = first.astype(dtype) if second is None else np.add(first, second, dtype=dtype)
        for term in terms:
            total += term
        for j in drops:
            arrays[j] = None
        arrays.append(total)
    return arrays[-1]


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


@functools.lru_cache(maxsize=1)  # run steps with one list: every step after the first reuses it
def _count_plan(offsets: tuple[Offset, ...], dims: tuple[int, ...], boundary: Boundary) -> tuple:
    """(reach, sums): how _index sums views of the padded grid into counts.

    The offsets and the zero offset (the cell itself) form a tree, built
    from axis 0 up: at axis i a node is the sorted multiset of (component on
    axis i, child node) over the offsets that agree on the axes after i,
    held as ((component, child), multiplicity) entries, and equal nodes are
    one node.  The root, and each node read at least twice with at least two
    entries, is a sum (one array); other nodes are read through their
    children, so each shared sub-sum is added once.

    ``reach[i]`` pads axis i on each side.  ``sums[j]`` is (views, drops)
    for array j + 1, array 0 being the padded grid: it adds its views
    (earlier array, index tuple, times), each distinct view once times the
    number of ways the offsets read it, then frees the arrays in ``drops``,
    which it is the last to read.  A sum over axes 0..i is cropped on those
    axes and padded on the others; the last sum is the root, count + state.
    """
    d = len(dims)
    # keep every pad within its axis: on a torus fold each component into
    # [-n//2, n - n//2); on a fixed-dead grid drop an offset that reaches a
    # whole axis length, since it reads only dead cells.  A folded repeat is
    # one cell read through several offsets, so it counts once per offset:
    # one view, multiplied.
    if boundary is Boundary.TOROIDAL:
        near = [tuple((o + n // 2) % n - n // 2 for o, n in zip(off, dims)) for off in offsets]
    else:
        near = [off for off in offsets if all(abs(o) < n for o, n in zip(off, dims))]
    near.append((0,) * d)
    reach = tuple(max(abs(off[i]) for off in near) for i in range(d))

    # node ids in the order made, node 0 being the padded grid; tops pairs
    # each node of the last axis done with the components after it
    nodes: dict[tuple, int] = {(-1, ()): 0}
    tops = [(off, 0) for off in near]
    for axis in range(d):
        groups: defaultdict[tuple, Counter] = defaultdict(Counter)
        for rest, child in tops:
            groups[rest[1:]][rest[0], child] += 1
        tops = [(rest, nodes.setdefault((axis, tuple(sorted(entries.items()))), len(nodes)))
                for rest, entries in groups.items()]
    tree = list(nodes)  # tree[node] = (axis, entries)

    # from the root down, a node that is not a sum passes its reads on
    reads, is_sum = [0] * len(tree), [True] * len(tree)
    reads[-1] = 1
    for node in range(len(tree) - 1, 0, -1):
        entries = tree[node][1]
        is_sum[node] = node == len(tree) - 1 or (reads[node] >= 2 and len(entries) >= 2)
        for (_, child), _ in entries:
            reads[child] += 1 if is_sum[node] else reads[node]

    # a sum reads an earlier one through the nodes between them, each of
    # which crops and shifts one axis
    order = [node for node in range(len(tree)) if is_sum[node]]
    array_of = {node: j for j, node in enumerate(order)}
    sums, last_read = [], {}
    for node in order[1:]:
        views: Counter = Counter()  # (array, path) -> times
        stack = [(node, (), 1)]
        while stack:
            at, path, times = stack.pop()
            axis, entries = tree[at]
            for (c, child), m in entries:
                if is_sum[child]:
                    view = (array_of[child], path + ((axis, c),))
                    views[view] += times * m
                    last_read[array_of[child]] = len(sums) + 1
                else:
                    stack.append((child, path + ((axis, c),), times * m))
        made = []
        for (j, path), times in views.items():
            index = [slice(None)] * d
            for i, s in path:
                index[i] = slice(reach[i] + s, reach[i] + s + dims[i])
            made.append((j, tuple(index), times))
        sums.append(tuple(made))
    drops = [tuple(j for j, last in last_read.items() if last == k) for k in range(1, len(sums) + 1)]
    return reach, tuple(zip(sums, drops))


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
        raise DomainError(f"steps must be >= 0, got {_exact(steps)}")
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
