"""Synchronous totalistic cellular automaton over a d-dimensional binary grid.

A step computes every cell's next state from the previous generation only
(double buffering), so the result is deterministic and independent of any
internal evaluation order.  Neighbor counts are taken per offset: on a torus
smaller than the neighborhood span the same physical cell can be seen through
several offsets and is counted once per offset.  Boundaries are handled by one
padded copy of the grid per step (wrapped on a torus, dead cells outside a
fixed-dead grid), and every count is a sum of views of that copy.  Each
array holds its last two axes as one, the padded rows end to end, so that a
view is one run of whole rows and an add spans dims[-2] rows at a time.

Every offset list is summed one way.  Read axis by axis, the offsets form a
tree whose nodes are sub-neighbourhoods that many offsets share, and
_count_plan adds each shared sub-sum once, and reads a node that contains a
smaller sum on its axis as that sum plus the rest.  For a k-radius list that
is the paper's row recurrence T(d, k) = T(d-1, k) + 2r*T(d-1, k-1) as ring
sums (25 views in 7 sums for k_radius(5, 3, 1), against 130 offsets), for a
diamond the layers |D(1, m)| = |D(1, m-1)| + 2 under the Delannoy recurrence
(25 views in 5 sums for diamond(2, 5), against 60), and for a list with no
shared parts one view per offset.  Offsets that fold onto one cell of a
small torus are one view, multiplied.  Plans are cached by value, so a run,
or a few worlds stepped in turn, make each once.

A cell's next state depends on its key count + (|N|+1)*state.  The plan's
sums make count + state <= |N| + 1 in the narrowest unsigned type that
holds it (uint8 up to |N| = 254, uint16 up to 65534, uint32 above), and a
tile of cells at a time widens to the type of the largest key 2|N| + 1
(uint8 up to |N| = 127, uint16 up to 32767) as it adds |N|*state.  Birth
counts are keys 0..|N| and survival counts keys |N|+1..2|N|+1, so a rule
that is a span of birth counts and one of survival counts, as most are, is
two runs of live keys.  Each run [a, b] is one compare (key - a) <= b - a
in the key's own type.  Past _MAX_RUNS runs, where that costs more than a
gather, the next state is gathered from a table with np.take instead.

Grids are immutable values from the caller's perspective: step always
returns a fresh grid and never writes to an existing one.
"""

from __future__ import annotations

import copy
import enum
import functools
import io
import math
import os
import re
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .errors import BoundsError, CapacityError, DimensionError, DomainError, ParseError
from .neighborhoods import (
    _INTEGER, DEFAULT_CELL_CAP, Offset, _as_int, _coordinates, _exact, _expect, _offset_lines, _read_int, _rows,
    _shown, _text_line, format_term,
)


class Boundary(enum.Enum):
    TOROIDAL = "toroidal"
    FIXED_DEAD = "fixed-dead"


@dataclass(frozen=True, eq=False)
class Grid:
    """``dims`` is read, and refused, as make_grid reads it, and stored as
    Python ints.  ``states`` is an array of shape ``dims``, 0 dead and 1
    live, in any memory layout: uint8 holding only 0 and 1, or bool.  Any
    other type or value raises DomainError, and another shape DimensionError."""

    dims: tuple[int, ...]
    states: np.ndarray
    boundary: Boundary = Boundary.TOROIDAL

    def __post_init__(self) -> None:
        if not isinstance(self.boundary, Boundary):
            raise DomainError(f"boundary must be a Boundary, got {_exact(self.boundary)}")
        object.__setattr__(self, "dims", _grid_dims(self.dims))
        states = self.states
        if not isinstance(states, np.ndarray) or states.dtype not in (np.uint8, np.bool_):
            kind = states.dtype if isinstance(states, np.ndarray) else type(states).__name__
            raise DomainError(f"grid states must be a uint8 or bool array, got {kind}")
        if states.shape != self.dims:
            raise DimensionError(f"grid states of shape {states.shape} do not match dims {_exact(self.dims)}")
        # step reads a uint8 state as a count of 0 or 1; one pass of max, no copy
        if states.dtype == np.uint8 and states.size and states.max() > 1:
            raise DomainError(f"grid states must be 0 or 1, got {states.max()}")

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
            counts = getattr(self, name)
            try:
                counts = frozenset(_as_int(n, "rule count") for n in counts)
            except TypeError:  # a bare number, not a collection of counts
                raise DomainError(f"rule {name} must be a set of counts, got {_exact(counts)}") from None
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
    counts are comma-separated integers ('B3,12/S0,15') of up to 39457 digits
    (CapacityError past them), so large neighborhoods' counts above 9 can be
    written.  A part may end in one comma: 'B12,/S' is a lone birth count 12.
    """
    if not isinstance(text, str):
        raise ParseError(f"rule must be text, got {type(text).__name__}")
    match = re.fullmatch(r"[Bb]([0-9,]*)/[Ss]([0-9,]*)", text.strip())
    if match is None:
        raise ParseError(f"rule must look like B3/S23, got {_shown(text)}")

    def counts(part: str) -> frozenset[int]:
        fields = part.removesuffix(",").split(",") if "," in part else list(part)
        if None in (values := frozenset(map(_read_int, fields))):
            raise ParseError(f"bad counts {_shown(part)} in rule {_shown(text)}")
        return values

    return Rule(birth=counts(match.group(1)), survival=counts(match.group(2)))


def format_rule(rule: Rule) -> str:
    _expect(rule, Rule, "rule")
    def part(counts: frozenset[int]) -> str:
        ordered = sorted(counts)
        if all(c <= 9 for c in ordered):
            return "".join(map(format_term, ordered))
        return ",".join(map(format_term, ordered)) + "," * (len(ordered) == 1)

    return f"B{part(rule.birth)}/S{part(rule.survival)}"


_MAX_AXES = 64  # numpy's limit on an array's dimensions


def _grid_dims(dims: Sequence[int]) -> tuple[int, ...]:
    """``dims`` as Grid and make_grid read them: 1 to _MAX_AXES ints >= 1, of at most DEFAULT_CELL_CAP cells."""
    dims = _coordinates(dims, "grid dims")
    if not dims or any(n < 1 for n in dims):
        raise DomainError(f"grid dims must be positive, got {_exact(dims)}")
    if len(dims) > _MAX_AXES:
        raise DimensionError(f"grid of {len(dims)} axes exceeds numpy's limit of {_MAX_AXES}")
    if (cells := math.prod(dims)) > DEFAULT_CELL_CAP:
        raise CapacityError(f"grid of {_exact(cells)} cells would exceed the cap of {DEFAULT_CELL_CAP}")
    return dims


def make_grid(
    dims: Sequence[int],
    boundary: Boundary = Boundary.TOROIDAL,
    live_cells: np.ndarray | Iterable[Sequence[int]] = (),
) -> Grid:
    """A grid with exactly the listed cells live, of at most DEFAULT_CELL_CAP cells.

    ``live_cells`` are rows read as step reads offsets: an (n, d) integer
    array, as load_pattern returns, or any iterable of coordinate sequences;
    zero rows mean none live.  No dims, a dim below 1, a non-integer dim or
    coordinate, or a boundary that is not a Boundary, raises DomainError, as
    Grid does.  More than 64 dims (numpy's limit), a bare number in place of
    a sequence, or a cell of other than ``len(dims)`` components, raises
    DimensionError; the first cell outside the grid (a coordinate outside
    int64 included) raises BoundsError.
    """
    dims = _grid_dims(dims)
    coords = _rows(live_cells, len(dims), "cell", "grid dimension")
    states = np.zeros(dims, dtype=np.uint8)
    # one flat index per cell (numpy takes at most 63 index arrays); a column
    # is cast once in bounds, else the first cell outside is named as given
    flat = np.zeros(len(coords), dtype=np.int64)
    for column, n in zip(coords.T, dims):
        if flat.size and (column.min() < 0 or column.max() >= n):
            cell = tuple(coords[((coords < 0) | (coords >= dims)).any(axis=1).argmax()].tolist())
            raise BoundsError(f"cell {_exact(cell)} outside grid of dims {_exact(dims)}")
        flat *= n
        flat += column.astype(np.int64, copy=False)
    states.reshape(-1)[flat] = 1
    return Grid(dims, states, boundary)


def population(grid: Grid) -> int:
    _expect(grid, Grid, "grid")
    return int(grid.states.sum())


def live_cells(grid: Grid) -> list[tuple[int, ...]]:
    """Coordinates of the live cells in lexicographic order (np.argwhere's)."""
    _expect(grid, Grid, "grid")
    return list(map(tuple, np.argwhere(grid.states).tolist()))


def step(grid: Grid, rule: Rule, offsets: Sequence[Offset] | np.ndarray) -> Grid:
    """One synchronous update.

    A cell's next state is 1 iff it is dead with a live-neighbor count in
    rule.birth, or live with a count in rule.survival.  Neighbor lookups wrap
    on a toroidal grid and read 0 outside a fixed-dead one.  ``offsets``
    are rows read as make_grid reads cells, an (n, d) integer array or
    coordinate sequences, each component through operator.index: a numpy
    integer is a Python int, a non-integer a DomainError, and a bare number
    or an offset of another length a DimensionError.  A grid or rule of
    another type, or a rule count above len(offsets), raises DomainError; a
    padded copy of more than DEFAULT_CELL_CAP cells CapacityError.
    """
    rows = _step_rows(grid, rule, offsets)
    n = len(rows)

    runs, table = _lookup(rule, n)
    # count + state as rows of the last axis in C order, whatever the grid's
    # layout (a 1-D grid is one row); a tile of at most _BLOCK cells, whole rows
    # or a piece of one, becomes the key count + (n+1)*state, then the next state
    width = grid.dims[-1]
    count, alive = _index(grid, rows).reshape(-1, width), grid.states.reshape(-1, width)
    states = np.empty(count.shape, dtype=np.uint8)
    tall, wide = max(1, _BLOCK // width), min(width, _BLOCK)
    part = np.empty((min(len(count), tall), wide), dtype=np.min_scalar_type(2 * n + 1))
    scratch = np.empty(part.shape, dtype=bool)
    for tile in [(slice(top, top + tall), slice(left, left + wide))
                 for top in range(0, len(count), tall) for left in range(0, width, wide)]:
        here = count[tile]
        key = np.multiply(alive[tile], n, out=part[: len(here), : here.shape[1]], dtype=part.dtype)
        key += here
        if table is None:
            _test_runs(key, runs, states[tile].view(bool), scratch[: len(here), : here.shape[1]])
        else:
            np.take(table, key, out=states[tile])
    # states made here are 0 or 1 by construction, so Grid's check of them,
    # a pass over every cell (about 3% of a 1024^2 Life step), is skipped
    stepped = copy.copy(grid)
    object.__setattr__(stepped, "states", states.reshape(grid.dims))
    return stepped


def _step_rows(grid: Grid, rule: Rule, offsets: Sequence[Offset] | np.ndarray) -> np.ndarray:
    """``offsets`` as step and run read them, an (n, d) integer array, once
    the grid, rule and n are checked.  Rows of a type that int64 does not
    hold (Python ints, uint64) become the int64 rows that read the same
    cells, since _count_plan casts to int64: modulo each axis on a torus,
    and clipped to one axis length, reading only dead cells, if fixed-dead."""
    _expect(grid, Grid, "grid")
    _expect(rule, Rule, "rule")
    rows = _rows(offsets, len(grid.dims), "offset", "grid dimension")
    rule.check_fits(len(rows))
    if not np.can_cast(rows.dtype, np.int64):
        dims = np.array(grid.dims, dtype=object)
        rows = (rows % dims if grid.boundary is Boundary.TOROIDAL else np.clip(rows, -dims, dims)).astype(np.int64)
    return rows


_BLOCK = 2**16  # cells whose key is made or looked up at once
# Past this many runs of live keys np.take is faster than testing the runs.
# Steps timed with each lookup forced (2 shared vCPUs, medians of 31
# alternating rounds of 10 steps): on a 1024^2 torus with Moore-1 (uint8
# keys) np.take took 3.0 ms for any rule and the runs 1.35 ms for 2 runs,
# 2.21 for 6 and 2.85 for 9; with moore(2, 8) on 512^2 (uint16 keys) np.take
# took 2.8 ms, the runs 2.43 for 2, 2.70 for 6 and 2.83 for 7.
_MAX_RUNS = 6


@functools.lru_cache(maxsize=8)  # a few rules stepped in turn each keep theirs
def _lookup(rule: Rule, n: int) -> tuple[list[list[int]], np.ndarray | None]:
    """(runs, table): how step finds the next state for ``rule`` and n offsets.

    A cell comes out live iff its key count + (n+1)*state is a birth count
    or n + 1 past a survival count.  Up to _MAX_RUNS runs of such keys, step
    tests a tile of keys run by run, and ``table`` is None; past it, it
    gathers the next state from ``table`` with np.take, which first casts
    each tile of keys to intp.
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
    overwritten, and ``live`` and ``scratch`` are bool arrays of its shape.

    In the key's unsigned type key - a wraps below a, so one compare
    (key - a) <= b - a tests a run.  Each run subtracts its start less the
    previous start in place, which leaves key - a in ``key``.
    """
    if not runs:
        live[...] = False
    below = 0
    for i, (a, b) in enumerate(runs):
        if a != below:
            key -= a - below
            below = a
        np.less_equal(key, b - a, out=scratch if i else live)
        if i:
            live |= scratch


def _index(grid: Grid, rows: np.ndarray) -> np.ndarray:
    """count + state per cell, of the shape of the grid, for ``rows``, the
    offsets as an (n, d) integer array.

    Runs _count_plan's sums over one padded copy of the grid, each array
    with its last two axes as one.  The root is added into rows of dims[-1]
    + 2*reach[-1] cells, and the result views the first dims[-1] of each.  A
    sum never exceeds count + state <= n + 1, so the sums are made in the
    narrowest unsigned type that holds n + 1; step widens a tile at a time
    to the key's type as it adds n*state.
    """
    reach, sums = _count_plan(rows.tobytes(), rows.dtype, grid.dims, grid.boundary)
    dtype = np.min_scalar_type(len(rows) + 1)
    arrays, out = [_padded(grid, reach)], None
    arrays[0] = arrays[0].reshape(arrays[0].shape[:-2] + (-1,))
    for views, drops in sums:
        # a view read ``times`` times is added once, multiplied
        terms = (arrays[j][at] if times == 1 else np.multiply(arrays[j][at], times, dtype=dtype)
                 for j, at, times in views)
        first, second = next(terms), next(terms, None)
        if len(arrays) == len(sums):  # the root: its views stop 2*reach[-1] cells short of its rows' end
            root = np.empty(grid.dims[:-1] + (grid.dims[-1] + 2 * reach[-1],), dtype=dtype)
            out = root.reshape(root.shape[:-2] + (-1,))[..., : first.shape[-1]]
        total = np.add(first, 0 if second is None else second, out=out, dtype=dtype)
        for term in terms:
            total += term
        first = second = term = None  # views of the arrays dropped next, which they would keep alive
        for j in drops:
            arrays[j] = None
        arrays.append(total)
    return root[..., : grid.dims[-1]]


def _padded(grid: Grid, reach: Sequence[int]) -> np.ndarray:
    """A fresh C-ordered copy of the grid padded by reach[i] on each side of
    axis i: wrapped on a torus, where reach[i] <= dims[i], and dead cells on
    a fixed-dead grid."""
    shape = tuple(n + 2 * p for n, p in zip(grid.dims, reach))
    if (padded_cells := math.prod(shape)) > DEFAULT_CELL_CAP:
        raise CapacityError(f"padded grid of {padded_cells} cells would exceed the cap of {DEFAULT_CELL_CAP}")
    torus = grid.boundary is Boundary.TOROIDAL
    padded = (np.empty if torus else np.zeros)(shape, dtype=grid.states.dtype)
    padded[tuple(slice(p, p + n) for n, p in zip(grid.dims, reach))] = grid.states
    for axis, (n, p) in enumerate(zip(grid.dims, reach) if torus else ()):
        # each pad copies whole slabs, the earlier axes' pads included
        lead = (slice(None),) * axis
        padded[lead + (slice(0, p),)] = padded[lead + (slice(n, n + p),)]
        padded[lead + (slice(n + p, n + 2 * p),)] = padded[lead + (slice(p, 2 * p),)]
    return padded


@functools.lru_cache(maxsize=8)  # a few lists, grid shapes or boundaries stepped in turn each keep theirs
def _count_plan(rows: bytes, dtype: np.dtype, dims: tuple[int, ...], boundary: Boundary) -> tuple:
    """(reach, sums): how _index sums views of the padded grid into counts.

    ``rows`` and ``dtype`` are the bytes and type of the (n, d) offsets,
    read back as an int64 array, so the cache is keyed by value.  The offsets
    and the zero offset (the cell itself) form a tree, built from axis 0 up:
    at axis i a node is the sorted multiset of (component on axis i, child
    node) over the offsets that agree on the axes after i, held as
    ((component, child), multiplicity) entries, and equal nodes are one
    node.  The root, and each node read at least twice with at least two
    entries, is a sum (one array); other nodes are read through their
    children, so each shared sub-sum is added once.  A node whose entries
    hold those of a smaller sum on its axis, its base, is read as one view
    of the base plus the entries that remain, wherever it is read: a
    diamond's row segment of half-width w is the one of w - 1 plus 2 views,
    and the root reads its widest segment that way, with no array of its
    own: diamond(2, 5) is 25 views in 5 sums.

    ``reach[i]`` pads axis i on each side.  ``sums[j]`` is (views, drops)
    for array j + 1, array 0 being the padded grid: it adds its views
    (earlier array, index tuple, times), each distinct view once times the
    number of ways the offsets read it, then frees the arrays in ``drops``,
    which it is the last to read.  A sum over axes 0..i is cropped on those
    axes and padded on the others; the last sum is the root, count + state.
    Every array holds its last two axes as one, rows of w = dims[-1] +
    2*reach[-1] cells end to end, so an index has d - 1 slices: a crop on
    axis d-2 is a run of whole rows, and a shift on axis d-1 moves the run's
    start and ends it 2*reach[-1] cells short, past the grid's last row.
    """
    d, n = len(dims), np.array(dims, dtype=np.int64)
    offsets = np.frombuffer(rows, dtype).reshape(-1, d).astype(np.int64)
    # keep every pad within its axis: on a torus fold each component into
    # [-n//2, n - n//2) (rows % n first, which cannot wrap); on a fixed-dead
    # grid drop an offset that reaches a whole axis length, as it reads only
    # dead cells.  A folded repeat is one cell read through several offsets:
    # each distinct offset, in the order first read, is one entry, multiplied.
    if boundary is Boundary.TOROIDAL:
        offsets = (offsets % n + n // 2) % n - n // 2
    else:
        offsets = offsets[((-n < offsets) & (offsets < n)).all(axis=1)]
    reach = tuple(np.abs(offsets).max(axis=0, initial=0).tolist())
    near = Counter(zip(*offsets.T.tolist()))
    near[(0,) * d] += 1

    # node ids in the order made, node 0 the padded grid; tops: (components left, node, times)
    nodes: dict[tuple, int] = {(-1, ()): 0}
    tops = [(off, 0, m) for off, m in near.items()]
    for axis in range(d):
        groups: defaultdict[tuple, Counter] = defaultdict(Counter)
        for rest, child, m in tops:
            groups[rest[1:]][rest[0], child] += m
        tops = [(rest, nodes.setdefault((axis, tuple(sorted(entries.items()))), len(nodes)), 1)
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

    # from axis 0 up and the smallest node first, each node takes as its base
    # the largest sum on its axis whose entries it holds, and is read as that
    # base plus the entries that remain; a sum is filed under its first
    # entry, which a node must hold to hold all of them
    size = [sum(m for _, m in entries) for _, entries in tree]
    order = sorted(range(1, len(tree)), key=lambda node: (tree[node][0], size[node]))
    nested, filed = {}, defaultdict(list)  # nested: node -> (base, entries that remain)
    for node in order:
        held = dict(tree[node][1])
        bases = [base for entry in held for base in filed[entry]] if len(held) >= 2 else []
        for base in sorted(bases, key=size.__getitem__, reverse=True):
            if all(held.get(entry, 0) >= m for entry, m in tree[base][1]):
                for entry, m in tree[base][1]:
                    held[entry] -= m
                nested[node] = (base, tuple((entry, m) for entry, m in held.items() if m))
                break
        if is_sum[node]:
            filed[tree[node][1][0][0]].append(node)

    def views_of(node: int) -> Counter:
        """(sum, path) -> times: the views that the sum ``node`` adds.  It,
        and each node between it and the sums it reads, adds one view of its
        base if it has one and reads its remaining entries; a node between
        crops and shifts one axis."""
        views: Counter = Counter()
        stack = [(node, (), 1)]
        while stack:
            node, path, times = stack.pop()
            base, entries = nested.get(node, (None, tree[node][1]))
            if base is not None:
                views[base, path] += times
            for (c, child), m in entries:
                at = path + ((tree[node][0], c),)
                if is_sum[child]:
                    views[child, at] += times * m
                else:
                    stack.append((child, at, times * m))
        return views

    # arrays in the order walked above, after the padded grid: a base has
    # fewer entries than the node built on it, and the root is alone on the
    # last axis, so each array comes after those it reads
    array_of = {node: j for j, node in enumerate([0] + [node for node in order if is_sum[node]])}
    sums, last_read = [], {}
    w, height = dims[-1] + 2 * reach[-1], math.prod(dims[-2:-1])  # a 1-D grid is one row of w
    for node in list(array_of)[1:]:
        made = []
        for (child, path), times in views_of(node).items():
            start = {i: reach[i] + s for i, s in path}
            index = [slice(start[i], start[i] + dims[i]) if i in start else slice(None) for i in range(d - 2)]
            top = start.get(d - 2, 0) * w + start.get(d - 1, 0)
            cut = height * w - 2 * reach[-1] * (d - 1 in start)  # so a shifted run ends in the last row
            index.append(slice(top, top + cut) if start.keys() & {d - 2, d - 1} else slice(None))
            made.append((array_of[child], tuple(index), times))
            last_read[array_of[child]] = len(sums) + 1
        sums.append(tuple(made))
    drops: list[list[int]] = [[] for _ in sums]
    for j, last in last_read.items():
        drops[last - 1].append(j)
    return reach, tuple(zip(sums, drops))


def run(
    grid: Grid,
    rule: Rule,
    offsets: Sequence[Offset] | np.ndarray,
    steps: int,
    observer: Callable[[int, int], None] | None = None,
) -> Grid:
    """Apply step exactly ``steps`` times, reading ``offsets`` once into a
    copy of their int rows, which every step takes and finds its plan by.

    What step refuses, or an observer that is not callable, raises before
    step 1, so also at steps=0, which returns ``grid`` unchanged.  After
    step i the observer (if any) receives i and the population.
    """
    if (steps := _as_int(steps, "steps")) < 0:
        raise DomainError(f"steps must be >= 0, got {_exact(steps)}")
    if observer is not None and not callable(observer):
        raise DomainError(f"observer must be callable, got {type(observer).__name__}")
    # a copy, since an observer could write to the caller's array; the steps
    # look step up through the module, where a tracer may wrap it
    rows = np.array(_step_rows(grid, rule, offsets))
    for i in range(1, steps + 1):
        grid = step(grid, rule, rows)
        if observer is not None:
            observer(i, population(grid))
    return grid


# --------------------------------------------------------------------------
# Pattern files and snapshots


def load_pattern(source: str | Path | Iterable[str | bytes]) -> np.ndarray:
    """Live-cell coordinates from a pattern file, as an (n, d) int64 array.

    ``source`` is a path or the file's lines (str, or bytes held to ASCII as a
    file is), with no line break but at their end; anything else, or a path
    holding a NUL, raises ParseError, and a path that cannot be read OSError.
    Each line holds one cell as comma-separated integers, each field
    ``[+-]?[0-9]+`` after stripping whitespace, of any length, in the int64
    range.  '#' starts a comment anywhere on a line and blank lines are
    ignored, so a file without cells gives zero rows.  A bad field, a value
    outside int64, a component count other than the first cell's, or a line
    that is not text raises ParseError naming the line.  numpy's chunked
    reader reads a path to a regular local file not named .gz, .bz2, .xz or
    .lzma, so no URL is fetched, no file decompressed and no sibling .gz
    opened; other paths (a pipe, /dev/stdin) are read through a text handle.
    """
    if isinstance(source, (str, Path)):
        if "\0" in str(source):  # which open refuses with ValueError
            raise ParseError(f"pattern path {_shown(str(source))} holds a NUL character")
        # "./" before a relative path leaves numpy no URL scheme to read and,
        # unlike abspath, folds no "link/.."; the handle reads what it refuses
        path = os.path.join(os.curdir, source)
        if os.path.isfile(path) and not path.endswith(_COMPRESSED):
            try:
                return _loadtxt(path)
            except (ValueError, OSError):
                pass
        try:
            with open(source, "r", encoding="ascii") as handle:
                # read at once, since a pipe cannot be read again for the errors
                return _parse_pattern(handle.read().split("\n"))
        except UnicodeDecodeError:
            raise ParseError(f"{source}: pattern file is not ASCII text") from None
    try:
        lines = list(source)
    except TypeError:
        raise ParseError(f"pattern must be a path or lines of text, got {type(source).__name__}") from None
    return _parse_pattern(lines)


def _parse_pattern(lines: list[str | bytes]) -> np.ndarray:
    try:
        return _loadtxt(lines)
    except (ValueError, TypeError):  # TypeError: a caller's line that is not text
        pass
    lines = [_text_line(line, lineno) for lineno, line in enumerate(lines, start=1)]
    text = "\n".join(lines)
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


def _loadtxt(source: str | IO[str] | list[str | bytes]) -> np.ndarray:
    with warnings.catch_warnings():
        # a file without cells is zero rows, not a warning on stderr
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(source, dtype=np.int64, delimiter=",", comments="#", ndmin=2, encoding="ascii")


_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")  # the suffixes numpy decompresses
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
                raise ParseError(f"line {lineno}: {_shown(field)} is not an integer")
            # past 19 significant digits no value fits, so none is converted
            if len(field.lstrip("+-").lstrip("0")) > 19 or not _INT64.min <= _read_int(field) <= _INT64.max:
                raise ParseError(f"line {lineno}: {_shown(field, str)} is outside the 64-bit integer range")
        width = width or len(fields)
        if len(fields) != width:
            raise ParseError(f"line {lineno}: {len(fields)} components, the first cell has {width}")


def render_snapshot(grid: Grid) -> str:
    """Human-readable grid state.

    2-D grids render as one row per line, '.' dead and 'O' live.  Other
    dimensions list the live-cell coordinates, one per line, in the pattern
    file format.
    """
    _expect(grid, Grid, "grid")
    if len(grid.dims) == 2:
        rows, cols = grid.dims
        chars = np.full((rows, cols + 1), ord("\n"), dtype=np.uint8)
        chars[:, :cols] = np.where(grid.states, ord("O"), ord("."))
        return chars.tobytes()[:-1].decode("ascii")
    return _offset_lines(np.argwhere(grid.states)).decode("ascii")[:-1]
