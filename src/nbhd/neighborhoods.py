"""Neighborhood families on the integer lattice.

Two families cover the classical cellular-automata neighborhoods and their
radius generalizations:

* ``K_RADIUS``: cells whose offset has at most ``k`` (or, sharp, exactly
  ``k``) nonzero components, each bounded by ``r`` in absolute value.
  ``k=1, r=1`` is von Neumann's neighborhood, ``k=d, r=1`` is Moore's,
  ``k=1, r>1`` is the narrow von Neumann extension, ``k=d, r>1`` is Moore
  of radius ``r``.
* ``DIAMOND``: cells at Manhattan distance at most ``r`` (or, sharp,
  exactly ``r``).  Radius 1 coincides with von Neumann's neighborhood.

The center cell (the all-zero offset) is never a member of any
neighborhood.  All types here are immutable values and all functions are
pure, so everything is safe to share between threads.

Every coordinate sequence a caller hands the package, an offset, a live cell
or a grid's dims, is read by _coordinates, and rows of them (live cells,
step's offsets) by _rows, which reads each bad row through _coordinates.
"""

from __future__ import annotations

import decimal
import enum
import functools
import itertools
import operator
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, DimensionError, DomainError, ParseError

Offset = tuple[int, ...]

# Safety rails for counts, enumeration, box scans, grids and sequence terms.
DEFAULT_COUNT_BITS = 2**17  # about 39.5k decimal digits
# at its peak offset_array holds 3-12 bytes per component (16 in one dimension,
# where the sort's int64 order is half the peak); the public enumerate_offsets'
# tuples 20-70, which simulate does not make
DEFAULT_OFFSET_CAP = 2**24  # components, offsets * dimension
DEFAULT_BOX_CAP = 2**26  # points; scanned in chunks of _BOX_CHUNK, so memory stays bounded
# a step holds its padded copy and the count plan's partial sums, each padded
# on the axes not yet summed: about 3 bytes per cell for 1024^2 Life, 7.2 for
# k_radius(5, 3, 1) on 16^5, 49 for k_radius(8, 4, 1) on a 6^8 torus
DEFAULT_CELL_CAP = 2**28  # grids and padded copies
DEFAULT_TERM_CAP = 2**16  # A024023 alone holds about 0.24 * N**2 digits for N terms
_BOX_CHUNK = 2**16  # box points decoded at once: a (d, points) int64 array
_INTEGER = re.compile(r"[+-]?[0-9]+")  # an integer field of offset, pattern and b-file text


def format_term(value: int) -> str:
    """Decimal digits of ``value``, exact at any size: str(int), or Decimal where
    str refuses a value past the interpreter's digit limit (4300 by default,
    down to 640 by PYTHONINTMAXSTRDIGITS).  Every int the package writes does."""
    try:
        return str(value)
    except ValueError:
        return str(decimal.Decimal(value))


def _exact(value) -> str:
    """An int, or a tuple of ints, as str writes it, but exact at any size,
    through format_term.  Any other value is its repr, or its type's name
    where repr refuses an int inside it past the digit limit.  Error
    messages write their values through it."""
    if isinstance(value, tuple):
        parts = [_exact(v) for v in value]
        return f"({', '.join(parts)}{',' * (len(parts) == 1)})"
    try:
        return format_term(operator.index(value))
    except TypeError:
        pass
    try:
        return repr(value)
    except ValueError:
        return f"a {type(value).__name__} holding an int past the digit limit"


def _as_int(value, name: str) -> int:
    """``value`` through operator.index, so a numpy integer becomes a Python
    int; DomainError for a float, a string or any other non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {_exact(value)}") from None


def _expect(value, kind: type, name: str) -> None:
    """DomainError unless ``value`` is a ``kind``: a whole argument of the
    wrong type is refused before any of its attributes is read."""
    if not isinstance(value, kind):
        raise DomainError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def _coordinates(value, what: str, d: int | None = None, against: str = "dimension") -> tuple[int, ...]:
    """``value``, an offset, a cell or a grid's dims, as a tuple of Python
    ints, each read through _as_int (DomainError for a non-integer).  A bare
    number is a DimensionError, and so, given ``d``, is any other length,
    named as "``what`` ... does not match ``against`` d"."""
    try:
        coords = tuple(_as_int(c, f"{what} component") for c in value)
    except TypeError:  # a bare number
        raise DimensionError(f"{what} {_exact(value)} is not a coordinate sequence") from None
    if d is not None and len(coords) != d:
        raise DimensionError(f"{what} {_exact(coords)} does not match {against} {_exact(d)}")
    return coords


def _rows(rows, d: int, what: str, against: str) -> np.ndarray:
    """``rows``, an (n, d) array or any iterable of coordinate sequences, as
    an (n, d) integer array; zero rows, of any width and dtype, are no rows.

    Where numpy reads ``rows`` as integers of width d (an int8 offset_array,
    load_pattern's int64, a list of int tuples) that array is the result.
    Anything else is read row by row through _coordinates, which names the
    first bad row, into an object array of Python ints, exact past int64.
    A bare number, or a 0-d array, is a DimensionError.
    """
    try:
        rows = rows if isinstance(rows, np.ndarray) and rows.ndim else list(rows)
    except TypeError:  # a bare number, or a 0-d array of one
        raise DimensionError(f"{what}s {_exact(rows)} are not coordinate sequences") from None
    if not len(rows):
        return np.zeros((0, d), dtype=np.int64)
    try:
        array = np.asarray(rows)
        if array.dtype.kind in "iu" and array.shape[1:] == (d,):
            return array
    except ValueError:  # ragged rows
        pass
    coords = [_coordinates(row, what, d, against) for row in rows]
    return np.array(coords, dtype=object).reshape(-1, d)


class Family(enum.Enum):
    K_RADIUS = "k-radius"
    DIAMOND = "diamond"


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Parameters selecting one neighborhood: family, dimension, k, r, sharpness.

    ``sharp_k`` restricts to exactly ``k`` nonzero components (k-radius family
    only); ``sharp_r`` restricts to the shell at distance exactly ``r`` instead
    of the filled set at distance up to ``r``.  Both flags must be bools; a
    numpy bool is stored as the Python bool it holds.
    """

    dimension: int
    family: Family = Family.K_RADIUS
    k: int | None = None
    r: int = 1
    sharp_k: bool = False
    sharp_r: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            raise DomainError(f"family must be a Family, got {_exact(self.family)}")
        for name in ("sharp_k", "sharp_r"):
            if type(flag := getattr(self, name)) is not bool:
                if not isinstance(flag, np.bool_):
                    raise DomainError(f"{name} must be a bool, got {_exact(flag)}")
                object.__setattr__(self, name, bool(flag))
        for name in ("dimension", "r") if self.k is None else ("dimension", "k", "r"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if self.dimension < 1:
            raise DomainError(f"dimension must be >= 1, got {_exact(self.dimension)}")
        if self.r < 1:
            raise DomainError(f"r must be >= 1, got {_exact(self.r)}")
        if self.family is Family.K_RADIUS:
            if self.k is None:
                raise DomainError("k is required for the k-radius family")
            if not 1 <= self.k <= self.dimension:
                raise DomainError(
                    f"k must satisfy 1 <= k <= dimension={_exact(self.dimension)}, got {_exact(self.k)}"
                )
        else:
            if self.k is not None:
                raise DomainError("the diamond family takes no k")
            if self.sharp_k:
                raise DomainError("sharp_k does not apply to the diamond family")


def k_radius(
    dimension: int, k: int, r: int = 1, *, sharp_k: bool = False, sharp_r: bool = False
) -> NeighborhoodSpec:
    return NeighborhoodSpec(dimension, Family.K_RADIUS, k, r, sharp_k, sharp_r)


def diamond(dimension: int, r: int = 1, *, sharp_r: bool = False) -> NeighborhoodSpec:
    return NeighborhoodSpec(dimension, Family.DIAMOND, None, r, False, sharp_r)


def von_neumann(dimension: int) -> NeighborhoodSpec:
    return k_radius(dimension, 1, 1)


def moore(dimension: int, r: int = 1) -> NeighborhoodSpec:
    return k_radius(dimension, dimension, r)


def narrow_von_neumann(dimension: int, r: int) -> NeighborhoodSpec:
    return k_radius(dimension, 1, r)


# --------------------------------------------------------------------------
# Membership and enumeration


def contains(spec: NeighborhoodSpec, delta: Sequence[int]) -> bool:
    """Whether the offset ``delta`` belongs to the neighborhood ``spec``.

    The all-zero offset (the center cell) is never a member.  Components are
    read as ``step`` reads them: a numpy integer is the int it holds, and a
    non-integer raises DomainError.
    """
    _expect(spec, NeighborhoodSpec, "spec")
    delta = _coordinates(delta, "offset", spec.dimension, "spec dimension")
    if spec.family is Family.DIAMOND:
        total = sum(abs(c) for c in delta)
        if total == 0:
            return False
        return total == spec.r if spec.sharp_r else total <= spec.r
    largest = max(abs(c) for c in delta)
    if largest == 0 or largest > spec.r:
        return False
    nonzero = sum(1 for c in delta if c)
    if spec.sharp_k:
        if nonzero != spec.k:
            return False
    elif nonzero > spec.k:
        return False
    return largest == spec.r if spec.sharp_r else True


def _magnitudes(j: int, r: int, diamond: bool, sharp_r: bool, dtype) -> list[np.ndarray]:
    """The m(j) rows of magnitudes 1..r of the members on j given axes, as
    their j columns.  One axis at a time, each prefix row takes every value of
    its own lo..hi, as a ragged arange.  A diamond row leaves 1 for each later
    axis, and on the shell its last value is what is left of r.  A k-radius
    row takes 1..r, and on the shell its last value is r unless an earlier
    one was."""
    columns: list[np.ndarray] = []
    hi = np.full(1, r - j + 1 if diamond else r, dtype)  # per prefix, its next value's bound
    edge = np.zeros(1, bool)  # a k-radius prefix holds an r
    for axis in range(j):
        lo = 1
        if sharp_r and axis == j - 1:
            lo = hi if diamond else np.where(edge, 1, hi)
        room = (hi - lo).astype(np.intp) + 1
        source = np.repeat(np.arange(len(hi)), room)  # each prefix, once per value
        value = (np.arange(len(source)) - np.repeat(np.cumsum(room) - room - lo, room)).astype(dtype)
        columns = [column[source] for column in columns] + [value]
        if diamond:  # leave 1 for each later axis
            hi = hi[source] - value + 1
        else:
            hi, edge = hi[source], edge[source] | (value == r)
    return columns


def _block(d: int, magnitudes: list[np.ndarray]) -> np.ndarray:
    """The members with j nonzero components, j the number of ``magnitudes``
    columns: each row under each of the 2^j sign rows, written onto each of
    the C(d, j) choices of nonzero axes one column at a time, zeros elsewhere."""
    j, dtype = len(magnitudes), magnitudes[0].dtype
    signs = np.array(list(itertools.product((-1, 1), repeat=j)), dtype)
    axes = np.array(list(itertools.combinations(range(d), j)), dtype=np.intp)
    block = np.zeros((len(axes), len(magnitudes[0]) << j, d), dtype)
    for column, (values, sign) in enumerate(zip(magnitudes, signs.T)):
        block[np.arange(len(axes)), :, axes[:, column]] = (values[:, None] * sign).ravel()
    return block.reshape(-1, d)


def offset_array(spec: NeighborhoodSpec) -> np.ndarray:
    """All member offsets of ``spec`` as an (n, d) array in lexicographic order.

    The members are made as the paper counts them, C(d, j) * 2^j * m(j) with
    j nonzero components: one block per j, whose m(j) magnitude rows (r^j
    for a k-radius, C(r, j) for a diamond, fewer on a shell) come from one
    walk shared by both families, then take each of the 2^j sign rows and
    each of the C(d, j) choices of nonzero axes.  Each member is made once,
    since its nonzero axes, signs and magnitudes determine it, and one
    np.lexsort orders them.  counting._count_terms makes the same term as a
    number.  The dtype is the narrowest signed integer type that holds
    -r..r (int8 up to r = 127), or object, holding exact Python ints, past
    int64.  Raises CapacityError, before any offset is made, when the
    offsets hold more than DEFAULT_OFFSET_CAP (2**24) components in all,
    count(spec) * dimension.
    """
    from .counting import count  # counting imports this module; import at call time

    total = count(spec)
    if total * spec.dimension > DEFAULT_OFFSET_CAP:
        raise CapacityError(
            f"{_exact(total)} offsets of {_exact(spec.dimension)} components would exceed "
            f"the cap of {DEFAULT_OFFSET_CAP} components"
        )
    d, r = spec.dimension, spec.r
    # narrow keys also make np.lexsort's per-key sorts radix sorts (<= 16 bits)
    dtype = np.min_scalar_type(-r - 1)
    diamond = spec.family is Family.DIAMOND
    if diamond:
        sizes = range(1, min(d, r) + 1)
    else:
        sizes = (spec.k,) if spec.sharp_k else range(1, spec.k + 1)
    rows = np.concatenate([_block(d, _magnitudes(j, r, diamond, spec.sharp_r, dtype)) for j in sizes])
    return rows[np.lexsort(rows.T[::-1])]


def enumerate_offsets(spec: NeighborhoodSpec) -> list[Offset]:
    """All member offsets of ``spec`` in lexicographic order, as tuples of ints.

    The first component is most significant and each component ranges over
    -r..r.  The result contains no duplicates and never the zero offset, and
    its length equals count(spec).  Raises CapacityError as ``offset_array``
    does.
    """
    # the tuples share the ints of the column lists, so no list per row is made
    return list(zip(*offset_array(spec).T.tolist()))


def _box_points(d: int, r: int) -> int:
    """(2r+1)^d, the points of the box [-r, r]^d; CapacityError past
    DEFAULT_BOX_CAP.  A power past DEFAULT_COUNT_BITS bits is named, not made."""
    if d * (2 * r + 1).bit_length() > DEFAULT_COUNT_BITS:
        size = f"{_exact(2 * r + 1)}**{_exact(d)}"
    elif (box := (2 * r + 1) ** d) <= DEFAULT_BOX_CAP:
        return box
    else:
        size = _exact(box)
    raise CapacityError(f"box of {size} lattice points would exceed the cap of {DEFAULT_BOX_CAP}")


@functools.lru_cache(maxsize=1)  # verify reads every spec of one box in a row
def _box_tally(d: int, r: int, box: int, chunk: int) -> tuple[np.ndarray, int, int]:
    """One scan of the box [-r, r]^d, in chunks of ``chunk`` points decoded
    base 2r+1, tallied by the rules of ``contains``.

    ``by_nonzero[edge, j]`` counts the points with j nonzero components whose
    largest |component| is r (edge 1) or below it (edge 0); ``filled`` and
    ``shell`` count the points with 0 < sum |c| <= r and with sum |c| == r.
    The tally is sized by d, never by r.
    """
    by_nonzero = np.zeros(2 * (d + 1), dtype=np.int64)
    filled = shell = 0
    for start in range(0, box, chunk):
        rest = np.arange(start, min(start + chunk, box), dtype=np.int64)
        size = np.empty((d, rest.size), dtype=np.int64)  # one row per axis
        for axis in range(d - 1):
            rest, size[axis] = np.divmod(rest, 2 * r + 1)
        size[d - 1] = rest  # what is left is the last digit
        size = np.abs(size - r)
        largest, nonzero, total = size.max(axis=0), np.count_nonzero(size, axis=0), size.sum(axis=0)
        by_nonzero += np.bincount((largest == r) * (d + 1) + nonzero, minlength=2 * (d + 1))
        filled += int(np.count_nonzero((total > 0) & (total <= r)))
        shell += int(np.count_nonzero(total == r))
    by_nonzero = by_nonzero.reshape(2, d + 1)
    by_nonzero.flags.writeable = False  # shared by every caller of the cache
    return by_nonzero, filled, shell


def brute_force_count(spec: NeighborhoodSpec) -> int:
    """Count members by scanning every point of the box [-r, r]^d.

    Deliberately independent of every formula and of the enumeration; this is
    the oracle the counting module is checked against.  One scan decodes the
    box's points in chunks of _BOX_CHUNK, base 2r+1, and tallies them by the
    rules of ``contains``: by whether the largest |component| is r, by the
    number of nonzero components, and by Manhattan length, up to r and equal
    to r.  Every spec of the box is read from that tally, and the last box's
    tally is kept, so the specs of one box that ``verify`` checks in a row
    scan it once.
    Raises CapacityError when the box holds more than DEFAULT_BOX_CAP (2**26).
    """
    _expect(spec, NeighborhoodSpec, "spec")
    d, r = spec.dimension, spec.r
    by_nonzero, filled, shell = _box_tally(d, r, _box_points(d, r), _BOX_CHUNK)
    if spec.family is Family.DIAMOND:
        return shell if spec.sharp_r else filled
    # the shell is the points whose largest |component| is r; column 0 holds the center alone
    row = by_nonzero[1] if spec.sharp_r else by_nonzero.sum(axis=0)
    return int(row[spec.k] if spec.sharp_k else row[1 : spec.k + 1].sum())


# --------------------------------------------------------------------------
# Serialization: comma-separated components, one offset per line


def format_offset(offset: Sequence[int]) -> str:
    """``offset`` as "c1,...,cd", exact at any size through format_term; a
    bare number in place of the sequence raises DimensionError."""
    return ",".join(map(format_term, _coordinates(offset, "offset")))


def parse_offset(text: str) -> Offset:
    """The inverse of ``format_offset``: each comma-separated field is
    ``[+-]?[0-9]+`` after stripping whitespace, as in pattern files and
    b-files; anything else, text or not, raises ParseError."""
    if not isinstance(text, str):
        raise ParseError(f"offset must be text, got {type(text).__name__}")
    fields = [f.strip() for f in text.split(",")]
    if not all(_INTEGER.fullmatch(f) for f in fields):
        raise ParseError(f"not a comma-separated integer tuple: {text!r}")
    return tuple(int(decimal.Decimal(f)) for f in fields)


def _text_line(raw, lineno: int) -> str:
    """A line of a caller's text, str or ASCII bytes, as str; ParseError
    naming the line for anything else."""
    if isinstance(raw, str):
        return raw
    if not isinstance(raw, bytes):
        raise ParseError(f"line {lineno}: {type(raw).__name__}, not a line of text")
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError:
        raise ParseError(f"line {lineno}: not ASCII text: {raw!r}") from None


def _offset_lines(rows: np.ndarray) -> bytes:
    """``rows`` as text, one ``format_offset`` line per row, each ending in "\n".

    Each component gets a slot of a sign byte, its digits and a separator;
    a 0 byte marks what is not written (a plus sign, leading zeros), and one
    mask drops those.  Digits come from // and %, which object arrays have too.
    Zero rows give no bytes.
    """
    values = rows.ravel()
    rest = np.abs(values)
    width = len(format_offset([rest.max(initial=0)]))  # digits of the widest component
    chars = np.zeros((len(values), width + 2), dtype=np.uint8)
    chars[:, 0] = (values < 0) * ord("-")
    for column in range(width, 0, -1):
        digit = (rest % 10 + ord("0")).astype(np.uint8)
        # a leading zero is not written; the units digit is, for 0 too
        chars[:, column] = digit if column == width else digit * (rest > 0)
        rest = rest // 10
    chars[:, -1] = ord(",")
    chars[rows.shape[1] - 1 :: rows.shape[1], -1] = ord("\n")
    return chars[chars != 0].tobytes()
