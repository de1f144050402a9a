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
"""

from __future__ import annotations

import decimal
import enum
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
# at its peak offset_array holds 3-13 bytes per component, enumerate_offsets 20-70
DEFAULT_OFFSET_CAP = 2**24  # components, offsets * dimension
DEFAULT_BOX_CAP = 2**26  # points; scanned in chunks of _BOX_CHUNK, so memory stays bounded
# a step holds its padded copy and the count plan's partial sums, each padded
# on the axes not yet summed: about 3 bytes per cell for 1024^2 Life, 13 for
# k_radius(5, 3, 1) on 16^5, 49 for k_radius(8, 4, 1) on a 6^8 torus
DEFAULT_CELL_CAP = 2**28  # grids and padded copies
DEFAULT_TERM_CAP = 2**16  # A024023 alone holds about 0.24 * N**2 digits for N terms
_BOX_CHUNK = 2**16  # box points decoded at once: a (points, d) int64 array
_INTEGER = re.compile(r"[+-]?[0-9]+")  # an integer field of offset, pattern and b-file text


def _exact(value) -> str:
    """An int, or a tuple of ints, as str writes it, but exact at any size:
    each int goes through Decimal, since str(int) stops at the interpreter's
    4300-digit limit.  Any other value is its repr.  Error messages write
    their values through it."""
    if isinstance(value, tuple):
        parts = [_exact(v) for v in value]
        return f"({', '.join(parts)}{',' * (len(parts) == 1)})"
    try:
        return str(decimal.Decimal(operator.index(value)))
    except TypeError:
        return repr(value)


def _as_int(value, name: str) -> int:
    """``value`` through operator.index, so a numpy integer becomes a Python
    int; DomainError for a float, a string or any other non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


class Family(enum.Enum):
    K_RADIUS = "k-radius"
    DIAMOND = "diamond"


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Parameters selecting one neighborhood: family, dimension, k, r, sharpness.

    ``sharp_k`` restricts to exactly ``k`` nonzero components (k-radius family
    only); ``sharp_r`` restricts to the shell at distance exactly ``r`` instead
    of the filled set at distance up to ``r``.
    """

    dimension: int
    family: Family = Family.K_RADIUS
    k: int | None = None
    r: int = 1
    sharp_k: bool = False
    sharp_r: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            raise DomainError(f"family must be a Family, got {self.family!r}")
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

    The all-zero offset (the center cell) is never a member.
    """
    if len(delta) != spec.dimension:
        raise DimensionError(
            f"offset has {len(delta)} components, spec dimension is {_exact(spec.dimension)}"
        )
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


def _nonzero(r: int, dtype) -> np.ndarray:
    return np.concatenate((np.arange(-r, 0, dtype=dtype), np.arange(1, r + 1, dtype=dtype)))


def _product(columns: list[np.ndarray]) -> np.ndarray:
    """Rows of the cartesian product of ``columns``, one column each."""
    grids = np.meshgrid(*columns, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _k_radius_values(j: int, r: int, sharp_r: bool, dtype) -> np.ndarray:
    """(m, j) rows of values in -r..r without 0 (with some +-r on the shell)."""
    if not sharp_r:
        return _product([_nonzero(r, dtype)] * j)
    # a shell row is made once, from the axis of its first +-r: axes before it
    # stay inside r (j = 1 builds no range, however large r is)
    edge = np.array([-r, r], dtype=dtype)
    if j == 1:
        return edge[:, None]
    inner, outer = _nonzero(r - 1, dtype), _nonzero(r, dtype)
    return np.concatenate(
        [_product([inner] * first + [edge] + [outer] * (j - 1 - first)) for first in range(j)]
    )


def _diamond_values(j: int, r: int, sharp_r: bool, dtype) -> np.ndarray:
    """(m, j) rows of nonzero values whose magnitudes sum to at most r
    (exactly r on the shell)."""
    magnitudes = np.zeros((1, 0), dtype)
    total = np.zeros(1, dtype)
    for axis in range(j - 1 if sharp_r else j):
        # each prefix keeps at least 1 for every axis after it, so none is a dead end
        room = (r - (j - 1 - axis) - total).astype(np.intp)
        source = np.repeat(np.arange(len(total)), room)
        value = (np.arange(1, len(source) + 1) - np.repeat(np.cumsum(room) - room, room)).astype(dtype)
        magnitudes = np.column_stack((magnitudes[source], value))
        total = total[source] + value
    if sharp_r:  # the last magnitude is whatever is left of r
        magnitudes = np.column_stack((magnitudes, r - total))
    signs = _product([np.array([-1, 1], dtype=dtype)] * j)
    return (magnitudes[:, None, :] * signs[None, :, :]).reshape(-1, j)


def _scatter(d: int, values: np.ndarray) -> np.ndarray:
    """Rows of d components: each row of ``values`` on every choice of its
    number of axes, zeros elsewhere."""
    j = values.shape[1]
    axes = np.array(list(itertools.combinations(range(d), j)), dtype=np.intp)
    block = np.zeros((len(axes), len(values), d), dtype=values.dtype)
    placement, row = np.ogrid[: len(axes), : len(values)]
    block[placement[:, :, None], row[:, :, None], axes[:, None, :]] = values
    return block.reshape(-1, d)


def offset_array(spec: NeighborhoodSpec) -> np.ndarray:
    """All member offsets of ``spec`` as an (n, d) array in lexicographic order.

    One block per number j of nonzero components: its (m, j) value rows are
    made once and scattered into the C(d, j) choices of nonzero axes, so no
    intermediate array is larger than its block.  Each member is made once,
    since its nonzero axes and values determine it.  The dtype is the
    narrowest signed integer type that holds -r..r (int8 up to r = 127), or
    object, holding exact Python ints, past int64.  Raises CapacityError,
    before any offset is made, when the offsets hold more than
    DEFAULT_OFFSET_CAP (2**24) components in all, count(spec) * dimension.
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
    if spec.family is Family.DIAMOND:
        blocks = [_diamond_values(j, r, spec.sharp_r, dtype) for j in range(1, min(d, r) + 1)]
    else:
        sizes = (spec.k,) if spec.sharp_k else range(1, spec.k + 1)
        blocks = [_k_radius_values(j, r, spec.sharp_r, dtype) for j in sizes]
    rows = np.concatenate([_scatter(d, values) for values in blocks])
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


def brute_force_count(spec: NeighborhoodSpec) -> int:
    """Count members by scanning every point of the box [-r, r]^d.

    Deliberately independent of every formula and of the enumeration; this is
    the oracle the counting module is checked against.  Points are decoded in
    chunks, base 2r+1, and tested by the rules of ``contains`` on arrays.
    Raises CapacityError when the box holds more than DEFAULT_BOX_CAP (2**26).
    """
    d, r = spec.dimension, spec.r
    box = (2 * r + 1) ** d
    if box > DEFAULT_BOX_CAP:
        raise CapacityError(
            f"box of {_exact(box)} lattice points would exceed the cap of {DEFAULT_BOX_CAP}"
        )
    found = 0
    for start in range(0, box, _BOX_CHUNK):
        rest = np.arange(start, min(start + _BOX_CHUNK, box), dtype=np.int64)
        digits = np.empty((rest.size, d), dtype=np.int64)
        for axis in range(d):
            rest, digits[:, axis] = np.divmod(rest, 2 * r + 1)
        size = np.abs(digits - r)
        if spec.family is Family.DIAMOND:
            total = size.sum(axis=1)
            member = total == r if spec.sharp_r else (total > 0) & (total <= r)
        else:
            largest, nonzero = size.max(axis=1), np.count_nonzero(size, axis=1)
            member = largest == r if spec.sharp_r else largest > 0
            member &= nonzero == spec.k if spec.sharp_k else nonzero <= spec.k
        found += int(np.count_nonzero(member))
    return found


# --------------------------------------------------------------------------
# Serialization: comma-separated components, one offset per line


def format_offset(offset: Sequence[int]) -> str:
    """``offset`` as "c1,...,cd", exact at any size: each component goes
    through Decimal, as sequences.format_term does, since str(int) stops at
    the interpreter's 4300-digit limit."""
    return ",".join(str(decimal.Decimal(operator.index(c))) for c in offset)


def parse_offset(text: str) -> Offset:
    """The inverse of ``format_offset``: each comma-separated field is
    ``[+-]?[0-9]+`` after stripping whitespace, as in pattern files and
    b-files; anything else raises ParseError."""
    fields = [f.strip() for f in text.split(",")]
    if not all(_INTEGER.fullmatch(f) for f in fields):
        raise ParseError(f"not a comma-separated integer tuple: {text!r}")
    return tuple(int(decimal.Decimal(f)) for f in fields)


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
