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

import enum
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, DimensionError, DomainError, ParseError

Offset = tuple[int, ...]

# Safety rails for counts, enumeration, box scans, grids and sequence terms.
DEFAULT_COUNT_BITS = 2**17  # about 39.5k decimal digits
DEFAULT_OFFSET_CAP = 2**24  # components, offsets * dimension; about 12 bytes each as tuples
DEFAULT_BOX_CAP = 2**26  # points; scanned in chunks of _BOX_CHUNK, so memory stays bounded
DEFAULT_CELL_CAP = 2**28  # grids and padded copies; a step holds about 13 bytes per cell
DEFAULT_TERM_CAP = 2**16  # A024023 alone holds about 0.24 * N**2 digits for N terms
_BOX_CHUNK = 2**16  # box points decoded at once: a (points, d) int64 array


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
        if self.dimension < 1:
            raise DomainError(f"dimension must be >= 1, got {self.dimension}")
        if self.r < 1:
            raise DomainError(f"r must be >= 1, got {self.r}")
        if self.family is Family.K_RADIUS:
            if self.k is None:
                raise DomainError("k is required for the k-radius family")
            if not 1 <= self.k <= self.dimension:
                raise DomainError(
                    f"k must satisfy 1 <= k <= dimension={self.dimension}, got {self.k}"
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
            f"offset has {len(delta)} components, spec dimension is {spec.dimension}"
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


def _nonzero_values(r: int) -> tuple[int, ...]:
    return tuple(range(-r, 0)) + tuple(range(1, r + 1))


def _place(dimension: int, positions: tuple[int, ...], values: tuple[int, ...]) -> Offset:
    offset = [0] * dimension
    for pos, val in zip(positions, values):
        offset[pos] = val
    return tuple(offset)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of ``parts`` positive integers summing to ``total``."""
    # one part needs no cut, and so no range, however large the total
    for cuts in itertools.combinations(range(1, total) if parts > 1 else (), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _members(spec: NeighborhoodSpec) -> Iterator[Offset]:
    # Generates each member exactly once: the nonzero positions of an offset
    # determine its decomposition, so distinct (positions, values) choices
    # give distinct offsets.
    d, r = spec.dimension, spec.r
    if spec.family is Family.DIAMOND:
        for j in range(1, min(d, r) + 1):
            totals = (r,) if spec.sharp_r else range(j, r + 1)
            for positions in itertools.combinations(range(d), j):
                for total in totals:
                    for magnitudes in _compositions(total, j):
                        for signs in itertools.product((-1, 1), repeat=j):
                            values = tuple(s * m for s, m in zip(signs, magnitudes))
                            yield _place(d, positions, values)
        return
    sizes = (spec.k,) if spec.sharp_k else range(1, spec.k + 1)
    for j in sizes:
        # a shell member is made once, from the axis of its first +-r (axes before
        # it stay inside r, and j = 1 builds no range); off the shell first = -1
        firsts = range(j) if spec.sharp_r else (-1,)
        for positions in itertools.combinations(range(d), j):
            for first in firsts:
                axes = (
                    (-r, r) if i == first else _nonzero_values(r - 1 if i < first else r)
                    for i in range(j)
                )
                for values in itertools.product(*axes):
                    yield _place(d, positions, values)


def enumerate_offsets(spec: NeighborhoodSpec) -> list[Offset]:
    """All member offsets of ``spec`` in lexicographic order.

    The first component is most significant and each component ranges over
    -r..r.  The result contains no duplicates and never the zero offset, and
    its length equals count(spec).  Raises CapacityError, before any offset
    is made, when the offsets hold more than DEFAULT_OFFSET_CAP (2**24)
    components in all, count(spec) * dimension.
    """
    from .counting import count  # counting imports this module; import at call time

    total = count(spec)
    if total * spec.dimension > DEFAULT_OFFSET_CAP:
        raise CapacityError(
            f"{total} offsets of {spec.dimension} components would exceed "
            f"the cap of {DEFAULT_OFFSET_CAP} components"
        )
    return sorted(_members(spec))


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
            f"box of {box} lattice points would exceed the cap of {DEFAULT_BOX_CAP}"
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
    return ",".join(str(c) for c in offset)


def parse_offset(text: str) -> Offset:
    fields = text.strip().split(",")
    try:
        return tuple(int(f) for f in fields)
    except ValueError:
        raise ParseError(f"not a comma-separated integer tuple: {text!r}") from None
