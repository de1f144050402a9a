"""Closed forms and recurrences for neighborhood sizes.

Every function returns a plain Python int, so results are exact at any
size, or raises DomainError, or CapacityError where a count could pass
2**DEFAULT_COUNT_BITS (count's bound, _check_bits) or delannoy's table
_DELANNOY_CELLS cells.  Parameters are read as NeighborhoodSpec reads them:
a numpy integer is the Python int it holds, and a float, a string or None
is refused.  The named formulas take d, k and r from the spec that
k_radius, moore or diamond builds, so their ranges are the spec's (d >= 1,
1 <= k <= d, r >= 1); binomial, delannoy and diamond_sharp_count_rec also
take 0.  k_count, k_radius_count, diamond_count and diamond_sharp_count are
count on their spec; the other formulas and the recurrences are independent
of it and cross-checked against it, in the test suite and by verify, as is
the brute-force box scan in the neighborhoods module.  Recurrences fill dense
per-call tables iteratively; there is no shared mutable state.  Both
families sum the paper's term C(d, j) * 2^j * m(j) over the number j of
nonzero components, m(j) = r^j (k-radius) or C(r, j) (diamond); one stepper,
_count_terms, makes it for every such sum, each naming the range of j it sums.
"""

from __future__ import annotations

import math
from typing import Iterator

from .errors import CapacityError, DomainError
from .neighborhoods import (
    DEFAULT_COUNT_BITS, Family, NeighborhoodSpec, _as_int, _exact, _expect, diamond, k_radius, moore,
)
from .neighborhoods import brute_force_count  # read only by perfbench/tracing.py, which wraps it


def _check_bits(d: int, r: int, k: int | None) -> None:
    """CapacityError when a count of d, k and r (k None for a diamond) could
    exceed 2**DEFAULT_COUNT_BITS: it is below (2r+1)^d, and below (2d+1)^r
    (diamond) or 2 * (2rd)^k (k-radius)."""
    other = r * (2 * d + 1).bit_length() if k is None else k * (2 * r * d).bit_length() + 1
    bits = min(d * (2 * r + 1).bit_length(), other)
    if bits > DEFAULT_COUNT_BITS:
        raise CapacityError(f"count of up to {_exact(bits)} bits would exceed the cap of {DEFAULT_COUNT_BITS}")


def binomial(n: int, k: int) -> int:
    """C(n, k), exact; 0 when k > n."""
    n, k = _as_int(n, "n"), _as_int(k, "k")
    if n < 0 or k < 0:
        raise DomainError(f"binomial needs nonnegative arguments, got {_exact((n, k))}")
    if k <= n:  # C(n, k) = C(n, n - k) is at most 2^j * C(n, j), j = min(k, n - k)
        _check_bits(n, 1, min(k, n - k))
    return math.comb(n, k)


def sharp_k_count(d: int, k: int) -> int:
    """Offsets with exactly k nonzero components, each -1 or 1: 2^k * C(d, k)."""
    d, k = (spec := k_radius(d, k)).dimension, spec.k
    _check_bits(d, 1, k)
    return (1 << k) * binomial(d, k)


def sharp_k_count_rec(d: int, k: int) -> int:
    """Same value as sharp_k_count via the row recurrence
    T(d, k) = 2*T(d-1, k-1) + T(d-1, k) with T(d, 0) = 1."""
    d, k = (spec := k_radius(d, k)).dimension, spec.k
    row = [1]
    for i in range(1, d + 1):
        row = [1] + [
            2 * row[j - 1] + (row[j] if j < i else 0) for j in range(1, i + 1)
        ]
    return row[k]


def _count_terms(d: int, r: int, first: int, last: int, diamond: bool) -> Iterator[int]:
    """C(d, j) * 2^j * m(j) for j = first..last, m(j) = C(r, j) if ``diamond``
    else r^j: the members with exactly j nonzero components.  The first term is
    from math.comb and each later one is stepped from the one before, so a
    reader that sums them holds one term, not all of them."""
    term = math.comb(d, first) * (math.comb(r, first) if diamond else r**first) << first
    yield term
    for j in range(first + 1, last + 1):
        # C(d, j) = C(d, j-1) * (d-j+1) / j, and C(r, j) likewise; the small
        # factors are multiplied first, so the big term is touched twice
        if diamond:
            term = term * (2 * (d - j + 1) * (r - j + 1)) // (j * j)
        else:
            term = term * (2 * r * (d - j + 1)) // j
        yield term


def k_count(d: int, k: int) -> int:
    """Offsets with 1..k nonzero components, each -1 or 1: sum of 2^j * C(d, j)."""
    return count(k_radius(d, k))


def k_count_rec(d: int, k: int) -> int:
    """Same value as k_count via the separated recurrence
    T(d, k) = T(d, k-1) + T(d-1, k) + T(d-1, k-1) - 2*T(d-1, k-2),
    closed by T(d, 1) = 2d, T(j, j) = 3^j - 1, and T(., j) = 0 for j < 1."""
    d, k = (spec := k_radius(d, k)).dimension, spec.k
    table: list[list[int]] = [[0]]  # table[i][j] for 0 <= j <= i; j=0 column is 0
    for i in range(1, d + 1):
        row = [0, 2 * i]
        for j in range(2, i + 1):
            if j == i:
                row.append(3**j - 1)
                continue
            prev = table[i - 1]
            below_k2 = prev[j - 2] if j - 2 >= 1 else 0
            row.append(row[j - 1] + prev[j] + prev[j - 1] - 2 * below_k2)
        table.append(row)
    return table[d][k]


def moore_radius_count(d: int, r: int) -> int:
    """Filled Chebyshev ball of radius r minus the center: (2r+1)^d - 1."""
    d, r = (spec := moore(d, r)).dimension, spec.r
    _check_bits(d, r, d)
    return (2 * r + 1) ** d - 1


def moore_radius_sharp_count(d: int, r: int) -> int:
    """Shell at Chebyshev distance exactly r:
    sum over m of C(d, m) * 2^m * (2r-1)^(d-m)."""
    d, r = (spec := moore(d, r)).dimension, spec.r
    _check_bits(d, r, d)
    # C(d, m) * 2^m * (2r-1)^(d-m), stepped down from m = d, where it is 2^d
    total, term = 0, 1 << d
    for m in range(d, 0, -1):
        total += term
        term = term * (2 * r - 1) * m // (2 * (d - m + 1))
    return total


def diamond_sharp_count(d: int, r: int) -> int:
    """Lattice points at Manhattan distance exactly r:
    sum over k of C(r-1, k-1) * C(d, k) * 2^k."""
    return count(diamond(d, r, sharp_r=True))


def diamond_sharp_count_rec(d: int, r: int) -> int:
    """Same value as diamond_sharp_count as a difference of Delannoy numbers,
    T(d, r) = D(d, r) - D(d, r-1): the filled ball of radius r minus the one
    of radius r-1.  T(d, 0) = 1 for d >= 0 (the center alone)."""
    row = _delannoy_row(d, r)
    return row[-1] - row[-2] if len(row) > 1 else 1


def diamond_count(d: int, r: int) -> int:
    """Lattice points at Manhattan distance 1..r:
    sum over k of C(r, k) * C(d, k) * 2^k."""
    return count(diamond(d, r))


# The widest Delannoy table a call fills, (d+1)*(r+1) cells: 2**20 took
# 0.07-0.20 s and 2**22 0.27-1.45 s (d = 1, about sqrt(cells) and cells/4;
# Python 3.11, 2 shared vCPUs, one call each).
_DELANNOY_CELLS = 2**20


def _delannoy_row(d: int, r: int) -> list[int]:
    # [D(d, 0), ..., D(d, r)], by the recurrence in delannoy's docstring
    d, r = _as_int(d, "d"), _as_int(r, "r")
    if d < 0 or r < 0:
        raise DomainError(f"need d >= 0 and r >= 0, got d={_exact(d)}, r={_exact(r)}")
    if (cells := (d + 1) * (r + 1)) > _DELANNOY_CELLS:
        raise CapacityError(f"Delannoy table of {_exact(cells)} cells would exceed the cap of {_DELANNOY_CELLS}")
    row = [1] * (r + 1)
    for _ in range(d):
        new = [1] * (r + 1)
        for j in range(1, r + 1):
            new[j] = row[j] + row[j - 1] + new[j - 1]
        row = new
    return row


def delannoy(d: int, r: int) -> int:
    """Delannoy number: lattice paths from (0,0) to (d,r) with steps
    (1,0), (0,1), (1,1).  Equals diamond_count(d, r) + 1 (the center cell).

    Base cases are D(d, 0) = D(0, r) = 1; the recurrence is
    D(d, r) = D(d-1, r) + D(d-1, r-1) + D(d, r-1).  A table of more than
    _DELANNOY_CELLS (2**20) cells, (d+1)*(r+1), raises CapacityError.
    """
    return _delannoy_row(d, r)[-1]


def k_radius_count(d: int, k: int, r: int) -> int:
    """Offsets with 1..k nonzero components, each bounded by r:
    sum over j of C(d, j) * (2r)^j.

    The sum starts at j = 1, which excludes the center cell; including j = 0
    would count it and give a value exactly one larger.
    """
    return count(k_radius(d, k, r))


# Read only by perfbench/tracing.py; count() has no box-scan route any more.
def closed_form_available(spec: NeighborhoodSpec) -> bool:
    return True


def count(spec: NeighborhoodSpec) -> int:
    """Number of cells in the neighborhood, from its closed form; raises
    CapacityError when the count could exceed 2**DEFAULT_COUNT_BITS.

    A k-radius member has j nonzero components (j = k when sharp on k, 1..k
    otherwise), each in [-r, r] without 0, and on the shell (sharp on r) at
    least one is +-r: the count sums C(d, j) * ((2r)^j - s * (2r-2)^j) over
    those j, with s = 1 on the shell and 0 off it.  A diamond sums
    T_j = C(d, j) * 2^j * C(r, j) over j = 1..min(d, r), and its shell
    j * T_j / r.
    """
    _expect(spec, NeighborhoodSpec, "spec")
    d, r = spec.dimension, spec.r
    if spec.family is Family.DIAMOND:
        _check_bits(d, r, None)
        terms = _count_terms(d, r, 1, min(d, r), diamond=True)
        if not spec.sharp_r:
            return sum(terms)
        # j * C(r, j) = r * C(r-1, j-1): j times the filled diamond's term, over r
        return sum(j * term for j, term in enumerate(terms, 1)) // r
    _check_bits(d, r, spec.k)
    first = spec.k if spec.sharp_k else 1
    total = sum(_count_terms(d, r, first, spec.k, diamond=False))
    if spec.sharp_r:  # less the members inside r - 1, as 2r - 2 = 2(r - 1)
        total -= sum(_count_terms(d, r - 1, first, spec.k, diamond=False))
    return total
