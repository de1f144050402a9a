"""Closed forms and recurrences for neighborhood sizes.

Every function returns a plain Python int, so results are exact at any
size, or raises DomainError.  Parameters are read as NeighborhoodSpec reads
them: a numpy integer is the Python int it holds, and a float, a string or
None is refused.  The named formulas take d, k and r from the spec that
k_radius, moore or diamond builds, so their ranges are the spec's (d >= 1,
1 <= k <= d, r >= 1); binomial, delannoy and diamond_sharp_count_rec also
take 0.  Formula/recurrence pairs are intentionally redundant: each pair is
cross-checked in the test suite, and everything is checked against the
brute-force box scan in the neighborhoods module.  Recurrences fill dense
per-call tables iteratively; there is no shared mutable state.
"""

from __future__ import annotations

import math

from .errors import CapacityError, DomainError
from .neighborhoods import DEFAULT_COUNT_BITS, Family, NeighborhoodSpec, _as_int, _exact, diamond, k_radius, moore
from .neighborhoods import brute_force_count  # read only by perfbench/tracing.py, which wraps it


def binomial(n: int, k: int) -> int:
    """C(n, k), exact; 0 when k > n."""
    n, k = _as_int(n, "n"), _as_int(k, "k")
    if n < 0 or k < 0:
        raise DomainError(f"binomial needs nonnegative arguments, got {_exact((n, k))}")
    return math.comb(n, k)


def sharp_k_count(d: int, k: int) -> int:
    """Offsets with exactly k nonzero components, each -1 or 1: 2^k * C(d, k)."""
    d, k = (spec := k_radius(d, k)).dimension, spec.k
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


def k_count(d: int, k: int) -> int:
    """Offsets with 1..k nonzero components, each -1 or 1: sum of 2^j * C(d, j)."""
    d, k = (spec := k_radius(d, k)).dimension, spec.k
    # 2^j * C(d, j), stepped from j - 1 to j
    total, term = 0, 1
    for j in range(1, k + 1):
        term = term * 2 * (d - j + 1) // j
        total += term
    return total


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
    return (2 * r + 1) ** d - 1


def moore_radius_sharp_count(d: int, r: int) -> int:
    """Shell at Chebyshev distance exactly r:
    sum over m of C(d, m) * 2^m * (2r-1)^(d-m)."""
    d, r = (spec := moore(d, r)).dimension, spec.r
    # C(d, m) * 2^m * (2r-1)^(d-m), stepped down from m = d, where it is 2^d
    total, term = 0, 1 << d
    for m in range(d, 0, -1):
        total += term
        term = term * (2 * r - 1) * m // (2 * (d - m + 1))
    return total


def diamond_sharp_count(d: int, r: int) -> int:
    """Lattice points at Manhattan distance exactly r:
    sum over k of C(r-1, k-1) * C(d, k) * 2^k."""
    d, r = (spec := diamond(d, r)).dimension, spec.r
    # C(r-1, k-1) * C(d, k) * 2^k, stepped from k - 1 to k; 2d at k = 1
    total, term = 0, 2 * d
    for k in range(1, min(d, r) + 1):
        if k > 1:
            term = term * 2 * (r - k + 1) * (d - k + 1) // ((k - 1) * k)
        total += term
    return total


def diamond_sharp_count_rec(d: int, r: int) -> int:
    """Same value as diamond_sharp_count as a difference of Delannoy numbers,
    T(d, r) = D(d, r) - D(d, r-1): the filled ball of radius r minus the one
    of radius r-1.  T(d, 0) = 1 for d >= 0 (the center alone)."""
    row = _delannoy_row(d, r)
    return row[-1] - row[-2] if len(row) > 1 else 1


def diamond_count(d: int, r: int) -> int:
    """Lattice points at Manhattan distance 1..r:
    sum over k of C(r, k) * C(d, k) * 2^k."""
    d, r = (spec := diamond(d, r)).dimension, spec.r
    # C(r, k) * C(d, k) * 2^k, stepped from k - 1 to k
    total, term = 0, 1
    for k in range(1, min(d, r) + 1):
        term = term * 2 * (r - k + 1) * (d - k + 1) // (k * k)
        total += term
    return total


def _delannoy_row(d: int, r: int) -> list[int]:
    # [D(d, 0), ..., D(d, r)], by the recurrence in delannoy's docstring
    d, r = _as_int(d, "d"), _as_int(r, "r")
    if d < 0 or r < 0:
        raise DomainError(f"need d >= 0 and r >= 0, got d={_exact(d)}, r={_exact(r)}")
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
    D(d, r) = D(d-1, r) + D(d-1, r-1) + D(d, r-1).
    """
    return _delannoy_row(d, r)[-1]


def k_radius_count(d: int, k: int, r: int) -> int:
    """Offsets with 1..k nonzero components, each bounded by r:
    sum over j of C(d, j) * (2r)^j.

    The sum starts at j = 1, which excludes the center cell; including j = 0
    would count it and give a value exactly one larger.
    """
    d, k, r = (spec := k_radius(d, k, r)).dimension, spec.k, spec.r
    # C(d, j) * (2r)^j, stepped from j - 1 to j
    total, term = 0, 1
    for j in range(1, k + 1):
        term = term * 2 * r * (d - j + 1) // j
        total += term
    return total


# Read only by perfbench/tracing.py; count() has no box-scan route any more.
def closed_form_available(spec: NeighborhoodSpec) -> bool:
    return True


def count(spec: NeighborhoodSpec) -> int:
    """Number of cells in the neighborhood, from its closed form; raises
    CapacityError when the count could exceed 2**DEFAULT_COUNT_BITS.

    A k-radius member has j nonzero components (j = k when sharp on k, 1..k
    otherwise), each in [-r, r] without 0, and on the shell (sharp on r) at
    least one is +-r: the count sums C(d, j) * ((2r)^j - s * (2r-2)^j) over
    those j, with s = 1 on the shell and 0 off it.
    """
    d, r, is_diamond = spec.dimension, spec.r, spec.family is Family.DIAMOND
    # the count is below (2r+1)^d, and below (2d+1)^r (diamond) or 2 * (2rd)^k (k-radius)
    other = r * (2 * d + 1).bit_length() if is_diamond else spec.k * (2 * r * d).bit_length() + 1
    bits = min(d * (2 * r + 1).bit_length(), other)
    if bits > DEFAULT_COUNT_BITS:
        raise CapacityError(f"count of up to {_exact(bits)} bits would exceed the cap of {DEFAULT_COUNT_BITS}")
    if is_diamond:
        return diamond_sharp_count(d, r) if spec.sharp_r else diamond_count(d, r)
    # C(d, j) * (2r)^j and C(d, j) * (s * (2r-2))^j, stepped from j - 1 to j
    inner = 2 * r - 2 if spec.sharp_r else 0
    total, outer_term, inner_term = 0, 1, 1
    for j in range(1, spec.k + 1):
        outer_term = outer_term * 2 * r * (d - j + 1) // j
        inner_term = inner_term * inner * (d - j + 1) // j
        total += outer_term - inner_term
    return outer_term - inner_term if spec.sharp_k else total
