import math
import tracemalloc

import numpy as np
import pytest
from conftest import count_lattice_paths
from hypothesis import given, settings
from hypothesis import strategies as st

from nbhd import (
    CapacityError,
    DomainError,
    Family,
    binomial,
    brute_force_count,
    count,
    delannoy,
    diamond,
    diamond_count,
    diamond_sharp_count,
    k_count,
    k_radius,
    k_radius_count,
    moore,
    moore_radius_count,
    moore_radius_sharp_count,
    sharp_k_count,
    von_neumann,
)
from nbhd.counting import (
    diamond_sharp_count_rec,
    k_count_rec,
    sharp_k_count_rec,
)

dk_pairs = st.integers(1, 12).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(1, d))
)


# ---------------------------------------------------------------- binomial


def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(7, 0) == 1
    assert binomial(3, 5) == 0


def test_binomial_rejects_negative():
    with pytest.raises(DomainError):
        binomial(-1, 0)
    with pytest.raises(DomainError):
        binomial(3, -2)


# ---------------------------------------------------------------- closed forms


def test_sharp_k_count_three_dimensional_split():
    assert sharp_k_count(3, 1) == 6
    assert sharp_k_count(3, 2) == 12
    assert sharp_k_count(3, 3) == 8
    assert 6 + 12 + 8 == 3**3 - 1


def test_sharp_k_count_rec_examples():
    assert sharp_k_count_rec(3, 2) == 12
    assert sharp_k_count_rec(5, 5) == 32
    assert sharp_k_count_rec(1, 1) == 2


def test_k_count_examples():
    assert k_count(2, 1) == 4
    assert k_count(2, 2) == 8
    assert k_count(3, 2) == 18


def test_k_count_rec_examples():
    assert k_count_rec(3, 2) == 18
    assert k_count_rec(7, 1) == 14
    assert k_count_rec(4, 4) == 80


def test_moore_radius_examples():
    assert moore_radius_count(2, 1) == 8
    assert moore_radius_count(1, 3) == 6
    assert moore_radius_count(2, 2) == 24


def test_moore_shell_examples():
    assert moore_radius_sharp_count(3, 1) == 26
    assert moore_radius_sharp_count(2, 2) == 16
    assert moore_radius_sharp_count(1, 4) == 2


def test_diamond_examples():
    assert diamond_sharp_count(2, 1) == 4
    assert diamond_sharp_count(2, 2) == 8
    assert diamond_sharp_count(3, 2) == 18
    assert diamond_count(2, 1) == 4
    assert diamond_count(2, 2) == 12
    assert diamond_count(3, 2) == 24


def test_diamond_rec_boundary_rows():
    assert diamond_sharp_count_rec(5, 0) == 1
    assert diamond_sharp_count_rec(0, 4) == 0
    assert diamond_sharp_count_rec(2, 2) == 8


def test_delannoy_examples():
    assert delannoy(6, 0) == 1
    assert delannoy(0, 9) == 1
    assert delannoy(1, 1) == 3
    assert delannoy(2, 2) == 13
    assert delannoy(3, 2) == 25


def test_k_radius_examples():
    assert k_radius_count(2, 2, 1) == 8
    assert k_radius_count(2, 1, 2) == 8
    assert k_radius_count(3, 2, 2) == 60


def test_domain_errors():
    for bad in [(0, 1), (3, 4), (2, 0)]:
        with pytest.raises(DomainError):
            sharp_k_count(*bad)
        with pytest.raises(DomainError):
            k_count(*bad)
    with pytest.raises(DomainError):
        moore_radius_count(2, 0)
    with pytest.raises(DomainError):
        diamond_sharp_count(0, 1)
    with pytest.raises(DomainError):
        delannoy(-1, 2)
    with pytest.raises(DomainError):
        k_radius_count(2, 3, 1)


# Each public formula, its recurrence form, delannoy and binomial, with
# arguments that overflow any numpy integer type the formula would keep.
FORMULAS = [
    (binomial, (100, 3)),
    (sharp_k_count, (100, 3)),
    (sharp_k_count_rec, (100, 3)),
    (k_count, (100, 3)),
    (k_count_rec, (100, 3)),
    (moore_radius_count, (100, 3)),
    (moore_radius_sharp_count, (100, 3)),
    (diamond_sharp_count, (100, 100)),
    (diamond_sharp_count_rec, (100, 100)),
    (diamond_count, (100, 100)),
    (delannoy, (100, 100)),
    (k_radius_count, (3, 2, 100)),
]
NUMPY_INTEGERS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@pytest.mark.parametrize("formula, args", FORMULAS, ids=[f.__name__ for f, _ in FORMULAS])
@pytest.mark.parametrize("dtype", NUMPY_INTEGERS, ids=lambda t: t.__name__)
def test_formulas_read_numpy_integers_as_ints(formula, args, dtype):
    # an overflowing numpy sum would warn, and pyproject turns warnings into errors
    value = formula(*map(dtype, args))
    assert type(value) is int and value == formula(*args)


@pytest.mark.parametrize("formula, args", FORMULAS, ids=[f.__name__ for f, _ in FORMULAS])
@pytest.mark.parametrize("bad", [2.5, "3", None])
def test_formulas_refuse_non_integers(formula, args, bad):
    for position in range(len(args)):
        with pytest.raises(DomainError):
            formula(*args[:position], bad, *args[position + 1 :])


# ---------------------------------------------------------------- identities


@given(dk_pairs)
def test_formula_matches_recurrence(dk):
    d, k = dk
    assert sharp_k_count(d, k) == sharp_k_count_rec(d, k)
    assert k_count(d, k) == k_count_rec(d, k)


@given(dk_pairs)
def test_partial_sum_identity(dk):
    d, k = dk
    below = k_count(d, k - 1) if k > 1 else 0
    assert k_count(d, k) == below + sharp_k_count(d, k)


@given(st.integers(1, 12), st.integers(1, 12))
def test_delannoy_symmetry_and_center_identities(d, r):
    assert delannoy(d, r) == delannoy(r, d)
    assert delannoy(d, r) == diamond_count(d, r) + 1
    assert delannoy(d, r) == 1 + sum(diamond_sharp_count(d, l) for l in range(1, r + 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6))
def test_delannoy_matches_path_walk(d, r):
    assert delannoy(d, r) == count_lattice_paths(d, r)


@given(st.integers(1, 8), st.integers(1, 8))
def test_moore_shell_sums_to_filled(d, r):
    shells = sum(moore_radius_sharp_count(d, l) for l in range(1, r + 1))
    assert shells == moore_radius_count(d, r) == (2 * r + 1) ** d - 1


@given(st.integers(1, 8), st.integers(1, 8))
def test_k_radius_specializations(d, r):
    assert k_radius_count(d, d, r) == moore_radius_count(d, r)
    assert k_radius_count(d, 1, r) == 2 * d * r
    assert diamond_sharp_count(d, 1) == 2 * d


@given(dk_pairs)
def test_k_radius_at_radius_one_is_k_count(dk):
    d, k = dk
    # against the recurrence: k_count and k_radius_count step the same terms
    assert k_radius_count(d, k, 1) == k_count_rec(d, k)


def test_counts_are_exact_big_integers():
    value = moore_radius_count(40, 5)
    assert isinstance(value, int)
    assert len(str(value)) > 40


# ---------------------------------------------------------------- dispatcher


def test_count_dispatch_examples():
    assert count(von_neumann(2)) == 4
    assert count(diamond(2, 2)) == 12
    assert count(moore(2, 2)) == 24


def test_count_dispatch_sharp_variants():
    assert count(diamond(3, 2, sharp_r=True)) == 18
    assert count(k_radius(3, 2, 1, sharp_k=True)) == 12
    assert count(k_radius(3, 2, 2, sharp_r=True)) == 60 - 18


def test_count_past_the_bit_cap_is_capacity_error():
    huge = 10**20
    for spec in (k_radius(huge, huge), k_radius(huge, huge, sharp_k=True), diamond(huge, huge)):
        with pytest.raises(CapacityError):
            count(spec)
    assert count(k_radius(huge, 1)) == 2 * huge
    assert count(diamond(huge, 1)) == 2 * huge


# Each of these once ran for seconds to forever, or raised OverflowError,
# where count refused its spec at once.
CAPPED = {
    "k_count": lambda: k_count(10**6, 10**6),
    "diamond_count": lambda: diamond_count(10**6, 10**6),
    "diamond_sharp_count": lambda: diamond_sharp_count(10**6, 10**6),
    "k_radius_count": lambda: k_radius_count(10**6, 10**6, 2),
    "moore_radius_count": lambda: moore_radius_count(10**30, 5),
    "moore_radius_sharp_count": lambda: moore_radius_sharp_count(10**30, 5),
    "sharp_k_count": lambda: sharp_k_count(10**30, 10**30),
    "binomial": lambda: binomial(10**30, 10**15),
    "delannoy-wide": lambda: delannoy(5, 10**30),
    "delannoy-tall": lambda: delannoy(10**30, 5),
    "delannoy-25-bits": lambda: delannoy(10**7, 1),
}


@pytest.mark.parametrize("site", list(CAPPED))
def test_every_count_is_capped(site):
    with pytest.raises(CapacityError):
        CAPPED[site]()


def test_caps_leave_room_below_them():
    assert binomial(10**30, 2) == 10**30 * (10**30 - 1) // 2
    assert binomial(10**30, 10**30 - 1) == 10**30 and binomial(3, 10**30) == 0
    assert sharp_k_count(10**30, 1) == 2 * 10**30
    assert moore_radius_count(1, 10**30) == 2 * 10**30
    # the Delannoy table holds at most 2**20 cells, (d+1)(r+1)
    assert delannoy(1, 2**19 - 1) == 2**20 - 1
    with pytest.raises(CapacityError, match="Delannoy table of 1048578 cells"):
        delannoy(1, 2**19)


@pytest.mark.parametrize(
    "spec", [k_radius(9100, 9100, 2, sharp_r=True), diamond(8000, 8000, sharp_r=True)], ids=["k-radius", "diamond"]
)
def test_count_under_the_bit_cap_holds_one_term_at_a_time(spec):
    # 9100 terms C(d, j) * 4^j of up to about 2.6 KB each, or 8000 diamond
    # terms of up to about 2.5 KB: holding them all would take tens of MB,
    # stepping them one at a time a few KB
    tracemalloc.start()
    try:
        value = count(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if spec.family is Family.K_RADIUS:  # the diamond's value is pinned by the count hashes in test_cli
        assert value == 5**9100 - 3**9100
    assert peak <= 2**20


def test_a_sharp_k_shell_is_one_term():
    # C(d, k) * ((2r)^k - (2r-2)^k), with no sum over the k - 1 terms below it
    assert count(k_radius(9100, 9000, 2, sharp_k=True, sharp_r=True)) == math.comb(9100, 9000) * (
        4**9000 - 2**9000
    )


@settings(deadline=None, max_examples=40)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.tuples(
            st.just(d), st.integers(1, d), st.integers(1, 3),
            st.booleans(), st.booleans(),
        )
    )
)
def test_every_k_radius_count_matches_box_scan(params):
    d, k, r, sharp_k, sharp_r = params
    spec = k_radius(d, k, r, sharp_k=sharp_k, sharp_r=sharp_r)
    assert count(spec) == brute_force_count(spec)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 3), st.integers(1, 3), st.booleans())
def test_every_diamond_count_matches_box_scan(d, r, sharp_r):
    spec = diamond(d, r, sharp_r=sharp_r)
    assert count(spec) == brute_force_count(spec)


def test_stepped_sums_match_math_comb_sums():
    # the closed forms step each term from the one before; these are the
    # textbook sums with one math.comb per factor
    comb = math.comb
    for d in range(1, 31):
        for r in range(1, 31):
            terms = range(1, min(d, r) + 1)
            assert diamond_count(d, r) == sum(comb(r, k) * comb(d, k) * 2**k for k in terms)
            assert diamond_sharp_count(d, r) == sum(
                comb(r - 1, k - 1) * comb(d, k) * 2**k for k in terms
            )
            assert moore_radius_sharp_count(d, r) == sum(
                comb(d, m) * 2**m * (2 * r - 1) ** (d - m) for m in range(1, d + 1)
            )
            for k in range(1, d + 1):
                assert k_radius_count(d, k, r) == sum(
                    comb(d, j) * (2 * r) ** j for j in range(1, k + 1)
                )
        for k in range(1, d + 1):
            assert k_count(d, k) == sum(2**j * comb(d, j) for j in range(1, k + 1))
    # count for every sharpness: j nonzero components (j = k when sharp on k),
    # and on the shell (s = 1) at least one of them +-r
    for d in range(1, 13):
        for r in range(1, 13):
            for s, sharp_r in enumerate((False, True)):
                ways = (lambda j: comb(r - 1, j - 1)) if sharp_r else (lambda j: comb(r, j))
                want = sum(ways(j) * comb(d, j) * 2**j for j in range(1, min(d, r) + 1))
                assert count(diamond(d, r, sharp_r=sharp_r)) == want
                for k in range(1, d + 1):
                    for sharp_k in (False, True):
                        terms = (k,) if sharp_k else range(1, k + 1)
                        want = sum(comb(d, j) * ((2 * r) ** j - s * (2 * r - 2) ** j) for j in terms)
                        assert count(k_radius(d, k, r, sharp_k=sharp_k, sharp_r=sharp_r)) == want
