import pytest
from conftest import count_lattice_paths
from hypothesis import given, settings
from hypothesis import strategies as st

from nbhd import (
    CapacityError,
    DomainError,
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
    assert k_radius_count(d, k, 1) == k_count(d, k)


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
