import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbhd import (
    CapacityError,
    DimensionError,
    DomainError,
    Family,
    NeighborhoodSpec,
    ParseError,
    brute_force_count,
    contains,
    diamond,
    enumerate_offsets,
    format_offset,
    k_radius,
    moore,
    narrow_von_neumann,
    parse_offset,
    von_neumann,
)


# ---------------------------------------------------------------- spec validation


def test_spec_requires_positive_dimension():
    with pytest.raises(DomainError):
        k_radius(0, 1)
    with pytest.raises(DomainError):
        diamond(-2, 1)


def test_k_must_fit_dimension():
    with pytest.raises(DomainError):
        k_radius(2, 3)
    with pytest.raises(DomainError):
        k_radius(3, 0)


def test_radius_must_be_positive():
    with pytest.raises(DomainError):
        k_radius(2, 1, 0)
    with pytest.raises(DomainError):
        diamond(2, -1)


def test_diamond_rejects_k_and_sharp_k():
    with pytest.raises(DomainError):
        NeighborhoodSpec(2, family=Family.DIAMOND, k=1, r=1)
    with pytest.raises(DomainError):
        NeighborhoodSpec(2, family=Family.DIAMOND, r=1, sharp_k=True)


def test_k_radius_requires_k():
    with pytest.raises(DomainError):
        NeighborhoodSpec(2, family=Family.K_RADIUS, k=None, r=1)


def test_specs_are_frozen_values():
    a = von_neumann(2)
    b = k_radius(2, 1, 1)
    assert a == b
    assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        a.r = 5


# ---------------------------------------------------------------- named shapes


def test_named_constructors_are_k_radius_corners():
    assert von_neumann(3) == k_radius(3, 1, 1)
    assert moore(3) == k_radius(3, 3, 1)
    assert moore(2, 4) == k_radius(2, 2, 4)
    assert narrow_von_neumann(3, 2) == k_radius(3, 1, 2)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_diamond_radius_one_equals_von_neumann(d):
    assert enumerate_offsets(diamond(d, 1)) == enumerate_offsets(von_neumann(d))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_full_k_equals_moore_box(d):
    got = enumerate_offsets(k_radius(d, d, 1))
    box = sorted(
        c for c in itertools.product((-1, 0, 1), repeat=d) if any(c)
    )
    assert got == box


# ---------------------------------------------------------------- membership


def test_contains_examples():
    assert contains(von_neumann(2), (0, 1))
    assert not contains(von_neumann(2), (1, 1))
    assert contains(diamond(2, 2, sharp_r=True), (1, -1))


@pytest.mark.parametrize(
    "spec",
    [von_neumann(2), moore(3), diamond(2, 2), k_radius(3, 2, 2, sharp_k=True)],
)
def test_center_is_never_a_member(spec):
    assert not contains(spec, (0,) * spec.dimension)


def test_contains_is_exact_for_big_radii():
    big = 10**20
    assert contains(diamond(1, big), (big,))
    assert not contains(diamond(1, big - 1), (big,))


def test_contains_checks_dimension():
    with pytest.raises(DimensionError):
        contains(von_neumann(2), (1, 0, 0))


@st.composite
def spec_strategy(draw):
    if draw(st.booleans()):
        d = draw(st.integers(1, 3))
        k = draw(st.integers(1, d))
        r = draw(st.integers(1, 2))
        return k_radius(
            d, k, r, sharp_k=draw(st.booleans()), sharp_r=draw(st.booleans())
        )
    return diamond(
        draw(st.integers(1, 3)), draw(st.integers(1, 3)), sharp_r=draw(st.booleans())
    )


@settings(deadline=None, max_examples=60)
@given(spec=spec_strategy(), data=st.data())
def test_contains_matches_enumeration(spec, data):
    delta = tuple(
        data.draw(st.integers(-spec.r - 1, spec.r + 1))
        for _ in range(spec.dimension)
    )
    members = set(enumerate_offsets(spec))
    assert contains(spec, delta) == (delta in members)


# ---------------------------------------------------------------- enumeration


def test_enumerate_one_dimensional():
    assert enumerate_offsets(k_radius(1, 1, 1)) == [(-1,), (1,)]


def test_enumerate_von_neumann_order():
    assert enumerate_offsets(von_neumann(2)) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_enumerate_moore_is_box_minus_center():
    got = enumerate_offsets(moore(2))
    assert len(got) == 8
    assert set(got) == set(itertools.product((-1, 0, 1), repeat=2)) - {(0, 0)}


@pytest.mark.parametrize(
    "spec",
    [
        k_radius(3, 2, 2),
        k_radius(3, 2, 2, sharp_k=True),
        k_radius(3, 2, 2, sharp_r=True),
        k_radius(2, 2, 3, sharp_k=True, sharp_r=True),
        diamond(3, 3),
        diamond(4, 2, sharp_r=True),
    ],
)
def test_enumeration_sorted_unique_and_valid(spec):
    got = enumerate_offsets(spec)
    assert got == sorted(set(got))
    assert all(contains(spec, off) for off in got)
    assert len(got) == brute_force_count(spec)


def test_enumeration_cap():
    with pytest.raises(CapacityError):
        enumerate_offsets(moore(16))  # 3**16 - 1 offsets, refused before any is made


def test_box_scan_cap():
    with pytest.raises(CapacityError):
        brute_force_count(moore(2, 5000))  # 10001**2 points, refused before the scan


def test_high_dimension_small_count_stays_fast():
    # direct generation must not scan the 3^20 bounding box
    spec = k_radius(20, 1, 1)
    assert len(enumerate_offsets(spec)) == 40


# ---------------------------------------------------------------- offset text


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6))
def test_offset_text_round_trip(parts):
    off = tuple(parts)
    assert parse_offset(format_offset(off)) == off


@pytest.mark.parametrize("text", ["", "1,,2", "a,b", "1;2"])
def test_parse_offset_rejects_garbage(text):
    with pytest.raises(ParseError):
        parse_offset(text)
