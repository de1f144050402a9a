import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    count,
    diamond,
    enumerate_offsets,
    format_offset,
    k_radius,
    moore,
    narrow_von_neumann,
    offset_array,
    parse_offset,
    von_neumann,
)
from nbhd.neighborhoods import _box_tally, _exact, format_term


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


@pytest.mark.parametrize(
    "make",
    [
        lambda: count(k_radius(2, 1, 1.5)),
        lambda: count(diamond(2, 2.0)),
        lambda: k_radius(2.0, 1),
        lambda: k_radius(2, "1"),
        lambda: NeighborhoodSpec(2, family=Family.DIAMOND, r=np.float64(1)),
    ],
)
def test_spec_parameters_must_be_integers(make):
    with pytest.raises(DomainError, match="must be an integer"):
        make()


def test_spec_family_must_be_a_family():
    with pytest.raises(DomainError, match="family must be a Family"):
        NeighborhoodSpec(2, "k-radius", 1)


def test_spec_takes_numpy_integers_as_ints():
    spec = k_radius(np.int64(3), np.int64(2), np.int16(100))
    assert spec == k_radius(3, 2, 100)
    assert all(type(v) is int for v in (spec.dimension, spec.k, spec.r))
    # an int8 radius would overflow in 2 * r; as a Python int it is exact, with no warning
    assert count(k_radius(2, 2, np.int8(100))) == count(k_radius(2, 2, 100)) == 40400
    assert count(spec) == count(k_radius(3, 2, 100))
    assert count(diamond(np.uint8(2), np.int32(3))) == count(diamond(2, 3))


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


def test_enumeration_cap_counts_components(monkeypatch):
    # 4,995,200 offsets of 40 components: under 2**24 offsets, over 2**24
    # components, and refused before any offset is made
    with pytest.raises(CapacityError, match="4995200 offsets of 40 components"):
        enumerate_offsets(k_radius(40, 2, 40))
    # the cap is on count * dimension: 26 offsets of 3 components fit 78
    monkeypatch.setattr("nbhd.neighborhoods.DEFAULT_OFFSET_CAP", 78)
    assert len(enumerate_offsets(moore(3))) == 26
    monkeypatch.setattr("nbhd.neighborhoods.DEFAULT_OFFSET_CAP", 77)
    with pytest.raises(CapacityError, match="cap of 77 components"):
        enumerate_offsets(moore(3))


def test_box_scan_cap():
    with pytest.raises(CapacityError):
        brute_force_count(moore(2, 5000))  # 10001**2 points, refused before the scan


@st.composite
def _small_specs(draw):
    # d <= 4 and r <= 3, both families, every sharpness
    d, r = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        return diamond(d, r, sharp_r=draw(st.booleans()))
    k = draw(st.integers(1, d))
    return k_radius(d, k, r, sharp_k=draw(st.booleans()), sharp_r=draw(st.booleans()))


def _scalar_count(spec):
    box = itertools.product(range(-spec.r, spec.r + 1), repeat=spec.dimension)
    return sum(contains(spec, p) for p in box)


@settings(deadline=None, max_examples=150)
@given(spec=_small_specs())
def test_box_scan_matches_contains(spec):
    assert brute_force_count(spec) == _scalar_count(spec)


@settings(deadline=None, max_examples=40)
@given(spec=_small_specs(), chunk=st.sampled_from([7, 31, 97]))
def test_box_scan_chunk_edges_inside_the_box(spec, chunk):
    # small odd chunks end inside the box, mid-row on every axis
    with mock.patch("nbhd.neighborhoods._BOX_CHUNK", chunk):
        assert brute_force_count(spec) == _scalar_count(spec)


def test_box_scan_specs_of_two_boxes_in_turn():
    # one box's tally is kept: each switch of box scans afresh, and every
    # spec is read from the tally of its own box
    first = [diamond(2, 3), k_radius(2, 1, 3, sharp_r=True), k_radius(2, 2, 3, sharp_k=True)]
    second = [moore(3, 2), diamond(3, 2, sharp_r=True), k_radius(3, 2, 2, sharp_k=True, sharp_r=True)]
    _box_tally.cache_clear()
    for spec in itertools.chain.from_iterable(zip(first, second)):
        assert brute_force_count(spec) == _scalar_count(spec)
    assert _box_tally.cache_info().misses == 6


@pytest.mark.parametrize("spec", [moore(1, 10**6), diamond(1, 10**6)])
def test_box_scan_memory_does_not_grow_with_r(spec):
    # a tally sized by r, or a bincount over sum |c| or max |c|, would hold
    # millions of entries here; the chunks of the scan bound its peak
    _box_tally.cache_clear()
    tracemalloc.start()
    try:
        found = brute_force_count(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == 2 * 10**6
    assert peak < 8 * 2**20


def test_high_dimension_small_count_stays_fast():
    # direct generation must not scan the 3^20 bounding box
    spec = k_radius(20, 1, 1)
    assert len(enumerate_offsets(spec)) == 40


@settings(deadline=None, max_examples=150)
@given(spec=_small_specs())
# either side of the int8 -> int16 switch at r = 128, where -r - 1 leaves int8
@example(spec=k_radius(2, 2, 127, sharp_r=True))
@example(spec=k_radius(2, 1, 128))
@example(spec=diamond(2, 127))
@example(spec=diamond(2, 128, sharp_r=True))
def test_offset_array_is_the_filtered_box(spec):
    box = itertools.product(range(-spec.r, spec.r + 1), repeat=spec.dimension)
    assert offset_array(spec).tolist() == [list(p) for p in box if contains(spec, p)]


@pytest.mark.parametrize(
    "spec, n",
    [
        (k_radius(2, 2, 2**14, sharp_r=True), 8 * 2**14),  # (2r+1)**2 - (2r-1)**2
        (diamond(2, 2**14, sharp_r=True), 4 * 2**14),
    ],
)
def test_shells_are_built_without_their_box(spec, n):
    # the box holds about 2**30 points; the build may hold a few copies of
    # its output, never the box
    tracemalloc.start()
    try:
        rows = offset_array(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == count(spec) == n
    assert peak <= 16 * rows.nbytes
    assert len(enumerate_offsets(spec)) == n


@pytest.mark.parametrize(
    "spec, bound",
    [(moore(2, 1000), 13), (diamond(3, 150), 10), (k_radius(3, 3, 100, sharp_r=True), 8)],
)
def test_offset_array_peak_per_component(spec, bound):
    # peak bytes per component of the output (int16, int16, int8); the peak
    # is at the sort, and blocks kept alive through it exceed these bounds
    tracemalloc.start()
    try:
        rows = offset_array(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == count(spec)
    assert peak <= bound * rows.size


def test_huge_radius_offsets_are_exact_ints():
    spec = k_radius(3, 1, 10**20, sharp_r=True)
    got = enumerate_offsets(spec)
    assert len(got) == count(spec) == 6
    assert got == sorted(
        tuple(sign * 10**20 * (i == axis) for i in range(3)) for axis in range(3) for sign in (-1, 1)
    )
    assert all(type(c) is int for offset in got for c in offset)


def test_enumerated_components_are_python_ints():
    assert type(enumerate_offsets(moore(2))[0][0]) is int


# ---------------------------------------------------------------- offset text


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6))
def test_offset_text_round_trip(parts):
    off = tuple(parts)
    assert parse_offset(format_offset(off)) == off


def test_offset_text_round_trip_is_exact_past_the_int_to_str_limit():
    spec = k_radius(1, 1, 10**5000, sharp_r=True)
    offs = enumerate_offsets(spec)
    assert offs == [(-(10**5000),), (10**5000,)]
    for off in offs + [(10**5000, -(10**5000), 0)]:
        assert parse_offset(format_offset(off)) == off
    assert format_offset(offs[1]) == "1" + "0" * 5000
    assert format_offset(offset_array(spec)[0]) == "-1" + "0" * 5000


def test_int_text_is_exact_under_the_least_int_to_str_limit(int_str_limit_640):
    big = 10**700
    with pytest.raises(ValueError):
        str(big)
    assert format_term(big) == "1" + "0" * 700
    assert format_term(-big) == "-1" + "0" * 700
    assert format_term(12) == "12"
    assert format_offset((big, -3, 0)) == f"1{'0' * 700},-3,0"
    assert _exact((big, 2)) == f"(1{'0' * 700}, 2)"
    with pytest.raises(DomainError) as exc:
        NeighborhoodSpec(1, r=-big)
    assert str(exc.value) == f"r must be >= 1, got -1{'0' * 700}"


def test_format_offset_takes_numpy_ints():
    rows = offset_array(moore(2, 2))
    assert [format_offset(row) for row in rows] == [format_offset(o) for o in enumerate_offsets(moore(2, 2))]
    assert format_offset(np.array([-128, 0, 127], dtype=np.int8)) == "-128,0,127"


@pytest.mark.parametrize("text", ["", "1,,2", "a,b", "1;2", "1_0,2", "\u0661", "1,\u0662", "+-1", "1.0"])
def test_parse_offset_rejects_garbage(text):
    with pytest.raises(ParseError):
        parse_offset(text)
