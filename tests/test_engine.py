import itertools
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from conftest import life_step_reference, neighbour_counts_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from nbhd import engine, neighborhoods
from nbhd import (
    Boundary,
    BoundsError,
    CapacityError,
    DimensionError,
    DomainError,
    ParseError,
    Rule,
    count,
    diamond,
    enumerate_offsets,
    format_offset,
    format_rule,
    k_radius,
    live_cells,
    load_pattern,
    make_grid,
    moore,
    narrow_von_neumann,
    offset_array,
    parse_rule,
    population,
    render_snapshot,
    run,
    step,
    von_neumann,
)

GLIDER = [(1, 2), (2, 3), (3, 1), (3, 2), (3, 3)]
LIFE = Rule(birth=frozenset({3}), survival=frozenset({2, 3}))
MOORE2 = enumerate_offsets(moore(2))


# ---------------------------------------------------------------- grids


def test_make_grid_examples():
    assert population(make_grid((3, 3), live_cells=[(1, 1)])) == 1
    assert population(make_grid((5, 5))) == 0
    assert population(make_grid((4,), live_cells=[(0,), (3,)])) == 2
    array = np.array([[0, 1], [2, 2], [0, 1]], dtype=np.int64)
    assert live_cells(make_grid((3, 3), live_cells=array)) == [(0, 1), (2, 2)]
    assert live_cells(make_grid((3, 3), live_cells=((i, i) for i in range(3)))) == [
        (0, 0), (1, 1), (2, 2)
    ]
    assert population(make_grid((3, 3), live_cells=np.zeros((0, 1), dtype=np.int64))) == 0
    for empty in (np.zeros((0, 2)), np.zeros((0,), dtype="U1"), np.zeros((0, 2), dtype=bool)):
        assert population(make_grid((3, 3), live_cells=empty)) == 0
    grid = make_grid((np.int64(4), np.uint8(4)), live_cells=np.array([[1, 2]], dtype=np.uint8))
    assert grid.dims == (4, 4) and all(type(n) is int for n in grid.dims)
    assert live_cells(grid) == [(1, 2)]
    cells = np.array([[0, 1], [2, 2]], dtype=np.uint64)
    assert live_cells(make_grid((3, 3), live_cells=cells)) == [(0, 1), (2, 2)]


def test_make_grid_validates():
    with pytest.raises(DomainError):
        make_grid((0, 3))
    with pytest.raises(BoundsError):
        make_grid((3, 3), live_cells=[(3, 0)])
    with pytest.raises(BoundsError):
        make_grid((3, 3), live_cells=[(-1, 0)])
    # the columns are checked in turn, but the first cell outside is named,
    # though column 0 fails only on the later row
    with pytest.raises(BoundsError, match=r"cell \(0, 5\) outside"):
        make_grid((3, 3), live_cells=[(0, 5), (5, 0)])
    for cells in ([(1, 1, 1)], [(0, 0), (1, 1, 1)]):
        with pytest.raises(DimensionError) as exc:
            make_grid((3, 3), live_cells=cells)
        assert str(exc.value) == "cell (1, 1, 1) does not match grid dimension 2"
    with pytest.raises(BoundsError, match=r"cell \(0, 1000000000000000000000000000000\)"):
        make_grid((3, 3), live_cells=[(0, 0), (0, 10**30)])
    # numpy reads this list as floats; the cell is still named as given
    with pytest.raises(BoundsError, match=r"cell \(9223372036854775808, 0\)"):
        make_grid((3, 3), live_cells=[(0, 0), (2**63, 0)])
    with pytest.raises(DimensionError, match="not a coordinate sequence"):
        make_grid((3, 3), live_cells=[1.5, 2])
    # a uint64 array past int64 is not cast to a wrapped int64 cell
    with pytest.raises(BoundsError, match=r"cell \(9223372036854775808, 0\)"):
        make_grid((3, 3), live_cells=np.array([[0, 0], [2**63, 0]], dtype=np.uint64))
    with pytest.raises(CapacityError):
        make_grid((2**40, 2**40))


def test_grid_boundary_must_be_a_boundary():
    # a blinker on the top edge keeps 3 cells on a torus; stepped as fixed-dead it has 2
    with pytest.raises(DomainError, match="boundary must be a Boundary, got 'toroidal'"):
        make_grid((5, 5), "toroidal", [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(DomainError, match="boundary must be a Boundary, got None"):
        engine.Grid((2, 2), np.zeros((2, 2), np.uint8), None)
    grid = make_grid((5, 5), Boundary.TOROIDAL, [(0, 1), (0, 2), (0, 3)])
    assert engine.population(step(grid, LIFE, enumerate_offsets(moore(2)))) == 3


def test_make_grid_takes_at_most_64_axes():
    # numpy's arrays hold at most 64 axes: past that a grid is refused before
    # it is allocated, even one past the cell cap; up to 64 axes live cells
    # are set through one flat index, not one index array per axis
    for dims in ((1,) * 65, (2,) * 70):
        with pytest.raises(DimensionError, match=f"grid of {len(dims)} axes exceeds numpy's limit of 64"):
            make_grid(dims)
    dims = (1,) * 61 + (2, 3, 1)
    cells = [(0,) * 61 + (1, 2, 0), (0,) * 64]
    grid = make_grid(dims, Boundary.FIXED_DEAD, cells)
    assert live_cells(grid) == sorted(cells)
    offs = enumerate_offsets(von_neumann(64))
    rule = Rule(frozenset({1}), frozenset({0, 1}))
    want = life_step_reference(set(cells), dims, rule.birth, rule.survival, offs, toroidal=False)
    assert set(live_cells(step(grid, rule, offs))) == want


@pytest.mark.parametrize(
    "dims, cells",
    [
        ((4.5, 4), []),
        (("4", "4"), []),
        ((4, 4), [(1.5, 2)]),
        ((4, 4), np.array([[1.0, 2.0]])),
        ((4, 4), [("1", "2")]),
        ((4, 4), np.array([[True, False]])),
        ((4, 4), [(0, 0), (1.5, 2, 3)]),
    ],
)
def test_make_grid_refuses_non_integers(dims, cells):
    with pytest.raises(DomainError, match="must be an integer"):
        make_grid(dims, live_cells=cells)


# Rows that are live cells of a 5x4 grid and offsets on its torus alike
ROWS = [(0, 1), (2, 3), (1, 1)]
ROW_FORMS = {
    "list": list,
    "generator": lambda rows: (tuple(row) for row in rows),
    "lists": lambda rows: [list(row) for row in rows],
    "numpy-scalars": lambda rows: [tuple(map(np.int16, row)) for row in rows],
    "int8": lambda rows: np.array(rows, dtype=np.int8),
    "int64": lambda rows: np.array(rows, dtype=np.int64),
    "uint64": lambda rows: np.array(rows, dtype=np.uint64),
    "int64-fortran": lambda rows: np.asfortranarray(np.array(rows, dtype=np.int64)),
    "object": lambda rows: np.array(rows, dtype=object),
}


@pytest.mark.parametrize("form", list(ROW_FORMS))
def test_make_grid_and_step_read_every_row_form_alike(form):
    grid = make_grid((5, 4), live_cells=ROWS)
    rule = Rule(frozenset({1}), frozenset({1, 2}))
    assert make_grid((5, 4), live_cells=ROW_FORMS[form](ROWS)) == grid
    assert step(grid, rule, ROW_FORMS[form](ROWS)) == step(grid, rule, ROWS)


def test_make_grid_and_step_read_bool_rows_alike():
    grid, rule = make_grid((3, 3), live_cells=[(1, 1)]), Rule(frozenset({1}), frozenset())
    # a Python bool is an int; a numpy bool is not an integer for operator.index
    assert make_grid((3, 3), live_cells=[(True, False)]) == make_grid((3, 3), live_cells=[(1, 0)])
    assert step(grid, rule, [(True, False)]) == step(grid, rule, [(1, 0)])
    with pytest.raises(DomainError, match="cell component must be an integer"):
        make_grid((3, 3), live_cells=np.array([[True, False]]))
    with pytest.raises(DomainError, match="offset component must be an integer"):
        step(grid, rule, np.array([[True, False]]))


@pytest.mark.parametrize("form", ["list", "generator", "object"])
def test_make_grid_and_step_read_components_past_int64_exactly(form):
    # 2**64 + 1 is 1 on an axis of 4, and 2**63 on an axis of 5 is 3: a
    # torus folds them exactly, and a grid names them as given
    big = [(2**63, 2**64 + 1), (0, 1)]
    grid, rule = make_grid((5, 4), live_cells=ROWS), Rule(frozenset({1}), frozenset({1, 2}))
    assert step(grid, rule, ROW_FORMS[form](big)) == step(grid, rule, [(3, 1), (0, 1)])
    with pytest.raises(BoundsError) as exc:
        make_grid((5, 4), live_cells=ROW_FORMS[form](big))
    assert str(exc.value) == "cell (9223372036854775808, 18446744073709551617) outside grid of dims (5, 4)"


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("dtype", [np.uint64, np.int64])
def test_step_reads_fixed_width_offsets_at_their_extremes_exactly(boundary, dtype):
    # the extremes of each type, folded onto the 5x4 torus or dropped from the
    # fixed-dead grid as the same offsets as Python ints are: uint64 past
    # int64 is not wrapped, and an int64 fold does not overflow
    info = np.iinfo(dtype)
    big = np.array([(info.max, info.min), (info.min, info.max - 1), (info.max - 2, 1), (0, 1)], dtype=dtype)
    grid, rule = make_grid((5, 4), boundary, ROWS), Rule(frozenset({1}), frozenset({1, 2}))
    assert step(grid, rule, big) == step(grid, rule, np.array(big.tolist(), dtype=object))


@pytest.mark.parametrize("form", ["list", "generator", "object"])
def test_make_grid_and_step_name_a_ragged_row_alike(form):
    ragged = [(0, 0), (1, 1, 1)]
    grid = make_grid((3, 3))
    with pytest.raises(DimensionError) as exc:
        make_grid((3, 3), live_cells=ROW_FORMS[form](ragged))
    assert str(exc.value) == "cell (1, 1, 1) does not match grid dimension 2"
    with pytest.raises(DimensionError) as exc:
        step(grid, LIFE, ROW_FORMS[form](ragged))
    assert str(exc.value) == "offset (1, 1, 1) does not match grid dimension 2"


EMPTY_ROWS = {
    "list": list, "tuple": tuple, "iterator": lambda: iter([]),
    "float-0": lambda: np.zeros((0,)), "float-0x2": lambda: np.zeros((0, 2)),
    "bool-0x5": lambda: np.zeros((0, 5), dtype=bool), "str-0": lambda: np.zeros((0,), dtype="U1"),
    "int8-0x3": lambda: np.zeros((0, 3), dtype=np.int8), "object-0x2": lambda: np.zeros((0, 2), dtype=object),
}


@pytest.mark.parametrize("empty", list(EMPTY_ROWS))
def test_make_grid_and_step_read_zero_rows_of_any_width_and_dtype(empty):
    grid, rule = make_grid((3, 3), live_cells=[(1, 1)]), Rule(frozenset({0}), frozenset())
    assert population(make_grid((3, 3), live_cells=EMPTY_ROWS[empty]())) == 0
    # with no offsets every count is 0: B0 makes every dead cell live
    stepped = step(grid, rule, EMPTY_ROWS[empty]())
    assert live_cells(stepped) == [(r, c) for r in range(3) for c in range(3) if (r, c) != (1, 1)]


def test_grid_reads_its_dims_as_make_grid_does():
    states = np.zeros((5, 5), dtype=np.uint8)
    grid = engine.Grid((np.int64(5), np.uint8(5)), states)
    assert grid.dims == (5, 5) and all(type(n) is int for n in grid.dims)
    assert render_snapshot(grid) == "\n".join(["....."] * 5)
    with pytest.raises(DomainError, match="grid dims component must be an integer, got 5.0"):
        engine.Grid((5.0, 5.0), states)
    with pytest.raises(DimensionError, match="grid dims 5 is not a coordinate sequence"):
        engine.Grid(5, states)


def test_live_cells_and_snapshots_match_per_cell_expressions():
    rng = np.random.default_rng(17)
    for dims in [(64, 64), (40,), (300,), (6, 5, 4), (5, 4, 3, 3, 4)]:
        grid = make_grid(dims, live_cells=np.argwhere(rng.random(dims) < 0.3))
        cells = [tuple(int(c) for c in cell) for cell in np.argwhere(grid.states)]
        assert live_cells(grid) == cells
        assert all(type(c) is int for cell in live_cells(grid) for c in cell)
        if len(dims) == 2:
            want = "\n".join("".join("O" if v else "." for v in row) for row in grid.states)
        else:
            want = "\n".join(format_offset(cell) for cell in sorted(cells))
        assert render_snapshot(grid) == want


def test_live_cells_round_trips():
    cells = [(0, 2), (4, 1), (2, 2)]
    grid = make_grid((5, 5), live_cells=cells)
    assert live_cells(grid) == sorted(cells)


def test_grid_equality_is_by_value():
    a = make_grid((4, 4), live_cells=[(1, 2)])
    b = make_grid((4, 4), live_cells=[(1, 2)])
    c = make_grid((4, 4), Boundary.FIXED_DEAD, [(1, 2)])
    assert a == b
    assert a != c


# ---------------------------------------------------------------- rules


def test_parse_rule_forms():
    assert parse_rule("B3/S23") == LIFE
    assert parse_rule("b36/s23") == Rule(frozenset({3, 6}), frozenset({2, 3}))
    assert parse_rule("B1/S") == Rule(frozenset({1}), frozenset())
    assert parse_rule("B2,11/S0,1") == Rule(frozenset({2, 11}), frozenset({0, 1}))
    # a part with a comma may end in one, so a lone count above 9 has a spelling
    assert parse_rule("B12,/S3") == Rule(frozenset({12}), frozenset({3}))
    assert parse_rule("B3,12,/S0,") == Rule(frozenset({3, 12}), frozenset({0}))
    assert parse_rule("B12/S3") == Rule(frozenset({1, 2}), frozenset({3}))


def test_format_rule_round_trips():
    for text in ["B3/S23", "B1/S", "B2,11/S0,1"]:
        assert parse_rule(format_rule(parse_rule(text))) == parse_rule(text)
    assert format_rule(Rule(frozenset({12}), frozenset({3}))) == "B12,/S3"


def test_format_rule_is_exact_past_the_int_to_str_limit():
    assert format_rule(Rule(frozenset({10**5000}), frozenset({3}))) == f"B1{'0' * 5000},/S3"


def test_format_rule_is_exact_under_the_least_int_to_str_limit(int_str_limit_640):
    rule = Rule(frozenset({2, 10**700}), frozenset())
    assert format_rule(rule) == f"B2,1{'0' * 700}/S"


@given(st.frozensets(st.integers(0, 300)), st.frozensets(st.integers(0, 300)))
@settings(max_examples=300, deadline=None)
def test_format_rule_round_trips_any_counts(birth, survival):
    rule = Rule(birth, survival)
    assert parse_rule(format_rule(rule)) == rule


@pytest.mark.parametrize(
    "text", ["", "B3", "3/23", "B3-S23", "Bx/Sy", "B,/S", "B,12/S", "B12,,/S", "B3/S,", "B1,,2/S"]
)
def test_parse_rule_rejects_garbage(text):
    with pytest.raises(ParseError):
        parse_rule(text)


def test_rule_rejects_negative_counts():
    with pytest.raises(DomainError):
        Rule(frozenset({-1}), frozenset())


def test_rule_counts_are_integers():
    with pytest.raises(DomainError, match="rule count must be an integer"):
        Rule(frozenset({1.5}), frozenset())
    with pytest.raises(DomainError):
        Rule(frozenset(), frozenset({"3"}))
    rule = Rule(frozenset({np.int64(3)}), frozenset({np.uint8(2), 3}))
    assert rule == LIFE
    assert all(type(n) is int for n in rule.birth | rule.survival)


# ---------------------------------------------------------------- stepping


def test_dead_grid_stays_dead_under_life():
    grid = make_grid((6, 6))
    assert population(step(grid, LIFE, MOORE2)) == 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_single_cell_birth_paints_the_neighborhood(d):
    spec = von_neumann(d)
    dims = (5,) * d
    center = (2,) * d
    grid = make_grid(dims, Boundary.FIXED_DEAD, [center])
    nxt = step(grid, Rule(frozenset({1}), frozenset()), enumerate_offsets(spec))
    assert population(nxt) == count(spec) == 2 * d
    assert center not in live_cells(nxt)


def test_glider_translates():
    grid = make_grid((8, 8), Boundary.TOROIDAL, GLIDER)
    out = run(grid, LIFE, MOORE2, 4)
    assert set(live_cells(out)) == {(a + 1, b + 1) for a, b in GLIDER}


def test_observer_sees_constant_glider_population():
    grid = make_grid((8, 8), Boundary.TOROIDAL, GLIDER)
    seen = []
    run(grid, LIFE, MOORE2, 4, observer=lambda i, pop: seen.append((i, pop)))
    assert seen == [(1, 5), (2, 5), (3, 5), (4, 5)]


def test_run_zero_steps_is_identity():
    grid = make_grid((4, 4), live_cells=[(1, 1), (2, 2)])
    assert run(grid, LIFE, MOORE2, 0) == grid


def test_run_rejects_negative_steps():
    with pytest.raises(DomainError):
        run(make_grid((3, 3)), LIFE, MOORE2, -1)


def test_run_reads_steps_as_specs_read_integers():
    grid = make_grid((8, 8), Boundary.TOROIDAL, GLIDER)
    for steps in (2.0, "2", None):
        with pytest.raises(DomainError, match="steps must be an integer"):
            run(grid, LIFE, MOORE2, steps)
    assert run(grid, LIFE, MOORE2, np.int8(2)) == run(grid, LIFE, MOORE2, 2)


@pytest.mark.parametrize("steps", [0, 5])
def test_run_reads_its_offsets_once_and_calls_engine_step_per_step(monkeypatch, steps):
    class Counted(list):
        reads = 0

        def __iter__(self):
            self.reads += 1
            return super().__iter__()

    offsets, calls, real_step = Counted(MOORE2), [], engine.step
    monkeypatch.setattr(engine, "step", lambda g, rule, offs: calls.append(len(offs)) or real_step(g, rule, offs))
    grid = make_grid((8, 8), Boundary.TOROIDAL, GLIDER)
    out = run(grid, LIFE, offsets, steps)
    assert offsets.reads == 1
    assert calls == [len(MOORE2)] * steps
    # a generator is read once too, so every step sees all of it
    assert run(grid, LIFE, iter(MOORE2), steps) == out == run(grid, LIFE, MOORE2, steps)


def _builds(function):
    """Calls of the cached ``function`` that missed its cache, counted from now."""
    function.cache_clear()
    return lambda: function.cache_info().misses


def test_steps_build_each_plan_and_lookup_once():
    # plans are cached by the value of the rows, grid shape and boundary, and
    # lookups by rule and n, so a run, and two worlds stepped in turn, build
    # each once
    grid = make_grid((8, 8), Boundary.TOROIDAL, GLIDER)
    plans, lookups = _builds(engine._count_plan), _builds(engine._lookup)
    out = run(grid, LIFE, offset_array(moore(2)), 24)
    assert (plans(), lookups()) == (1, 1)
    assert out == run(grid, LIFE, MOORE2, 24)
    assert (plans(), lookups()) == (2, 1)  # int8 rows, then int64 ones

    plans = _builds(engine._count_plan)
    for _ in range(6):
        assert step(grid, LIFE, MOORE2) == step(grid, LIFE, MOORE2[::-1])
    assert plans() == 2

    plans, wider = _builds(engine._count_plan), make_grid((9, 9), Boundary.TOROIDAL, GLIDER)
    for _ in range(6):
        step(grid, LIFE, MOORE2), step(wider, LIFE, MOORE2)
    assert plans() == 2

    plans, lookups = _builds(engine._count_plan), _builds(engine._lookup)
    highlife = Rule(birth=frozenset({3, 6}), survival=frozenset({2, 3}))
    for _ in range(6):
        step(grid, LIFE, MOORE2), step(grid, highlife, MOORE2)
    assert (plans(), lookups()) == (1, 2)


def test_run_steps_the_offsets_it_was_given_though_an_observer_writes_them():
    # run keeps its own copy of a caller's array, so writing to that array
    # mid-run changes nothing
    offsets = np.array(MOORE2)
    grid = make_grid((8, 8), Boundary.TOROIDAL, GLIDER)
    want = run(grid, LIFE, MOORE2, 6)

    def observer(i, population):
        offsets[:] = 0

    assert run(grid, LIFE, offsets, 6, observer) == want


def test_run_reads_offsets_past_int64_once(monkeypatch):
    # moore(2, 5)'s 120 offsets shifted by 3*2**70, a multiple of 64, are
    # Python ints, read once through _coordinates for the whole run
    reads, coordinates = [], neighborhoods._coordinates
    monkeypatch.setattr(neighborhoods, "_coordinates", lambda *args: reads.append(1) or coordinates(*args))
    offs = [tuple(c + 3 * 2**70 for c in off) for off in enumerate_offsets(moore(2, 5))]
    grid, rule = _soup((64, 64), Boundary.TOROIDAL), Rule(frozenset(range(34, 46)), frozenset(range(33, 58)))
    out = run(grid, rule, offs, 5)
    assert len(reads) == 120
    assert out == run(grid, rule, enumerate_offsets(moore(2, 5)), 5)


def test_empty_rule_kills_everything():
    grid = make_grid((4, 4), live_cells=[(0, 0), (1, 1), (3, 2)])
    out = step(grid, Rule(frozenset(), frozenset()), MOORE2)
    assert population(out) == 0


def test_step_leaves_input_untouched():
    grid = make_grid((5, 5), live_cells=GLIDER)
    before = live_cells(grid)
    step(grid, LIFE, MOORE2)
    assert live_cells(grid) == before


def test_step_is_deterministic():
    grid = make_grid((6, 6), live_cells=GLIDER)
    assert step(grid, LIFE, MOORE2) == step(grid, LIFE, MOORE2)


def test_offset_dimension_checked():
    grid = make_grid((4, 4))
    with pytest.raises(DimensionError):
        step(grid, LIFE, enumerate_offsets(von_neumann(3)))


def test_rule_counts_must_fit_neighborhood():
    grid = make_grid((4, 4))
    with pytest.raises(DomainError):
        step(grid, Rule(frozenset({9}), frozenset()), enumerate_offsets(von_neumann(2)))


def test_toroidal_wrap_differs_from_fixed_dead_at_the_edge():
    birth_one = Rule(frozenset({1}), frozenset())
    torus = make_grid((3, 3), Boundary.TOROIDAL, [(0, 0)])
    dead = make_grid((3, 3), Boundary.FIXED_DEAD, [(0, 0)])
    assert population(step(torus, birth_one, MOORE2)) == 8
    assert population(step(dead, birth_one, MOORE2)) == 3


# ---------------------------------------------------------------- oracle


soups = st.sets(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=0, max_size=14
)
rules = st.sampled_from(
    [LIFE, Rule(frozenset({1}), frozenset()), Rule(frozenset({2}), frozenset({0, 1, 2}))]
)


@settings(deadline=None, max_examples=40)
@given(live=soups, rule=rules, toroidal=st.booleans())
def test_step_matches_reference_oracle(live, rule, toroidal):
    boundary = Boundary.TOROIDAL if toroidal else Boundary.FIXED_DEAD
    grid = make_grid((6, 6), boundary, sorted(live))
    got = set(live_cells(step(grid, rule, MOORE2)))
    want = life_step_reference(
        live, (6, 6), rule.birth, rule.survival, MOORE2, toroidal=toroidal
    )
    assert got == want


@settings(deadline=None, max_examples=25)
@given(live=soups, rule=rules)
def test_von_neumann_step_matches_reference_oracle(live, rule):
    offs = enumerate_offsets(von_neumann(2))
    grid = make_grid((6, 6), Boundary.FIXED_DEAD, sorted(live))
    got = set(live_cells(step(grid, rule, offs)))
    want = life_step_reference(
        live, (6, 6), rule.birth, rule.survival, offs, toroidal=False
    )
    assert got == want


@settings(deadline=None, max_examples=25)
@given(live=soups)
def test_interior_pattern_ignores_boundary_kind(live):
    # pad the soup into the middle of a grid big enough that three Life
    # steps cannot reach the walls
    shifted = sorted((a + 5, b + 5) for a, b in live)
    torus = make_grid((16, 16), Boundary.TOROIDAL, shifted)
    walls = make_grid((16, 16), Boundary.FIXED_DEAD, shifted)
    assert run(torus, LIFE, MOORE2, 3).states.tolist() == run(
        walls, LIFE, MOORE2, 3
    ).states.tolist()


@settings(deadline=None, max_examples=25)
@given(live=soups, shift=st.tuples(st.integers(0, 7), st.integers(0, 7)))
def test_toroidal_translation_equivariance(live, shift):
    moved = sorted(((a + shift[0]) % 8, (b + shift[1]) % 8) for a, b in live)
    base = step(make_grid((8, 8), Boundary.TOROIDAL, sorted(live)), LIFE, MOORE2)
    moved_step = step(make_grid((8, 8), Boundary.TOROIDAL, moved), LIFE, MOORE2)
    want = sorted(((a + shift[0]) % 8, (b + shift[1]) % 8) for a, b in live_cells(base))
    assert live_cells(moved_step) == want


def test_three_dimensional_step_matches_reference_oracle():
    rng = np.random.default_rng(7)
    live = {tuple(c) for c in rng.integers(0, 4, size=(9, 3))}
    offs = enumerate_offsets(k_radius(3, 2, 1))
    rule = Rule(frozenset({2, 3}), frozenset({4}))
    grid = make_grid((4, 4, 4), Boundary.TOROIDAL, sorted(live))
    got = set(live_cells(step(grid, rule, offs)))
    want = life_step_reference(live, (4, 4, 4), rule.birth, rule.survival, offs)
    assert got == want


@pytest.mark.parametrize("boundary", list(Boundary))
def test_step_past_255_neighbours_matches_reference_oracle(boundary):
    # |N| = 288: the rule table runs past any index that uint8 arithmetic holds
    offs = enumerate_offsets(moore(2, 8))
    rule = Rule(frozenset({0, *range(80, 90)}), frozenset({*range(75, 95), len(offs)}))
    rng = np.random.default_rng(11)
    soup = {tuple(int(v) for v in c) for c in np.argwhere(rng.random((20, 20)) < 0.3)}
    full = set(itertools.product(range(20), repeat=2))
    toroidal = boundary is Boundary.TOROIDAL
    for live in (soup, full):
        got = step(make_grid((20, 20), boundary, sorted(live)), rule, offs)
        assert got.states.dtype == np.uint8
        want = life_step_reference(
            live, (20, 20), rule.birth, rule.survival, offs, toroidal=toroidal
        )
        assert set(live_cells(got)) == want


@pytest.mark.parametrize("size", [127, 128, 254, 255, 32767, 32768, 65534, 65535])
@pytest.mark.parametrize("boundary", list(Boundary))
def test_step_where_the_count_type_widens_matches_reference_oracle(size, boundary):
    # the keys 0..2|N| + 1 fit uint8 up to |N| = 127 and uint16 up to 32767,
    # the sums count + state <= |N| + 1 uint8 up to 254 and uint16 up to
    # 65534; a key 2|N| + 1 that wrapped would read (count 0, live), which
    # the rule kills; on the all-live grid the middle cell reads a live cell
    # through every offset
    offs = list(itertools.islice(itertools.cycle([(-1,), (1,)]), size))
    rule = Rule(frozenset({0, size // 2}), frozenset({1, size}))
    toroidal = boundary is Boundary.TOROIDAL
    for live in ({(1,)}, {(0,), (1,), (2,)}):
        grid = make_grid((3,), boundary, sorted(live))
        before = grid.states.copy()
        got = step(grid, rule, offs)
        assert got.states.dtype == np.uint8
        assert np.array_equal(grid.states, before)
        want = life_step_reference(live, (3,), rule.birth, rule.survival, offs, toroidal=toroidal)
        assert set(live_cells(got)) == want


@st.composite
def small_worlds(draw):
    # every axis as short as 1, below the neighborhood span 2r + 1
    d = draw(st.integers(1, 3))
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)))
    family = draw(st.sampled_from([moore, diamond, narrow_von_neumann]))
    offs = enumerate_offsets(family(d, draw(st.integers(1, 3))))
    live = draw(st.sets(st.tuples(*(st.integers(0, n - 1) for n in dims))))
    counts = st.sets(st.integers(0, len(offs)), max_size=6)
    return dims, offs, live, Rule(draw(counts), draw(counts))


@settings(deadline=None, max_examples=60)
@given(world=small_worlds(), boundary=st.sampled_from(list(Boundary)))
def test_step_on_axes_shorter_than_the_span_matches_reference_oracle(world, boundary):
    dims, offs, live, rule = world
    toroidal = boundary is Boundary.TOROIDAL
    got = set(live_cells(step(make_grid(dims, boundary, sorted(live)), rule, offs)))
    want = life_step_reference(live, dims, rule.birth, rule.survival, offs, toroidal=toroidal)
    assert got == want


@pytest.mark.parametrize("boundary", list(Boundary))
def test_step_with_far_offsets_matches_reference_oracle(boundary):
    # offsets far past every axis: a torus folds them, a fixed-dead grid reads 0
    offs = [(10**9, 0, 0), (0, -(10**9) - 1, 0), *enumerate_offsets(von_neumann(3))]
    rule = Rule(frozenset({1, 2}), frozenset({1, 3}))
    rng = np.random.default_rng(3)
    live = {tuple(int(v) for v in c) for c in np.argwhere(rng.random((4, 3, 5)) < 0.4)}
    toroidal = boundary is Boundary.TOROIDAL
    got = set(live_cells(step(make_grid((4, 3, 5), boundary, sorted(live)), rule, offs)))
    want = life_step_reference(live, (4, 3, 5), rule.birth, rule.survival, offs, toroidal=toroidal)
    assert got == want


def test_padded_copy_past_the_cell_cap_is_capacity_error(monkeypatch):
    # a 10x10 grid fits a cap of 120 cells, its Moore pad of 12x12 does not;
    # an 8x8 grid's pad of 10x10 does
    monkeypatch.setattr("nbhd.engine.DEFAULT_CELL_CAP", 120)
    for boundary in Boundary:
        with pytest.raises(CapacityError, match="padded grid of 144 cells"):
            step(make_grid((10, 10), boundary, GLIDER), LIFE, MOORE2)
        assert population(step(make_grid((8, 8), boundary, GLIDER), LIFE, MOORE2)) == 5


# ---------------------------------------------------------------- count plan
#
# Every offset list is counted by one plan, which adds each sub-sum that
# offsets share once, and each view that several offsets read (a folded
# repeat) once, multiplied; engine._index, count + state per cell, is checked
# count for count against the set-based reference.


def _int_rows(offs, d):
    """``offs`` as step passes them to engine._index, an (n, d) int64 array."""
    return np.array(offs, dtype=np.int64).reshape(-1, d)


def _plan(offs, dims, boundary):
    """engine._count_plan of ``offs``, keyed as engine._index keys it."""
    rows = _int_rows(offs, len(dims))
    return engine._count_plan(rows.tobytes(), rows.dtype, dims, boundary)


def _index_dtype(offs):
    # the sums hold count + state <= |N| + 1; the key's wider type is step's
    return np.min_scalar_type(len(offs) + 1)


def _assert_index_matches_reference(grid, offs):
    """engine._index is count + state, the count from the set-based reference."""
    toroidal = grid.boundary is Boundary.TOROIDAL
    counts = neighbour_counts_reference(live_cells(grid), grid.dims, offs, toroidal=toroidal)
    want = np.zeros(grid.dims, dtype=np.int64)
    for cell, cnt in counts.items():
        want[cell] = cnt
    index = engine._index(grid, _int_rows(offs, len(grid.dims)))
    assert index.dtype == _index_dtype(offs)
    assert np.array_equal(index, want + grid.states)


def _assert_step_matches_reference(grid, rule, offs):
    """step agrees with the set-based reference step, and _index with the
    reference counts."""
    toroidal = grid.boundary is Boundary.TOROIDAL
    live = set(live_cells(grid))
    want = life_step_reference(live, grid.dims, rule.birth, rule.survival, offs, toroidal=toroidal)
    got = step(grid, rule, offs)
    assert got.states.dtype == np.uint8
    assert set(live_cells(got)) == want
    _assert_index_matches_reference(grid, offs)


@st.composite
def offset_worlds(draw):
    # 1..3 axes of 1..5 cells; offsets with components -7..7, some from a
    # neighbourhood (so that they share sub-sums), some at random, with
    # repeats and the zero offset, in any order
    d = draw(st.integers(1, 3))
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=d, max_size=d)))
    family = draw(st.sampled_from([moore, diamond, narrow_von_neumann]))
    members = enumerate_offsets(family(d, draw(st.integers(1, 2 if d == 3 else 3))))
    offs = draw(st.lists(st.sampled_from(members), max_size=len(members), unique=True))
    offs += draw(st.lists(st.tuples(*[st.integers(-7, 7)] * d), max_size=12))
    if offs:
        offs += draw(st.lists(st.sampled_from(offs), max_size=4))
    offs += [(0,) * d] * draw(st.integers(0, 2))
    offs = draw(st.permutations(offs))
    live = draw(st.sets(st.tuples(*(st.integers(0, n - 1) for n in dims))))
    return dims, offs, live


@settings(deadline=None, max_examples=150)
@given(world=offset_worlds(), boundary=st.sampled_from(list(Boundary)))
def test_index_of_any_offset_list_matches_reference_counts(world, boundary):
    dims, offs, live = world
    _assert_index_matches_reference(make_grid(dims, boundary, sorted(live)), offs)


@pytest.mark.parametrize(
    "spec, sums, views",
    [
        (k_radius(5, 3, 1), 7, 25),
        (moore(2, 5), 2, 22),
        (diamond(2, 5), 5, 25),
        (moore(2), 2, 6),
        (diamond(3, 3), 5, 29),
        (k_radius(2, 2, 3, sharp_r=True), 3, 16),
        (diamond(3, 6), 11, 77),
    ],
    ids=["k3", "moore5", "diamond5", "life", "diamond3d", "moore-shell3", "diamond3d-r6"],
)
def test_count_plan_adds_shared_sub_sums_once(spec, sums, views):
    # Moore sums one line per axis, and the k3, Moore-5 and Life plans hold
    # no sum inside another.  diamond(2, 5) sums the segments of half-width
    # 1..4, each the one before plus 2 views, and the root reads the widest
    # segment as the one of half-width 4 plus 2 views, so 25 views in 5 sums
    # (45 views while each segment was its own sum, read 2 times or inlined);
    # diamond(3, r)'s planes nest their segments alike.  The Moore-3 shell
    # sums the pair {-3, 3} and the full rows, that pair plus 5 views; the
    # root reads the middle row as the pair plus the cell itself.  Without
    # sharing there would be one view per offset.  Every array but the root
    # is read by at least two views: a node read once is added in its reader.
    offs = tuple(enumerate_offsets(spec))
    for boundary in Boundary:
        reach, plan = _plan(offs, (64,) * spec.dimension, boundary)
        assert reach == (spec.r,) * spec.dimension
        assert (len(plan), sum(len(made) for made, _ in plan)) == (sums, views)
        reads = Counter(j for made, _ in plan for j, _, _ in made)
        assert all(reads[j] >= 2 for j in range(1, len(plan)))


def test_count_plan_adds_each_folded_view_once():
    # on a 3x2 torus the 33488 offsets of moore(2, 91) and the cell itself
    # fold onto the 6 cells: one sum of 6 views, each multiplied by the
    # number of offsets that read it, where one view per offset made 33489
    offs = tuple(enumerate_offsets(moore(2, 91)))
    reach, plan = _plan(offs, (3, 2), Boundary.TOROIDAL)
    assert reach == (1, 1)
    assert (len(plan), sum(len(made) for made, _ in plan)) == (1, 6)
    assert sum(times for made, _ in plan for _, _, times in made) == len(offs) + 1
    _assert_index_matches_reference(_soup((3, 2), Boundary.TOROIDAL), offs)


@st.composite
def k_radius_worlds(draw):
    # d = 2..4, k = 2..d, r = 1..3 and axes of 1..5 cells (r <= 2 and 1..3
    # cells at d = 4, which keeps the reference step small), so that many
    # axes are shorter than the span 2r + 1
    d = draw(st.integers(2, 4))
    k, r = draw(st.integers(2, d)), draw(st.integers(1, 3 if d < 4 else 2))
    dims = tuple(draw(st.lists(st.integers(1, 5 if d < 4 else 3), min_size=d, max_size=d)))
    offs = draw(st.randoms(use_true_random=False)).sample(
        enumerate_offsets(k_radius(d, k, r)), count(k_radius(d, k, r))
    )
    live = draw(st.sets(st.tuples(*(st.integers(0, n - 1) for n in dims))))
    # the counts 0 and |N| in the rule three times in four
    edges = draw(st.sampled_from([{0, len(offs)}, {0}, {len(offs)}, set()]))
    counts = st.sets(st.integers(0, len(offs)), max_size=5)
    rule = Rule(frozenset(draw(counts) | edges), frozenset(draw(counts) | edges))
    return dims, offs, live, rule


@settings(deadline=None, max_examples=80)
@given(world=k_radius_worlds(), boundary=st.sampled_from(list(Boundary)))
def test_k_radius_lists_match_reference_oracle(world, boundary):
    dims, offs, live, rule = world
    _assert_step_matches_reference(make_grid(dims, boundary, sorted(live)), rule, offs)


def _soup(dims, boundary, seed=5):
    rng = np.random.default_rng(seed)
    return make_grid(dims, boundary, np.argwhere(rng.random(dims) < 0.4))


@pytest.mark.parametrize("d, k, r", [(1, 1, 3), (2, 1, 2), (3, 1, 1)])
@pytest.mark.parametrize("boundary", list(Boundary))
def test_k_one_lists_match_reference_counts(d, k, r, boundary):
    offs = enumerate_offsets(k_radius(d, k, r))
    _assert_index_matches_reference(_soup((9, 7, 5)[:d], boundary), offs)


@pytest.mark.parametrize("boundary", list(Boundary))
def test_permuted_moore_lists_match_reference_counts(boundary):
    offs = enumerate_offsets(moore(3, 2))
    grid = _soup((6, 5, 7), boundary)
    for permuted in (offs[::-1], offs[1::2] + offs[::2]):
        _assert_index_matches_reference(grid, permuted)
    assert step(grid, LIFE, [list(off) for off in offs]) == step(grid, LIFE, offs)


_MOORE3 = enumerate_offsets(moore(3))
_NEAR_MISSES = {
    "duplicated": _MOORE3 + [_MOORE3[5]],
    "duplicate-in-place": [_MOORE3[1]] + _MOORE3[1:],
    "missing": _MOORE3[:7] + _MOORE3[8:],
    "zero-added": _MOORE3 + [(0, 0, 0)],
    "zero-in-place": [(0, 0, 0)] + _MOORE3[1:],
    "sharp-r-shell": enumerate_offsets(k_radius(3, 2, 2, sharp_r=True)),
    "sharp-k": enumerate_offsets(k_radius(3, 2, 1, sharp_k=True)),
    "diamond": enumerate_offsets(diamond(3, 2)),
    "far-offset": [(7, 0, 0) if off == (1, 0, 0) else off for off in _MOORE3],
}


@pytest.mark.parametrize("name", sorted(_NEAR_MISSES))
@pytest.mark.parametrize("boundary", list(Boundary))
def test_near_miss_lists_match_reference_oracle(name, boundary):
    # lists that are almost a k-radius neighbourhood
    offs = _NEAR_MISSES[name]
    grid = _soup((4, 3, 5), boundary)
    counts = sorted({0, 1, 4, 9, len(offs) // 2, len(offs)})
    _assert_step_matches_reference(grid, Rule(frozenset(counts[::2]), frozenset(counts[1::2])), offs)


# diamond(2, 5) on 512^2 folds int8 components past 127
@pytest.mark.parametrize("spec, n", [(diamond(2, 5), 512), (moore(2, 5), 64)])
@pytest.mark.parametrize("boundary", list(Boundary))
def test_offset_array_rows_step_as_the_tuple_list(spec, n, boundary):
    rng = np.random.default_rng(11)
    grid = make_grid((n, n), boundary, np.argwhere(rng.random((n, n)) < 0.3))
    array, offs = offset_array(spec), enumerate_offsets(spec)
    assert step(grid, LIFE, array) == step(grid, LIFE, offs)
    assert run(grid, LIFE, array, 2) == run(grid, LIFE, offs, 2)


@pytest.mark.parametrize("n", [5, 512])
def test_numpy_scalar_offsets_step_as_python_ints(n):
    # int8 components: 2*p and o + n//2 must not wrap, nor warn
    array = offset_array(diamond(2, 5))
    grid = make_grid((n, n), Boundary.TOROIDAL, np.argwhere(np.random.default_rng(2).random((n, n)) < 0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = step(grid, LIFE, [tuple(row) for row in array])
    assert got == step(grid, LIFE, enumerate_offsets(diamond(2, 5)))


@pytest.mark.parametrize("bad", [1.5, 1.0, "1", None])
def test_non_integer_offset_components_are_domain_errors(bad):
    grid, rule = make_grid((6, 6), live_cells=GLIDER), Rule(frozenset({1}), frozenset({1, 2}))
    step(grid, rule, [(1, 0), (0, 1)])  # 1.0 == 1 and hashes alike: the plan is not reused
    with pytest.raises(DomainError, match="offset component must be an integer"):
        step(grid, rule, [(bad, 0), (0, 1)])


# k-radius sizes are even: |N| = 126 and 128 straddle the keys' switch
# from uint8 at 127, and moore(2, 90) = 32760 and moore(2, 91) = 33488 the
# one from uint16 at 32767; at d = 1, 2r = 254 and 256 straddle the sums'
# switch from uint8 at |N| = 254, and 65534 and 65536 the one from uint16
@pytest.mark.parametrize(
    "spec, dims, dtype",
    [
        (k_radius(3, 2, 3), (3, 4, 2), np.uint8),
        (k_radius(8, 2, 1), (2, 1, 2, 3, 2, 1, 2, 2), np.uint8),
        (moore(2, 90), (3, 2), np.uint16),
        (moore(2, 91), (3, 2), np.uint16),
        (k_radius(1, 1, 127), (3,), np.uint8),
        (k_radius(1, 1, 128), (3,), np.uint16),
        (k_radius(1, 1, 32767), (3,), np.uint16),
        (k_radius(1, 1, 32768), (3,), np.uint32),
    ],
    ids=["126", "128", "32760", "33488", "d1-254", "d1-256", "d1-65534", "d1-65536"],
)
@pytest.mark.parametrize("boundary", list(Boundary))
def test_k_radius_lists_where_the_count_type_widens_match_reference_oracle(spec, dims, dtype, boundary):
    offs = enumerate_offsets(spec)
    assert _index_dtype(offs) == dtype
    size = len(offs)
    rule = Rule(frozenset({0, size // 2}), frozenset({1, size}))
    full = set(itertools.product(*(range(n) for n in dims)))
    # on the all-live torus every offset reads a live cell: the sums reach
    # count + state = |N| + 1, and the key 2|N| + 1
    soups = [full] if size > 1000 else [full, set(itertools.islice(sorted(full), 0, None, 3))]
    for live in soups:
        _assert_step_matches_reference(make_grid(dims, boundary, sorted(live)), rule, offs)


@pytest.mark.parametrize(
    "spec, dims, bound",
    [
        (moore(2), (1024, 1024), 5),
        (k_radius(5, 3, 1), (16,) * 5, 8),
        (diamond(2, 5), (512, 512), 6.8),
        (diamond(3, 3), (64,) * 3, 7.6),
    ],
    ids=["life-1024^2", "k3-16^5", "diamond5-512^2", "diamond3d-64^3"],
)
def test_step_memory_per_cell(spec, dims, bound):
    # the padded copy, the plan's sums, the next grid and the gather's
    # intp blocks, as tracemalloc sees numpy's buffers; k3's uint8 sums peak
    # at 7.2 bytes per cell (12.6 in uint16), bounded at 8 for 10% margin;
    # the diamonds, whose widest segment is added in the root with no array
    # of its own, at 6.2 and 7.0, bounded at 6.8 and 7.6
    offs = enumerate_offsets(spec)
    grid = _soup(dims, Boundary.TOROIDAL)
    step(grid, LIFE, offs)  # the plan
    tracemalloc.start()
    try:
        step(grid, LIFE, offs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * grid.states.size


# ---------------------------------------------------------------- lookup
#
# A cell with key count + (n+1)*state comes out live iff the key is a birth
# count or n + 1 past a survival count.  Up to engine._MAX_RUNS runs of live
# keys, step tests the runs; past it, it gathers from a table with np.take.
# The run test is checked against np.take over the same keys, and step
# against the set-based reference step, for every rule shape and key width.


def _key(grid, offs):
    """The key count + (n+1)*state per cell, as step makes it, in the type
    that holds 2n + 1."""
    dtype = np.min_scalar_type(2 * len(offs) + 1)
    return engine._index(grid, _int_rows(offs, len(grid.dims))) + np.multiply(grid.states, len(offs), dtype=dtype)


def _table(rule, n):
    """The next state at each key, from the rule's own sets."""
    table = np.zeros(2 * n + 2, dtype=np.uint8)
    table[list(rule.birth)] = 1
    table[[n + 1 + c for c in rule.survival]] = 1
    return table


def _rule_shapes(n):
    """Rules over counts 0..n, with the number of runs of live keys each makes."""

    def spaced(runs):  # the keys 1, 3, 5, ...: runs of one key each
        keys = range(1, 2 * runs, 2)
        return Rule(frozenset(k for k in keys if k <= n), frozenset(k - n - 1 for k in keys if k > n))

    mid, odd = n // 2, frozenset(range(1, n + 1, 2))
    return {
        "empty": (Rule(frozenset(), frozenset()), 0),
        "no-birth": (Rule(frozenset(), frozenset({mid, mid + 1})), 1),
        "no-survival": (Rule(frozenset({mid}), frozenset()), 1),
        "all": (Rule(frozenset(range(n + 1)), frozenset(range(n + 1))), 1),
        "single": (Rule(frozenset({mid}), frozenset({mid})), 2),
        "edges": (Rule(frozenset({0, n}), frozenset({0, n})), 3),  # n and n + 1 merge
        "n-then-0": (Rule(frozenset({n}), frozenset({0})), 1),
        "under": (spaced(engine._MAX_RUNS), engine._MAX_RUNS),
        "over": (spaced(engine._MAX_RUNS + 1), engine._MAX_RUNS + 1),
        "parity": (Rule(odd, odd), n),  # B1357/S1357 at n = 8
    }


# 288 offsets on 9x7 and 33488 on 3x2 fold on a torus
_KEY_WIDTHS = {
    "uint8": (moore(2), (9, 7), np.uint8),
    "uint16": (moore(2, 8), (9, 7), np.uint16),
    "uint32": (moore(2, 91), (3, 2), np.uint32),
}


@pytest.mark.parametrize("width", sorted(_KEY_WIDTHS))
@pytest.mark.parametrize("boundary", list(Boundary))
def test_run_test_matches_take_and_step_matches_reference(width, boundary):
    spec, dims, dtype = _KEY_WIDTHS[width]
    offs = enumerate_offsets(spec)
    n = len(offs)
    grid = _soup(dims, boundary)
    key = _key(grid, offs)
    assert key.dtype == dtype
    toroidal = boundary is Boundary.TOROIDAL
    counts = neighbour_counts_reference(live_cells(grid), dims, offs, toroidal=toroidal)
    for name, (rule, count_of_runs) in _rule_shapes(n).items():
        runs = engine._lookup(rule, n)[0]
        assert len(runs) == count_of_runs, name
        table = _table(rule, n)
        # every key there is, then the grid's own
        for keys in (np.arange(2 * n + 2, dtype=dtype), key.reshape(-1)):
            got = np.empty(keys.size, dtype=bool)
            engine._test_runs(keys.copy(), runs, got, np.empty(keys.size, dtype=bool))
            assert np.array_equal(got, np.take(table, keys).astype(bool)), name
        want = {cell for cell, c in counts.items() if c in (rule.survival if grid.states[cell] else rule.birth)}
        assert set(live_cells(step(grid, rule, offs))) == want, name


def test_step_tests_runs_up_to_the_crossover_and_gathers_past_it(monkeypatch):
    # 300^2 cells are two blocks; either way the next states are np.take's
    runs_tested = []
    test_runs = engine._test_runs
    monkeypatch.setattr(
        engine, "_test_runs", lambda key, runs, *rest: runs_tested.append(len(runs)) or test_runs(key, runs, *rest)
    )
    grid = _soup((300, 300), Boundary.TOROIDAL)
    key = _key(grid, MOORE2)
    shapes = _rule_shapes(len(MOORE2))
    for name, tested in [("under", [engine._MAX_RUNS] * 2), ("over", []), ("parity", [])]:
        rule = shapes[name][0]
        runs_tested.clear()
        assert np.array_equal(step(grid, rule, MOORE2).states, np.take(_table(rule, len(MOORE2)), key))
        assert runs_tested == tested, name


@pytest.mark.parametrize("boundary", list(Boundary))
def test_130_offsets_step_over_several_blocks_as_the_reference(monkeypatch, boundary):
    # 130 offsets: the sums are uint8, and each block of the key widens to
    # uint16 as it adds 130*state; blocks of 256 cells make 720 cells three
    # blocks, the last one short; a 2-run rule tests runs, a 7-run one gathers
    monkeypatch.setattr(engine, "_BLOCK", 256)
    offs = enumerate_offsets(k_radius(5, 3, 1))
    grid = _soup((4, 3, 5, 4, 3), boundary)
    assert (engine._index(grid, _int_rows(offs, 5)).dtype, _key(grid, offs).dtype) == (np.uint8, np.uint16)
    shapes = _rule_shapes(len(offs))
    for name in ("single", "over"):
        _assert_step_matches_reference(grid, shapes[name][0], offs)


@pytest.mark.parametrize("boundary", list(Boundary))
def test_step_reads_grids_of_any_memory_layout(boundary):
    # a Grid may hold a Fortran-ordered, strided or bool states array, as a
    # caller builds it: every layout steps to the C-ordered grid's next state,
    # over more than one block and for a rule on either side of the crossover
    shapes = _rule_shapes(len(MOORE2))
    for dims, offs, rules in [
        ((300, 300), MOORE2, [LIFE, shapes["over"][0]]),
        ((7, 6, 5), enumerate_offsets(moore(3)), [Rule(frozenset({4, 5}), frozenset({5, 6, 7}))]),
    ]:
        grid = _soup(dims, boundary)
        strided = np.zeros(tuple(2 * n for n in dims), dtype=np.uint8)
        strided[tuple(slice(None, None, 2) for _ in dims)] = grid.states
        layouts = [
            np.asfortranarray(grid.states), strided[tuple(slice(None, None, 2) for _ in dims)], grid.states.astype(bool),
        ]
        for rule in rules:
            want = step(grid, rule, offs)
            if dims == (7, 6, 5):
                live = set(live_cells(grid))
                toroidal = boundary is Boundary.TOROIDAL
                assert set(live_cells(want)) == life_step_reference(
                    live, dims, rule.birth, rule.survival, offs, toroidal=toroidal
                )
            for states in layouts:
                assert np.array_equal(step(engine.Grid(dims, states, boundary), rule, offs).states, want.states)
                assert np.array_equal(states, grid.states)  # the caller's array is not written


@pytest.mark.parametrize(
    "spec, birth, survival",
    [
        (moore(2), {3}, {2, 3}),
        (moore(2, 5), range(34, 46), range(33, 58)),
        (k_radius(5, 3, 1), range(33, 46), range(30, 61)),
        (diamond(2, 5), range(17, 23), range(16, 29)),
    ],
    ids=["life", "bosco", "k3", "diamond5"],
)
def test_benchmark_rules_are_two_runs(spec, birth, survival):
    # the rules of the benchmark's five cases: a span of birth counts and one
    # of survival counts, two runs of keys, which step tests
    rule = Rule(frozenset(birth), frozenset(survival))
    runs, table = engine._lookup(rule, count(spec))
    assert len(runs) == 2 and table is None


# ---------------------------------------------------------------- text formats


def test_load_pattern_from_lines():
    got = load_pattern(["# glider", "", "1,2", "2,3", "3,1", "3,2", "3,3"])
    assert got.dtype == np.int64
    assert got.tolist() == [list(cell) for cell in sorted(GLIDER)]


def test_load_pattern_from_file(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("# two cells\n0,0\n2,1\n")
    assert load_pattern(path).tolist() == [[0, 0], [2, 1]]


@pytest.mark.parametrize(
    "lines, lineno",
    [
        (["0,0", "1,1", "nope"], 3),
        (["0,0", "# note", "", "1,1,1"], 4),
        (["0,0", f"{10**30},1"], 2),
        (["0,0", "1,1", "1_000,2"], 3),
    ],
    ids=["bad-field", "ragged-after-comment-and-blank", "past-int64", "underscore"],
)
def test_load_pattern_reports_bad_line(tmp_path, lines, lineno):
    path = tmp_path / "p.txt"
    path.write_text("\n".join(lines) + "\n")
    for source in (lines, [line.encode("ascii") for line in lines], path):
        with pytest.raises(ParseError) as exc:
            load_pattern(source)
        message = str(exc.value)
        assert message.startswith(f"line {lineno}: ")
        assert "int64" not in message and "row" not in message and "usecols" not in message


def test_load_pattern_accepts_inline_comments_and_whitespace_lines(tmp_path):
    lines = ["1,2 # note", "  ", "\t", "  # indented", " 3 , -0 #", "+4,5"]
    path = tmp_path / "p.txt"
    path.write_text("\n".join(lines) + "\n")
    for source in (lines, path):
        assert load_pattern(source).tolist() == [[1, 2], [3, 0], [4, 5]]


@pytest.mark.parametrize("text", ["", "# only\n\n# comments\n"], ids=["empty", "comment-only"])
def test_load_pattern_without_cells_is_zero_rows(tmp_path, text):
    path = tmp_path / "p.txt"
    path.write_text(text)
    assert load_pattern(path).shape[0] == 0
    assert population(make_grid((4, 4), live_cells=load_pattern(path))) == 0


def test_render_two_dimensional():
    grid = make_grid((3, 4), live_cells=[(0, 0), (1, 2), (2, 3)])
    assert render_snapshot(grid) == "O...\n..O.\n...O"


def test_render_other_dimensions_lists_cells():
    grid = make_grid((2, 2, 2), live_cells=[(1, 0, 1), (0, 0, 0)])
    assert render_snapshot(grid) == "0,0,0\n1,0,1"
    assert render_snapshot(make_grid((2, 2, 2))) == ""
