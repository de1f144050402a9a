import itertools

import numpy as np
import pytest
from conftest import life_step_reference
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_make_grid_validates():
    with pytest.raises(DomainError):
        make_grid((0, 3))
    with pytest.raises(BoundsError):
        make_grid((3, 3), live_cells=[(3, 0)])
    with pytest.raises(BoundsError):
        make_grid((3, 3), live_cells=[(-1, 0)])
    for cells in ([(1, 1, 1)], [(0, 0), (1, 1, 1)]):
        with pytest.raises(DimensionError) as exc:
            make_grid((3, 3), live_cells=cells)
        assert str(exc.value) == "cell (1, 1, 1) does not match grid dimension 2"
    with pytest.raises(BoundsError, match=r"cell \(0, 1000000000000000000000000000000\)"):
        make_grid((3, 3), live_cells=[(0, 0), (0, 10**30)])
    with pytest.raises(CapacityError):
        make_grid((2**40, 2**40))


def test_live_cells_and_snapshots_match_per_cell_expressions():
    rng = np.random.default_rng(17)
    for dims in [(64, 64), (6, 5, 4)]:
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


def test_format_rule_round_trips():
    for text in ["B3/S23", "B1/S", "B2,11/S0,1"]:
        assert parse_rule(format_rule(parse_rule(text))) == parse_rule(text)


@pytest.mark.parametrize("text", ["", "B3", "3/23", "B3-S23", "Bx/Sy"])
def test_parse_rule_rejects_garbage(text):
    with pytest.raises(ParseError):
        parse_rule(text)


def test_rule_rejects_negative_counts():
    with pytest.raises(DomainError):
        Rule(frozenset({-1}), frozenset())


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
    for source in (lines, path):
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
