"""Glider flight: classic Life on a small torus, snapshot every few steps."""

from __future__ import annotations

from nbhd import (
    Boundary,
    enumerate_offsets,
    live_cells,
    make_grid,
    moore,
    parse_rule,
    population,
    render_snapshot,
    run,
)

GLIDER = [(1, 2), (2, 3), (3, 1), (3, 2), (3, 3)]


def main() -> None:
    grid = make_grid((16, 16), Boundary.TOROIDAL, GLIDER)
    rule = parse_rule("B3/S23")
    offsets = enumerate_offsets(moore(2))

    print(f"step 0 population {population(grid)}")
    print(render_snapshot(grid))
    for i in range(4, 17, 4):
        grid = run(grid, rule, offsets, 4)
        print(f"\nstep {i} population {population(grid)}")
        print(render_snapshot(grid))

    # four steps translate the glider one cell down-right; prove it
    again = run(make_grid((16, 16), Boundary.TOROIDAL, GLIDER), rule, offsets, 4)
    moved = {(a + 1, b + 1) for a, b in GLIDER}
    assert set(live_cells(again)) == moved
    print("\nglider translated by (1,1) after 4 steps, as expected")


if __name__ == "__main__":
    main()
