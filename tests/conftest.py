import itertools
import sys

import pytest


def count_lattice_paths(d: int, r: int) -> int:
    # memo-free walk over steps E, N, NE; independent of the library recurrences
    if d == 0 or r == 0:
        return 1
    return (
        count_lattice_paths(d - 1, r)
        + count_lattice_paths(d, r - 1)
        + count_lattice_paths(d - 1, r - 1)
    )


def neighbour_counts_reference(live, dims, offsets, toroidal=True):
    """Live-neighbour count of every cell, one lookup per offset in a set of
    live cells: obviously correct, not fast.  A cell seen through several
    offsets counts once per offset."""
    live = set(live)
    counts = {}
    for cell in itertools.product(*(range(n) for n in dims)):
        cnt = 0
        for off in offsets:
            nb = tuple(c + o for c, o in zip(cell, off))
            if toroidal:
                nb = tuple(v % n for v, n in zip(nb, dims))
            elif not all(0 <= v < n for v, n in zip(nb, dims)):
                continue
            if nb in live:
                cnt += 1
        counts[cell] = cnt
    return counts


def life_step_reference(live, dims, birth, survival, offsets, toroidal=True):
    """Set-based synchronous step, written to be obviously correct, not fast."""
    live = set(live)
    counts = neighbour_counts_reference(live, dims, offsets, toroidal)
    return {cell for cell, cnt in counts.items() if cnt in (survival if cell in live else birth)}


@pytest.fixture
def path_oracle():
    return count_lattice_paths


@pytest.fixture
def step_oracle():
    return life_step_reference


@pytest.fixture
def int_str_limit_640():
    """str(int) refuses past 640 digits, the least limit Python allows, as
    PYTHONINTMAXSTRDIGITS=640 would set it; restored afterwards."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(saved)
