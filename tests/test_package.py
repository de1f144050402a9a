import pytest

import nbhd


def test_every_export_resolves_once():
    assert len(nbhd.__all__) == len(set(nbhd.__all__))
    missing = [name for name in nbhd.__all__ if not hasattr(nbhd, name)]
    assert missing == []


# An int past the interpreter's 4300-digit str() limit, in a message of each
# kind of error the package raises: exact digits, and the package's own type.
HUGE = 10**5000
_LIFE = nbhd.Rule(frozenset({3}), frozenset({2, 3}))
_MOORE2 = nbhd.enumerate_offsets(nbhd.moore(2))
HUGE_INT_SITES = {
    "spec-dimension": (nbhd.DomainError, lambda: nbhd.NeighborhoodSpec(-HUGE, k=1)),
    "spec-r": (nbhd.DomainError, lambda: nbhd.NeighborhoodSpec(1, r=-HUGE)),
    "spec-k": (nbhd.DomainError, lambda: nbhd.k_radius(2, HUGE)),
    "contains": (nbhd.DimensionError, lambda: nbhd.contains(nbhd.von_neumann(HUGE), (1,))),
    "count-bits": (nbhd.CapacityError, lambda: nbhd.count(nbhd.moore(HUGE))),
    "offset-array": (nbhd.CapacityError, lambda: nbhd.offset_array(nbhd.von_neumann(HUGE))),
    "box-scan": (nbhd.CapacityError, lambda: nbhd.brute_force_count(nbhd.moore(10**4))),
    "grid-dims": (nbhd.DomainError, lambda: nbhd.make_grid((-HUGE, 2))),
    "grid-cells": (nbhd.CapacityError, lambda: nbhd.make_grid((HUGE,))),
    "cell-outside": (nbhd.BoundsError, lambda: nbhd.make_grid((3, 3), live_cells=[(0, HUGE)])),
    "cell-bare": (nbhd.DimensionError, lambda: nbhd.make_grid((3, 3), live_cells=[HUGE])),
    "cell-width": (nbhd.DimensionError, lambda: nbhd.make_grid((3, 3), live_cells=[(0, 0, HUGE)])),
    "rule-count": (nbhd.DomainError, lambda: nbhd.Rule(frozenset({-HUGE}), frozenset())),
    "check-fits": (nbhd.DomainError, lambda: nbhd.Rule(frozenset({HUGE}), frozenset()).check_fits(8)),
    "step-offset": (nbhd.DimensionError, lambda: nbhd.step(nbhd.make_grid((4, 4)), _LIFE, [(HUGE, 0, 0)])),
    "run-steps": (nbhd.DomainError, lambda: nbhd.run(nbhd.make_grid((4, 4)), _LIFE, _MOORE2, -HUGE)),
    "terms-low": (nbhd.DomainError, lambda: nbhd.generate(nbhd.SequenceId.A005843, -HUGE)),
    "terms-cap": (nbhd.CapacityError, lambda: nbhd.generate(nbhd.SequenceId.A005843, HUGE)),
    "binomial": (nbhd.DomainError, lambda: nbhd.binomial(-HUGE, 1)),
    "delannoy": (nbhd.DomainError, lambda: nbhd.delannoy(-HUGE, 1)),
}


@pytest.mark.parametrize("site", list(HUGE_INT_SITES))
def test_huge_ints_in_error_messages_keep_the_error_type(site):
    error, call = HUGE_INT_SITES[site]
    with pytest.raises(error) as exc:
        call()
    assert len(str(exc.value)) > 4300
