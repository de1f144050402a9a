import numpy as np
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


# Arguments of the wrong type, each of which once passed silently or raised
# TypeError or AttributeError from outside the package.
_GRID = nbhd.make_grid((4, 4))
_BLINKER = nbhd.make_grid((5, 5), live_cells=[(2, 1), (2, 2), (2, 3)])
WRONG_TYPE_SITES = {
    "contains-float": (nbhd.DomainError, lambda: nbhd.contains(nbhd.moore(2), (1.5, 0))),
    "contains-str": (nbhd.DomainError, lambda: nbhd.contains(nbhd.moore(2), ("a", 0))),
    "contains-bare": (nbhd.DimensionError, lambda: nbhd.contains(nbhd.moore(2), 5)),
    "flag-str": (nbhd.DomainError, lambda: nbhd.NeighborhoodSpec(2, k=2, sharp_k="no")),
    "flag-int": (nbhd.DomainError, lambda: nbhd.NeighborhoodSpec(2, k=2, sharp_k=1)),
    "flag-none": (nbhd.DomainError, lambda: nbhd.diamond(2, sharp_r=None)),
    "format-offset": (nbhd.DomainError, lambda: nbhd.format_offset((1.5,))),
    "rule-bare": (nbhd.DomainError, lambda: nbhd.Rule(3, frozenset())),
    "step-bare-offset": (nbhd.DimensionError, lambda: nbhd.step(_GRID, _LIFE, [(0, 1), 5])),
    "parse-rule-none": (nbhd.ParseError, lambda: nbhd.parse_rule(None)),
    "parse-rule-bytes": (nbhd.ParseError, lambda: nbhd.parse_rule(b"B3/S23")),
    "parse-offset-none": (nbhd.ParseError, lambda: nbhd.parse_offset(None)),
    "parse-offset-bytes": (nbhd.ParseError, lambda: nbhd.parse_offset(b"1,2")),
    "load-pattern-int": (nbhd.ParseError, lambda: nbhd.load_pattern(123)),
    "load-pattern-int-lines": (nbhd.ParseError, lambda: nbhd.load_pattern([1, 2])),
    "load-pattern-bad-bytes-line": (nbhd.ParseError, lambda: nbhd.load_pattern([b"1,2", b"x"])),
    "parse-bfile-int-line": (nbhd.ParseError, lambda: nbhd.parse_bfile(["1 2", 3])),
    # a Grid whose states step would misread: 2s counted as no live cells, and
    # a rule past _MAX_RUNS indexing past its table
    "grid-states-two": (nbhd.DomainError, lambda: nbhd.Grid((5, 5), 2 * _BLINKER.states)),
    "grid-states-int64": (nbhd.DomainError, lambda: nbhd.Grid((4, 4), _GRID.states.astype(np.int64))),
    "grid-states-list": (nbhd.DomainError, lambda: nbhd.Grid((4, 4), _GRID.states.tolist())),
    "grid-states-shape": (nbhd.DimensionError, lambda: nbhd.Grid((4, 5), _GRID.states)),
    # whole objects of the wrong type
    "count-str": (nbhd.DomainError, lambda: nbhd.count("spec")),
    "enumerate-str": (nbhd.DomainError, lambda: nbhd.enumerate_offsets("spec")),
    "contains-spec-str": (nbhd.DomainError, lambda: nbhd.contains("spec", (1,))),
    "box-scan-str": (nbhd.DomainError, lambda: nbhd.brute_force_count("spec")),
    "step-rule-str": (nbhd.DomainError, lambda: nbhd.step(_GRID, "B3/S23", [(0, 1)])),
    "step-grid-int": (nbhd.DomainError, lambda: nbhd.step(5, _LIFE, [(0, 1)])),
    "run-grid-int": (nbhd.DomainError, lambda: nbhd.run(5, _LIFE, [(0, 1)], 1)),
    "run-observer-int": (nbhd.DomainError, lambda: nbhd.run(_GRID, _LIFE, [(0, 1)], 1, observer=5)),
    "population-int": (nbhd.DomainError, lambda: nbhd.population(5)),
    "live-cells-int": (nbhd.DomainError, lambda: nbhd.live_cells(5)),
    "render-snapshot-int": (nbhd.DomainError, lambda: nbhd.render_snapshot(5)),
    "format-rule-str": (nbhd.DomainError, lambda: nbhd.format_rule("B3/S23")),
    "emit-bfile-none": (nbhd.DomainError, lambda: nbhd.emit_bfile(nbhd.SequenceId.A005843, 3, None)),
    "format-offset-bare": (nbhd.DimensionError, lambda: nbhd.format_offset(5)),
    "make-grid-bare-cells": (nbhd.DimensionError, lambda: nbhd.make_grid((3, 3), live_cells=5)),
    "make-grid-0d-cells": (nbhd.DimensionError, lambda: nbhd.make_grid((3, 3), live_cells=np.array(5))),
}


@pytest.mark.parametrize("site", list(WRONG_TYPE_SITES))
def test_wrong_types_raise_the_package_errors(site):
    error, call = WRONG_TYPE_SITES[site]
    with pytest.raises(error):
        call()


def test_text_readers_name_the_line_that_is_not_text():
    with pytest.raises(nbhd.ParseError, match="^line 2: int, not a line of text$"):
        nbhd.parse_bfile(["1 2", 3])
    with pytest.raises(nbhd.ParseError, match="^line 3: NoneType, not a line of text$"):
        nbhd.load_pattern(["1,2", b"3,4", None])
    with pytest.raises(nbhd.ParseError, match="^line 2: not ASCII text"):
        nbhd.load_pattern([b"1,2", b"\xff"])


def test_flags_are_stored_as_python_bools():
    spec = nbhd.k_radius(3, 2, sharp_k=np.True_, sharp_r=np.False_)
    assert (spec.sharp_k, spec.sharp_r) == (True, False)
    assert type(spec.sharp_k) is bool and type(spec.sharp_r) is bool
    assert spec == nbhd.k_radius(3, 2, sharp_k=True)
    assert nbhd.count(spec) == 12
