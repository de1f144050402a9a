import inspect
import io
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

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


def _emit_to_spooled_text():
    with tempfile.SpooledTemporaryFile(mode="w+") as sink:
        nbhd.emit_bfile(nbhd.SequenceId.A005843, 3, sink)


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
    "emit-bfile-text-sink": (nbhd.DomainError, lambda: nbhd.emit_bfile(nbhd.SequenceId.A005843, 3, io.StringIO())),
    # a text sink that is no io.TextIOBase, told by its mode
    "emit-bfile-spooled-text-sink": (nbhd.DomainError, _emit_to_spooled_text),
    "format-offset-bare": (nbhd.DimensionError, lambda: nbhd.format_offset(5)),
    "make-grid-bare-cells": (nbhd.DimensionError, lambda: nbhd.make_grid((3, 3), live_cells=5)),
    "make-grid-0d-cells": (nbhd.DimensionError, lambda: nbhd.make_grid((3, 3), live_cells=np.array(5))),
    # every coordinate sequence is read through one reader
    "make-grid-bare-dims": (nbhd.DimensionError, lambda: nbhd.make_grid(5)),
    "grid-bare-dims": (nbhd.DimensionError, lambda: nbhd.Grid(5, _GRID.states)),
    "grid-float-dims": (nbhd.DomainError, lambda: nbhd.Grid((5.0, 5.0), _BLINKER.states)),
    "step-bare-offsets": (nbhd.DimensionError, lambda: nbhd.step(_GRID, _LIFE, 5)),
    # Grid refuses the dims make_grid refuses, and run, at any steps, what step refuses
    "grid-empty-axis": (nbhd.DomainError, lambda: nbhd.Grid((0, 5), np.zeros((0, 5), np.uint8))),
    "grid-no-dims": (nbhd.DomainError, lambda: nbhd.Grid((), np.zeros((), np.uint8))),
    "run-zero-steps-grid-int": (nbhd.DomainError, lambda: nbhd.run(5, 6, 7, 0)),
    "run-zero-steps-offset-width": (nbhd.DimensionError, lambda: nbhd.run(_GRID, _LIFE, [(0, 1, 2)], 0)),
    "run-zero-steps-rule-past-n": (nbhd.DomainError, lambda: nbhd.run(_GRID, nbhd.parse_rule("B9/S"), _MOORE2, 0)),
    # an unhashable sequence id
    "generate-list-id": (nbhd.DomainError, lambda: nbhd.generate([1], 5)),
    "emit-bfile-list-id": (nbhd.DomainError, lambda: nbhd.emit_bfile([1], 5, io.BytesIO())),
    "diff-list-id": (nbhd.DomainError, lambda: nbhd.diff_against_reference([1], ["0 0"])),
    "load-pattern-nul": (nbhd.ParseError, lambda: nbhd.load_pattern("cells\0.txt")),
    # powers too big to make: a box scan, and the box of verify's last scan
    "box-scan-huge-d": (nbhd.CapacityError, lambda: nbhd.brute_force_count(nbhd.moore(HUGE))),
    "verify-huge-d": (nbhd.CapacityError, lambda: nbhd.run_verification(HUGE)),
    "verify-huge-r": (nbhd.CapacityError, lambda: nbhd.run_verification(1, 1, HUGE)),
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


# ---------------------------------------------------------------- API fuzz

# Enum classes, named tuples, CheckResult and the Offset alias are records,
# not readers; the error classes are what the readers raise.
_RECORDS = {"Boundary", "Family", "SequenceId", "Mismatch", "SequenceEntry", "CheckResult", "Offset"}
_PACKAGE_ERRORS = (nbhd.BoundsError, nbhd.CapacityError, nbhd.DimensionError, nbhd.DomainError, nbhd.ParseError)
_READERS = sorted(set(nbhd.__all__) - _RECORDS - {error.__name__ for error in _PACKAGE_ERRORS})
# Small ints and extremes: a mid-size verify range or step count is a valid
# request that takes as long as it asks for, and the caps meet the extremes.
_SMALL = st.integers(-1, 3)
_NUMBERS = st.one_of(_SMALL, st.sampled_from([
    HUGE, -HUGE, 2**63, -(2**63) - 1, np.int8(-3), np.int64(2), np.uint64(2**64 - 1),
    np.float64(2.0), np.True_, 1.5, float("nan"), True, None,
]))
_TEXT = st.one_of(st.text(max_size=6), st.binary(max_size=6), st.sampled_from(["B3/S23", "1,2", "0 0", "A005843"]))
_ARRAYS = st.sampled_from([
    np.zeros(()), np.zeros(3, np.int64), np.zeros((2, 3)), np.zeros((0, 2)), np.ones((4, 4), np.uint8),
    np.zeros((5, 5), bool), np.full((2, 2), 2, np.uint8), np.array([[1.5, 2.0]]), np.array([["a", "b"]]),
])
_OBJECTS = st.one_of(st.builds(io.BytesIO), st.sampled_from([
    nbhd.moore(2), nbhd.diamond(2, 3, sharp_r=True), nbhd.moore(HUGE), nbhd.von_neumann(HUGE), _GRID, _BLINKER,
    _LIFE, nbhd.SequenceId.A008288, nbhd.Boundary.FIXED_DEAD, nbhd.Family.DIAMOND, frozenset({2, 3}), _MOORE2,
]))
_ATOMS = st.one_of(_NUMBERS, _TEXT, _ARRAYS, _OBJECTS)
_PAIRS = st.tuples(_NUMBERS, _NUMBERS)
_VALUES = st.one_of(_ATOMS, _PAIRS, st.lists(_ATOMS, max_size=3), st.lists(_PAIRS, max_size=3))


@settings(deadline=None, max_examples=500, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_public_reader_returns_or_raises_a_package_error(data):
    name = data.draw(st.sampled_from(_READERS), label="reader")
    reader = getattr(nbhd, name)
    params = list(inspect.signature(reader).parameters.values())
    positional = [p for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
    required = sum(p.default is p.empty for p in positional)
    args = [data.draw(_VALUES, label=p.name) for p in positional[: data.draw(st.integers(required, len(positional)))]]
    kwargs = {p.name: data.draw(_VALUES, label=p.name) for p in params
              if p.kind is p.KEYWORD_ONLY and data.draw(st.booleans())}
    if name == "run" and len(args) > 3:
        # as in the argv fuzz, a huge step count is a valid request for a run
        # that does not end in practice
        args[3] = data.draw(st.one_of(_SMALL, _TEXT, _ARRAYS), label="steps")
    try:
        reader(*args, **kwargs)
        event(f"{name} returned")
    except _PACKAGE_ERRORS as exc:
        event(f"{name} {type(exc).__name__}")
    except OSError:
        # a path that cannot be read is the file system's error
        assert name == "load_pattern" and isinstance(args[0], (str, pathlib.Path))
