"""The six OEIS sequences the neighborhood counts trace out.

Layouts and index offsets follow the vendored reference b-files under
tests/fixtures (see the README there for each sequence's linearization).
b-file format: one "n a(n)" pair per line, single space, newline-terminated,
no header.
"""

from __future__ import annotations

import decimal
import enum
import itertools
import operator
from typing import IO, Callable, Iterable, Iterator, NamedTuple

from .errors import CapacityError, DomainError, ParseError
from .neighborhoods import _INTEGER, DEFAULT_TERM_CAP, _as_int, _exact


class SequenceId(enum.Enum):
    A005843 = "A005843"  # 2d: von Neumann neighborhood sizes
    A024023 = "A024023"  # 3^d - 1: Moore neighborhood sizes
    A013609 = "A013609"  # triangle 2^k * C(d,k), sharp k-neighborhood sizes
    A265014 = "A265014"  # triangle of k-neighborhood sizes
    A266213 = "A266213"  # sharp diamond sizes, antidiagonals
    A008288 = "A008288"  # Delannoy square, antidiagonals


class SequenceEntry(NamedTuple):
    index: int
    value: int


class Mismatch(NamedTuple):
    index: int
    expected: int  # value claimed by the reference
    actual: int  # value this package generates


def _sharp_k_rows() -> Iterator[list[int]]:
    # row d lists 2^k * C(d,k) for k = 0..d, each stepped from the one before
    for d in itertools.count():
        row = [1]
        for k in range(1, d + 1):
            row.append(row[-1] * 2 * (d - k + 1) // k)
        yield row


def _k_triangle() -> Iterator[int]:
    # row d lists the k-neighborhood sizes for k = 1..d: running sums of A013609's row d
    for row in itertools.islice(_sharp_k_rows(), 1, None):
        yield from itertools.accumulate(row[1:])


def _delannoy_antidiagonals() -> Iterator[list[int]]:
    # antidiagonal s of the Delannoy square lists D(i, s - i) for i = 0..s;
    # D(i, j) = D(i-1, j) + D(i-1, j-1) + D(i, j-1) reads the two antidiagonals
    # before it; each antidiagonal is a palindrome, so the direction does not matter
    older, old = [], [1]
    yield old
    for s in itertools.count(1):
        new = [1, *(old[i - 1] + older[i - 1] + old[i] for i in range(1, s)), 1]
        yield new
        older, old = old, new


# index of the first term, and a generator of the terms, per sequence
_SEQUENCES: dict[SequenceId, tuple[int, Callable[[], Iterator[int]]]] = {
    SequenceId.A005843: (0, lambda: (2 * n for n in itertools.count())),
    SequenceId.A024023: (0, lambda: (  # 3^n stepped as 3 * 3^(n-1)
        p - 1 for p in itertools.accumulate(itertools.repeat(3), operator.mul, initial=1))),
    SequenceId.A013609: (0, lambda: itertools.chain.from_iterable(_sharp_k_rows())),
    SequenceId.A265014: (1, _k_triangle),
    # square array T(d, r) = D(d, r) - D(d, r-1), both indexed from 1, read by
    # antidiagonals with the dimension increasing inside each antidiagonal
    SequenceId.A266213: (1, lambda: (
        new[d] - old[d] for old, new in itertools.pairwise(_delannoy_antidiagonals())
        for d in range(1, len(old)))),
    SequenceId.A008288: (0, lambda: itertools.chain.from_iterable(_delannoy_antidiagonals())),
}


def _lookup(seq_id: SequenceId) -> tuple[int, Callable[[], Iterator[int]]]:
    try:
        return _SEQUENCES[seq_id]
    except KeyError:
        raise DomainError(f"unknown sequence id {seq_id!r}") from None


def generate(seq_id: SequenceId, terms: int) -> list[SequenceEntry]:
    """The first ``terms`` entries of the sequence, indices starting at the
    sequence's declared offset; at most DEFAULT_TERM_CAP (2**16) terms."""
    terms = _as_int(terms, "terms")
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {_exact(terms)}")
    if terms > DEFAULT_TERM_CAP:
        raise CapacityError(f"{_exact(terms)} terms would exceed the cap of {DEFAULT_TERM_CAP}")
    offset, values = _lookup(seq_id)
    return [SequenceEntry(offset + i, v) for i, v in enumerate(itertools.islice(values(), terms))]


def format_term(value: int) -> str:
    """Decimal digits of ``value``, exact at any size.

    Goes through decimal.Decimal because str(int) refuses values above the
    interpreter's int-to-str digit limit (4300 digits by default), which
    A024023 passes near term 9015.
    """
    return str(decimal.Decimal(value))


def emit_bfile(seq_id: SequenceId, terms: int, sink: IO[bytes]) -> None:
    """Write the sequence to ``sink`` in OEIS b-file format."""
    for index, value in generate(seq_id, terms):
        sink.write(f"{index} {format_term(value)}\n".encode("ascii"))


def parse_bfile(source: Iterable[bytes] | Iterable[str]) -> list[SequenceEntry]:
    """Parse b-file lines into entries.

    Blank lines and '#' comment lines are skipped; a bytes line that is not
    ASCII, or any other line that is not two integer fields, raises ParseError
    naming the line number.
    """
    entries = []
    for lineno, raw in enumerate(source, start=1):
        try:
            line = raw.decode("ascii") if isinstance(raw, bytes) else raw
        except UnicodeDecodeError:
            raise ParseError(f"line {lineno}: not ASCII text: {raw!r}") from None
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected 'n a(n)', got {line!r}")
        if not all(_INTEGER.fullmatch(f) for f in fields):
            raise ParseError(f"line {lineno}: non-integer field in {line!r}")
        # through Decimal, the inverse of format_term: int(str) stops at 4300 digits
        entries.append(SequenceEntry(*(int(decimal.Decimal(f)) for f in fields)))
    return entries


def diff_against_reference(
    seq_id: SequenceId, reference: Iterable[bytes] | Iterable[str]
) -> list[Mismatch]:
    """Compare generated values against a reference b-file.

    Returns one Mismatch per disagreeing index over the overlap (indices the
    reference covers and this package generates); empty means full agreement.
    """
    ref_entries = parse_bfile(reference)
    if not ref_entries:
        return []
    offset, _ = _lookup(seq_id)
    last = max(e.index for e in ref_entries)
    if last < offset:
        return []
    ours = {e.index: e.value for e in generate(seq_id, last - offset + 1)}
    return [
        Mismatch(e.index, expected=e.value, actual=ours[e.index])
        for e in ref_entries
        if e.index in ours and ours[e.index] != e.value
    ]
