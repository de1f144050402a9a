"""The six OEIS sequences the neighborhood counts trace out.

Layouts and index offsets follow the vendored reference b-files under
tests/fixtures (see the README there for each sequence's linearization).
b-file format: one "n a(n)" pair per line, single space, newline-terminated,
no header.

Every reader of a sequence takes its terms from one checked stream, _terms,
and plain and b-file output both go through one writer, _write_terms.  The
rows of A013609 and A265014 are count's k-radius terms at r = 1, _count_terms.
"""

from __future__ import annotations

import enum
import io
import itertools
import operator
from typing import IO, Callable, Iterable, Iterator, NamedTuple

from .counting import _count_terms
from .errors import CapacityError, DomainError, ParseError
from .neighborhoods import DEFAULT_TERM_CAP, _as_int, _exact, _expect, _read_int, _text_line, format_term

# text of sequence output joined into one write, taken as that many lines of
# the last length seen: a closed pipe shows at the next write, so this bounds
# what is formatted after the reader has gone; sizing each line in Python cost
# about 5 ms a pass over catalog's five b-files of 10000 short lines
_CHARS_PER_BATCH = 2**14


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
    # row d lists 2^k * C(d, k) for k = 0..d
    SequenceId.A013609: (0, lambda: itertools.chain.from_iterable(
        _count_terms(d, 1, 0, d, diamond=False) for d in itertools.count())),
    # row d lists the k-neighborhood sizes for k = 1..d: running sums of A013609's row d
    SequenceId.A265014: (1, lambda: itertools.chain.from_iterable(
        itertools.accumulate(_count_terms(d, 1, 1, d, diamond=False)) for d in itertools.count(1))),
    # square array T(d, r) = D(d, r) - D(d, r-1), both indexed from 1, read by
    # antidiagonals with the dimension increasing inside each antidiagonal
    SequenceId.A266213: (1, lambda: (
        new[d] - old[d] for old, new in itertools.pairwise(_delannoy_antidiagonals())
        for d in range(1, len(old)))),
    SequenceId.A008288: (0, lambda: itertools.chain.from_iterable(_delannoy_antidiagonals())),
}


def _lookup(seq_id: SequenceId) -> tuple[int, Callable[[], Iterator[int]]]:
    _expect(seq_id, SequenceId, "sequence id")  # an unhashable one included
    return _SEQUENCES[seq_id]


def _terms(seq_id: SequenceId, terms: int) -> tuple[int, Iterator[int]]:
    """The index of the first term, and an iterator of the first ``terms``
    terms; the count is checked before any term is made."""
    terms = _as_int(terms, "terms")
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {_exact(terms)}")
    if terms > DEFAULT_TERM_CAP:
        raise CapacityError(f"{_exact(terms)} terms would exceed the cap of {DEFAULT_TERM_CAP}")
    offset, values = _lookup(seq_id)
    return offset, itertools.islice(values(), terms)


def generate(seq_id: SequenceId, terms: int) -> list[SequenceEntry]:
    """The first ``terms`` entries of the sequence, indices starting at the
    sequence's declared offset; at most DEFAULT_TERM_CAP (2**16) terms."""
    offset, values = _terms(seq_id, terms)
    return list(map(SequenceEntry, itertools.count(offset), values))


def _write_terms(seq_id: SequenceId, terms: int, sink: IO[bytes], bfile: bool) -> None:
    """Write the first ``terms`` terms to ``sink``, one line each: "n a(n)" in a
    b-file, the term alone otherwise.  Each write is one batch of whole lines,
    never the whole text as one string (A024023 at the term cap holds about
    10**9 digits): n lines, n at most doubling from 1 and at most
    _CHARS_PER_BATCH // (length of the last line + 1) + 1.  So what is
    formatted after a closed pipe is at most one batch."""
    offset, values = _terms(seq_id, terms)
    lines = map(format_term, values)
    if bfile:
        lines = map(" ".join, zip(map(format_term, itertools.count(offset)), lines))
    n = 1
    while batch := list(itertools.islice(lines, n)):
        # at most twice the last batch, as lines may grow within one
        n = min(2 * n, _CHARS_PER_BATCH // (len(batch[-1]) + 1) + 1)
        sink.write(("\n".join(batch) + "\n").encode("ascii"))


def emit_bfile(seq_id: SequenceId, terms: int, sink: IO[bytes]) -> None:
    """Write the sequence to ``sink`` in OEIS b-file format; a sink with no
    write method, or a text one (an io.TextIOBase, or a str mode without
    "b"), raises DomainError before any term is made."""
    if not callable(getattr(sink, "write", None)):
        raise DomainError(f"sink must have a write method, got {type(sink).__name__}")
    mode = getattr(sink, "mode", None)  # gzip's is an int, and BytesIO has none
    if isinstance(sink, io.TextIOBase) or (isinstance(mode, str) and "b" not in mode):
        raise DomainError(f"sink must take bytes, got text stream {type(sink).__name__}")
    _write_terms(seq_id, terms, sink, bfile=True)


def parse_bfile(source: Iterable[bytes] | Iterable[str]) -> list[SequenceEntry]:
    """Parse b-file lines into entries.

    Blank lines and '#' comment lines are skipped; a line that is neither str
    nor ASCII bytes, or any other line that is not two integer fields, raises
    ParseError naming the line number; terms are exact at any length.
    """
    try:
        lines = enumerate(source, start=1)
    except TypeError:
        raise ParseError(f"b-file must be lines of text, got {type(source).__name__}") from None
    entries = []
    for lineno, raw in lines:
        line = _text_line(raw, lineno).strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected 'n a(n)', got {line!r}")
        if None in (values := tuple(map(_read_int, fields))):
            raise ParseError(f"line {lineno}: non-integer field in {line!r}")
        entries.append(SequenceEntry(*values))
    return entries


def diff_against_reference(
    seq_id: SequenceId, reference: Iterable[bytes] | Iterable[str]
) -> list[Mismatch]:
    """Compare generated values against a reference b-file.

    Returns one Mismatch per disagreeing index over the overlap (indices the
    reference covers and this package generates); empty means full agreement.
    """
    ref_entries = parse_bfile(reference)
    offset, _ = _lookup(seq_id)
    last = max((e.index for e in ref_entries), default=offset - 1)
    if last < offset:
        return []
    # no term past the cap is generated, so none is compared
    offset, values = _terms(seq_id, min(last - offset + 1, DEFAULT_TERM_CAP))
    ours = dict(zip(itertools.count(offset), values))
    return [
        Mismatch(e.index, expected=e.value, actual=ours[e.index])
        for e in ref_entries
        if e.index in ours and ours[e.index] != e.value
    ]
