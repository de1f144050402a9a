import gzip
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nbhd import (
    DomainError,
    ParseError,
    SequenceId,
    delannoy,
    diamond_sharp_count,
    diff_against_reference,
    emit_bfile,
    generate,
    parse_bfile,
)
from nbhd import sequences
from nbhd.neighborhoods import format_term

FIXTURES = Path(__file__).parent / "fixtures"

PREFIXES = {
    SequenceId.A005843: [0, 2, 4, 6, 8, 10],
    SequenceId.A024023: [0, 2, 8, 26, 80, 242],
    SequenceId.A013609: [1, 1, 2, 1, 4, 4, 1, 6, 12, 8],
    SequenceId.A265014: [2, 4, 8, 6, 18, 26, 8, 32, 64, 80],
    SequenceId.A266213: [2, 2, 4, 2, 8, 6, 2, 12, 18, 8, 2, 16, 38, 32, 10],
    SequenceId.A008288: [1, 1, 1, 1, 3, 1, 1, 5, 5, 1],
}

FIRST_INDEX = {
    SequenceId.A005843: 0,
    SequenceId.A024023: 0,
    SequenceId.A013609: 0,
    SequenceId.A265014: 1,
    SequenceId.A266213: 1,
    SequenceId.A008288: 0,
}


@pytest.mark.parametrize("seq_id", list(SequenceId))
def test_known_prefixes(seq_id):
    want = PREFIXES[seq_id]
    got = [e.value for e in generate(seq_id, len(want))]
    assert got == want


@pytest.mark.parametrize("seq_id", list(SequenceId))
def test_indices_are_consecutive_from_offset(seq_id):
    entries = generate(seq_id, 12)
    start = FIRST_INDEX[seq_id]
    assert [e.index for e in entries] == list(range(start, start + 12))


def test_generate_validates_terms():
    with pytest.raises(DomainError):
        generate(SequenceId.A005843, 0)
    with pytest.raises(DomainError, match="terms must be an integer"):
        generate(SequenceId.A005843, 2.0)
    assert generate(SequenceId.A005843, np.int8(3)) == generate(SequenceId.A005843, 3)


# ---------------------------------------------------------------- b-file i/o


def test_emit_examples():
    buf = io.BytesIO()
    emit_bfile(SequenceId.A005843, 3, buf)
    assert buf.getvalue() == b"0 0\n1 2\n2 4\n"
    buf = io.BytesIO()
    emit_bfile(SequenceId.A024023, 2, buf)
    assert buf.getvalue() == b"0 0\n1 2\n"


def test_emit_takes_binary_sinks_whatever_their_mode(tmp_path):
    # emit_bfile refuses a text sink by its str mode; gzip's mode is an int,
    # and BytesIO has none
    with gzip.open(tmp_path / "b.txt.gz", "wb") as zipped, tempfile.SpooledTemporaryFile(mode="w+b") as spooled:
        for sink in (zipped, spooled, io.BytesIO()):
            emit_bfile(SequenceId.A005843, 3, sink)
        spooled.seek(0)
        assert spooled.read() == b"0 0\n1 2\n2 4\n"
    assert gzip.decompress((tmp_path / "b.txt.gz").read_bytes()) == b"0 0\n1 2\n2 4\n"


def test_emit_past_the_int_to_str_limit():
    buf = io.BytesIO()
    emit_bfile(SequenceId.A024023, 9100, buf)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = f"9099 {3**9099 - 1}".encode("ascii")
    finally:
        sys.set_int_max_str_digits(saved)
    assert buf.getvalue().splitlines()[-1] == want
    assert diff_against_reference(SequenceId.A024023, io.BytesIO(buf.getvalue())) == []


def test_first_at_most_k_row_value():
    assert generate(SequenceId.A265014, 1)[0].value == 2


@given(st.sampled_from(list(SequenceId)), st.integers(1, 40))
def test_emit_then_parse_round_trips(seq_id, terms):
    buf = io.BytesIO()
    emit_bfile(seq_id, terms, buf)
    parsed = parse_bfile(io.BytesIO(buf.getvalue()))
    assert parsed == [(e.index, e.value) for e in generate(seq_id, terms)]


def test_parse_skips_comments_and_blanks():
    text = b"# header chatter\n\n0 1\n1 5\n"
    assert parse_bfile(io.BytesIO(text)) == [(0, 1), (1, 5)]


@pytest.mark.parametrize(
    "line", [b"not a pair", b"1 1.5", b"1 1e3", b"1 NaN", b"1 Infinity"],
    ids=["not-a-pair", "1.5", "1e3", "NaN", "Infinity"],
)
def test_parse_reports_line_numbers(line):
    with pytest.raises(ParseError, match="line 2"):
        parse_bfile(io.BytesIO(b"0 1\n" + line + b"\n"))


@pytest.mark.parametrize("line", [b"1 \xff2", b"# caf\xc3\xa9"], ids=["field", "comment"])
def test_non_ascii_lines_are_parse_errors(line):
    with pytest.raises(ParseError, match="line 2: not ASCII"):
        parse_bfile([b"0 0", line])
    with pytest.raises(ParseError, match="line 2: not ASCII"):
        diff_against_reference(SequenceId.A005843, io.BytesIO(b"0 0\n" + line + b"\n"))


class WriteSink(io.BytesIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return super().write(data)


def _batch_bound(last_line):
    # a batch is n <= _CHARS_PER_BATCH // (L + 1) + 1 lines, L the length of
    # the line before it, and n <= 2**k <= the lines before it + 1.  A024023's
    # b-file lines only lengthen, and line 2m + 2 has at most twice the digits
    # of line m (9 * (3**m)**2 is at most one digit past twice 3**m's), so no
    # line of a batch is more than twice as long as the one before it: a write
    # of n such lines is at most 2 * _CHARS_PER_BATCH plus the longest line
    return 2 * sequences._CHARS_PER_BATCH + len(last_line)


def test_writes_are_bounded_by_text_not_by_lines():
    # a closed pipe shows at a write, so a write of at most one batch bounds
    # the digits formatted after the reader has gone
    sink = WriteSink()
    emit_bfile(SequenceId.A024023, 9100, sink)
    last_line = f"9099 {format_term(3**9099 - 1)}\n"
    assert len(sink.writes) > 1 and max(map(len, sink.writes)) <= _batch_bound(last_line)


@pytest.mark.parametrize("taken", [0, 2**20])
def test_a_closed_reader_stops_the_formatting_near_the_first_write(monkeypatch, taken):
    # a closed pipe shows at the first write after it, so what is formatted
    # past the text written is one batch, however fast the lines grow
    formatted = []

    def counted(value):
        formatted.append(text := format_term(value))
        return text

    class Closed(io.BytesIO):
        def write(self, data):
            if self.tell() >= taken:
                raise BrokenPipeError
            return super().write(data)

    monkeypatch.setattr(sequences, "format_term", counted)
    sink = Closed()
    with pytest.raises(BrokenPipeError):
        emit_bfile(SequenceId.A024023, 9100, sink)
    written = sink.getvalue()
    digits_written = len(written) - 2 * written.count(b"\n")  # a space and a newline a line
    last_line = f"9099 {format_term(3**9099 - 1)}\n"
    assert sum(map(len, formatted)) - digits_written <= _batch_bound(last_line)
    if not taken:
        assert formatted == ["0", "0"]  # the first batch is one line


@pytest.mark.parametrize("bfile", [True, False], ids=["bfile", "plain"])
@pytest.mark.parametrize("seq_id", list(SequenceId))
@pytest.mark.parametrize("chars", [1, 100, 5000])
def test_each_write_is_one_batch_of_whole_lines(monkeypatch, seq_id, chars, bfile):
    # batch k + 1 is twice batch k's lines but at most _CHARS_PER_BATCH // (L + 1)
    # + 1, L the length of batch k's last line; only the last batch is short
    whole = io.BytesIO()
    sequences._write_terms(seq_id, 2000, whole, bfile)
    monkeypatch.setattr(sequences, "_CHARS_PER_BATCH", chars)
    sink = WriteSink()
    sequences._write_terms(seq_id, 2000, sink, bfile)
    assert b"".join(sink.writes) == whole.getvalue()
    assert all(data.endswith(b"\n") for data in sink.writes)
    lines = [data.count(b"\n") for data in sink.writes]
    n = 1
    for i, data in enumerate(sink.writes):
        assert lines[i] == n or (i == len(lines) - 1 and lines[i] < n)
        last_line = data[data.rstrip(b"\n").rfind(b"\n") + 1 :]
        n = min(2 * n, chars // len(last_line) + 1)
    assert sum(lines) == 2000


def test_self_diff_is_empty():
    buf = io.BytesIO()
    emit_bfile(SequenceId.A005843, 20, buf)
    assert diff_against_reference(SequenceId.A005843, io.BytesIO(buf.getvalue())) == []


def test_diff_compares_up_to_the_term_cap():
    # a reference may run past the 65536 terms generated; the overlap is compared
    assert diff_against_reference(SequenceId.A005843, ["5 10", "70000 140000"]) == []
    # indices 0..65535: the last one is compared, the one past it is not
    assert diff_against_reference(SequenceId.A005843, ["5 11", "65535 0", "65536 0"]) == [
        (5, 11, 10), (65535, 0, 131070)
    ]


def test_injected_fault_is_reported():
    buf = io.BytesIO()
    emit_bfile(SequenceId.A008288, 10, buf)
    lines = buf.getvalue().decode().splitlines()
    lines[4] = "4 999"
    broken = io.BytesIO(("\n".join(lines) + "\n").encode())
    mismatches = diff_against_reference(SequenceId.A008288, broken)
    assert len(mismatches) == 1
    m = mismatches[0]
    assert (m.index, m.expected, m.actual) == (4, 999, 3)


@pytest.mark.parametrize("seq_id", list(SequenceId))
def test_agrees_with_vendored_reference(seq_id):
    path = FIXTURES / f"b{seq_id.value[1:]}.txt"
    with path.open("rb") as fh:
        assert diff_against_reference(seq_id, fh) == []


# ---------------------------------------------------------------- structure


def test_triangle_rows_sum_to_moore_counts():
    entries = [e.value for e in generate(SequenceId.A013609, 28)]
    moore = [e.value for e in generate(SequenceId.A024023, 7)]
    at = 0
    for d in range(7):
        row = entries[at : at + d + 1]
        at += d + 1
        assert row[0] == 1
        assert sum(row[1:]) == moore[d]


def test_at_most_k_rows_start_and_end_right():
    entries = [e.value for e in generate(SequenceId.A265014, 28)]
    at = 0
    for d in range(1, 8):
        row = entries[at : at + d]
        at += d
        assert row[0] == 2 * d
        assert row[-1] == 3**d - 1


def test_delannoy_antidiagonals_are_palindromes():
    entries = [e.value for e in generate(SequenceId.A008288, 36)]
    at = 0
    for s in range(8):
        diag = entries[at : at + s + 1]
        at += s + 1
        assert diag == diag[::-1]


def test_antidiagonal_sequences_match_the_counting_formulas():
    # 60 antidiagonals, 1830 terms each, well past the 64-term goldens
    terms = 60 * 61 // 2
    square = [e.value for e in generate(SequenceId.A008288, terms)]
    assert square == [delannoy(i, s - i) for s in range(60) for i in range(s + 1)]
    shells = [e.value for e in generate(SequenceId.A266213, terms)]
    assert shells == [diamond_sharp_count(d, s - d) for s in range(2, 62) for d in range(1, s)]
