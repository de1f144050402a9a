import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import nbhd
from nbhd import cli, counting, diamond, engine, enumerate_offsets, format_offset, k_radius, load_pattern, moore
from nbhd import verification
from nbhd.cli import main
from nbhd.neighborhoods import DEFAULT_TERM_CAP, Family, _box_tally
from nbhd.sequences import SequenceId, format_term
from nbhd.errors import DomainError, ParseError
from nbhd.verification import iter_specs, run_verification

GLIDER_LINES = "1,2\n2,3\n3,1\n3,2\n3,3\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------- count


def test_count_at_most_k(capsys):
    code, out, err = run_cli(capsys, "count", "--d", "3", "--k", "2", "--r", "1")
    assert (code, out) == (0, "18\n")
    assert err == ""


def test_count_diamond(capsys):
    code, out, _ = run_cli(capsys, "count", "--d", "2", "--diamond", "--r", "2")
    assert (code, out) == (0, "12\n")


def test_count_sharp_k_past_radius_one_is_quiet(capsys):
    code, out, err = run_cli(
        capsys, "count", "--d", "2", "--k", "1", "--r", "2", "--sharp-k"
    )
    assert (code, out, err) == (0, "8\n", "")


def test_count_past_the_int_to_str_limit(capsys):
    code, out, err = run_cli(capsys, "count", "--d", "10000", "--k", "10000")
    assert (code, out, err) == (0, format_term(3**10000 - 1) + "\n", "")


def _flags(spec):
    kind = ["--diamond"] if spec.family is Family.DIAMOND else ["--k", str(spec.k)]
    sharp = ["--sharp-k"] * spec.sharp_k + ["--sharp-r"] * spec.sharp_r
    return " ".join(["--d", str(spec.dimension), *kind, "--r", str(spec.r), *sharp])


PINNED_COUNTS = [
    "--d 9100 --k 9100",  # 3^9100 - 1, 4342 digits
    "--d 9100 --k 9100 --r 2 --sharp-r",  # 5^9100 - 3^9100, 6361 digits
    "--d 30 --k 1 --r 2 --sharp-k",
    "--d 99999999999999999999 --k 1",
    "--d 9100 --k 9000 --r 2 --sharp-k --sharp-r",  # C(9100, 9000) * (4^9000 - 2^9000)
    "--d 8000 --diamond --r 8000",  # D(8000, 8000) - 1, 6124 bytes
    "--d 8000 --diamond --r 8000 --sharp-r",
    "--d 3 --diamond --r 100000 --sharp-r",  # the sum over j ends at d
    "--d 100000 --diamond --r 3 --sharp-r",  # and here at r
]


def test_count_output_matches_golden_hashes(capsysbinary):
    # sha256 of the stdout of the catalog's 280 specs (d <= 5, r <= 4) and of
    # the runs above, recorded while count stepped its own sums
    path = Path(__file__).parent / "fixtures" / "count_sha256.json"
    golden = json.loads(path.read_text())
    assert list(golden) == [_flags(spec) for spec in iter_specs(5, 5, 4)] + PINNED_COUNTS
    got = {}
    for flags in golden:
        assert main(["count", *flags.split()]) == 0
        out, err = capsysbinary.readouterr()
        assert err == b""
        got[flags] = hashlib.sha256(out).hexdigest()
    assert got == golden


# ---------------------------------------------------------------- enumerate


def test_enumerate_von_neumann(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--d", "2", "--k", "1", "--r", "1")
    assert code == 0
    assert out.splitlines() == ["-1,0", "0,-1", "0,1", "1,0"]


@pytest.mark.parametrize(
    "flags",
    [
        ["--d", "3", "--k", "2", "--r", "2"],
        ["--d", "2", "--diamond", "--r", "3", "--sharp-r"],
        ["--d", "3", "--k", "3", "--r", "1", "--sharp-k"],
        ["--d", "3", "--k", "2", "--r", "2", "--sharp-k"],
        # boxes past DEFAULT_BOX_CAP: only the formula and the enumeration count these
        ["--d", "30", "--k", "1", "--r", "2", "--sharp-k"],
        ["--d", "12", "--k", "2", "--r", "3", "--sharp-k", "--sharp-r"],
    ],
)
def test_count_equals_enumerate_length(capsys, flags):
    _, count_out, _ = run_cli(capsys, "count", *flags)
    _, enum_out, _ = run_cli(capsys, "enumerate", *flags)
    assert int(count_out) == len(enum_out.splitlines())


@pytest.mark.parametrize("family", [["--k", "1"], ["--diamond"]])
def test_enumerate_one_axis_shell_at_a_huge_radius(capsys, family):
    r = "99999999999999999999"
    code, out, err = run_cli(capsys, "enumerate", "--d", "1", *family, "--r", r, "--sharp-r")
    assert (code, out, err) == (0, f"-{r}\n{r}\n", "")


@pytest.mark.parametrize(
    "spec, flags",
    [
        # negative and two-digit components
        (k_radius(1, 1, 12), ["--d", "1", "--k", "1", "--r", "12"]),
        (diamond(3, 4, sharp_r=True), ["--d", "3", "--diamond", "--r", "4", "--sharp-r"]),
        # 19880 lines, more than one write
        (moore(2, 70), ["--d", "2", "--k", "2", "--r", "70"]),
        # components either side of the int8, int16, int32 and int64 edges
        *[
            (k_radius(2, k, r, sharp_r=True), ["--d", "2", "--k", str(k), "--r", str(r), "--sharp-r"])
            for k, r in [(2, 127), (2, 128), (1, 2**15 - 1), (1, 2**15), (1, 2**31), (1, 2**63 - 1), (1, 2**63)]
        ],
    ],
)
def test_enumerate_writes_one_formatted_offset_per_line(capsys, spec, flags):
    offsets = enumerate_offsets(spec)
    if spec == moore(2, 70):
        assert len(offsets) > cli._ROWS_PER_WRITE
    code, out, err = run_cli(capsys, "enumerate", *flags)
    assert (code, out, err) == (0, "".join(format_offset(o) + "\n" for o in offsets), "")


def test_enumerate_output_matches_golden_hashes(capsysbinary):
    # sha256 of the stdout of every spec with d <= 6 and r <= 5, recorded
    # from the tuple-by-tuple enumeration that came before offset_array
    path = Path(__file__).parent / "fixtures" / "enumerate_sha256.json"
    golden = json.loads(path.read_text())
    assert list(golden) == [_flags(spec) for spec in iter_specs(6, 6, 5)]
    got = {}
    for flags in golden:
        assert main(["enumerate", *flags.split()]) == 0
        out, err = capsysbinary.readouterr()
        assert err == b""
        got[flags] = hashlib.sha256(out).hexdigest()
    assert got == golden


def test_enumerate_stops_quietly_on_a_closed_pipe():
    # the reader takes the first of about 2 MB of lines and closes the pipe,
    # as `| head -1` does
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nbhd.__file__))}
    with subprocess.Popen(
        [sys.executable, "-m", "nbhd", "enumerate", "--d", "6", "--k", "6", "--r", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline() == b"-3,-3,-3,-3,-3,-3\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


def test_enumeration_length_does_not_come_from_count(capsys):
    # a count that is off by one shows in verify; the offsets stay the same
    with mock.patch("nbhd.counting.count", lambda spec, _count=nbhd.count: _count(spec) + 1):
        assert len(enumerate_offsets(moore(2))) == 8
        code, out, err = run_cli(capsys, "verify", "--max-d", "2", "--max-r", "1")
    assert code == 1
    assert "closed form vs box scan vs enumeration" in out.splitlines()[-2]
    assert out.splitlines()[-2].endswith("FAIL") and out.endswith("verification FAILED\n")
    # k_radius(1, 1, 1): the enumeration agrees with the box scan, not with the count
    oracle = [line for line in err.splitlines() if "box scan=" in line]
    assert oracle[0].endswith("count=3, box scan=2, enumeration=2")
    # k_count is count on its spec, so the recurrence it is checked against sees it too
    assert "  k_count(1,1)=3 but recurrence gives 2" in err.splitlines()


def test_enumerate_huge_dimension_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--d", "99999999999999999999", "--k", "1")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_enumerate_over_cap_is_runtime_failure(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--d", "24", "--k", "24")
    assert code == 1
    assert out == ""
    assert "error" in err


def test_enumerate_past_the_component_cap_is_one_error_line(capsys):
    # 4,995,200 offsets, under 2**24, but of 40 components each
    code, out, err = run_cli(capsys, "enumerate", "--d", "40", "--k", "2", "--r", "40")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "4995200 offsets of 40 components" in err


# ---------------------------------------------------------------- sequence


def test_sequence_bfile(capsys):
    code, out, _ = run_cli(
        capsys, "sequence", "--id", "A005843", "--terms", "3", "--bfile"
    )
    assert (code, out) == (0, "0 0\n1 2\n2 4\n")


def test_sequence_plain_values(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--id", "A008288", "--terms", "6")
    assert code == 0
    assert out.splitlines() == ["1", "1", "1", "1", "3", "1"]


def test_sequence_plain_values_past_the_int_to_str_limit(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--id", "A024023", "--terms", "9100")
    assert code == 0
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = str(3**9099 - 1)
    finally:
        sys.set_int_max_str_digits(saved)
    assert out.splitlines()[-1] == want


def test_sequence_unknown_id_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sequence", "--id", "A000001", "--terms", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("terms", ["99999999999999999999999", str(DEFAULT_TERM_CAP + 1)])
def test_sequence_past_the_term_cap_is_one_error_line(capsys, terms):
    code, out, err = run_cli(capsys, "sequence", "--id", "A008288", "--terms", terms)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


PINNED_SEQUENCES = [
    *(f"--id {seq_id.value} --terms {terms}" for seq_id in SequenceId for terms in (1, 64, 2000)),
    "--id A024023 --terms 9100",  # its last terms pass str(int)'s 4300 digits
]


def test_sequence_output_matches_golden_hashes(capsysbinary):
    # sha256 of the stdout of each pinned run, plain and as a b-file, recorded
    # when plain output still went through one print per term
    path = Path(__file__).parent / "fixtures" / "sequence_sha256.json"
    golden = json.loads(path.read_text())
    assert list(golden) == [f"{args}{bfile}" for args in PINNED_SEQUENCES for bfile in ("", " --bfile")]
    got = {}
    for args in golden:
        assert main(["sequence", *args.split()]) == 0
        out, err = capsysbinary.readouterr()
        assert err == b""
        got[args] = hashlib.sha256(out).hexdigest()
    assert got == golden


@pytest.mark.parametrize("bfile", [[], ["--bfile"]])
def test_sequence_output_is_exact_under_the_least_int_to_str_limit(capsysbinary, request, bfile):
    # A024023's terms pass 640 digits from term 1342 on
    argv = ["sequence", "--id", "A024023", "--terms", "1500", *bfile]
    assert main(argv) == 0
    want = capsysbinary.readouterr()
    request.getfixturevalue("int_str_limit_640")
    assert main(argv) == 0
    assert capsysbinary.readouterr() == want


@pytest.mark.parametrize("bfile, first", [([], b"0\n"), (["--bfile"], b"0 0\n")])
def test_sequence_stops_quietly_on_a_closed_pipe(bfile, first):
    # the reader takes the first of about 6 MB of lines and closes the pipe
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nbhd.__file__))}
    with subprocess.Popen(
        [sys.executable, "-m", "nbhd", "sequence", "--id", "A024023", "--terms", "5000", *bfile],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline() == first
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


# ---------------------------------------------------------------- verify


def test_verify_small_ranges(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-d", "3", "--max-r", "2")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out
    assert err == ""


def test_verify_output_matches_golden_hashes(capsysbinary):
    # sha256 of verify's stdout at the defaults and over the catalog's range
    path = Path(__file__).parent / "fixtures" / "verify_sha256.json"
    golden = json.loads(path.read_text())
    assert list(golden) == ["", "--max-d 5 --max-r 3"]
    got = {}
    for flags in golden:
        assert main(["verify", *flags.split()]) == 0
        out, err = capsysbinary.readouterr()
        assert err == b""
        got[flags] = hashlib.sha256(out).hexdigest()
    assert got == golden


@pytest.mark.parametrize(
    "ranges, message",
    [
        ((0,), "max_d must be >= 1"),
        ((-3, None, 2), "max_d must be >= 1"),
        ((4, 0, 3), "max_k must be >= 1"),
        ((2, None, 0), "max_r must be >= 1"),
        ((2.5,), "max_d must be an integer"),
    ],
)
def test_run_verification_refuses_a_range_that_checks_nothing(ranges, message):
    # run_verification(0) once passed eight checks of 0 cases, and max_k = 0
    # skipped every k-radius spec of the oracle check
    with pytest.raises(DomainError, match=message):
        run_verification(*ranges)
    assert all(result.ok and result.cases for result in run_verification(2, 2, 2))


def test_verify_scans_each_box_once():
    # iter_specs yields the 210 specs of d <= 5, r <= 3 box by box, so the
    # oracle check scans each of the 15 boxes once and reads the rest
    _box_tally.cache_clear()
    results = run_verification(5, 5, 3)
    assert all(result.ok for result in results)
    info = _box_tally.cache_info()
    assert (info.misses, info.hits) == (15, 210 - 15)


def test_verify_times_each_check():
    results = run_verification(2, 2, 2)
    assert len(results) == 8
    assert all(result.seconds >= 0 for result in results)
    assert results[-1].seconds > 0  # the oracle check scans 4 boxes


@pytest.mark.parametrize(
    "check, shell, cases",
    [("check_moore_shell_identity", "moore_radius_sharp_count", 50),
     ("check_delannoy_identities", "diamond_sharp_count", 150)],
)
def test_shell_sum_checks_count_each_shell_once(monkeypatch, check, shell, cases):
    # a running sum per d; summing the shells 1..r afresh made 1275 calls
    real, calls = getattr(counting, shell), []
    monkeypatch.setattr(counting, shell, lambda d, r: calls.append((d, r)) or real(d, r))
    result = getattr(verification, check)(1, 50)
    assert (result.ok, result.cases) == (True, cases)
    assert calls == [(1, r) for r in range(1, 51)]


# ---------------------------------------------------------------- simulate


def test_simulate_glider(capsys, tmp_path):
    pattern = tmp_path / "glider.txt"
    pattern.write_text(GLIDER_LINES)
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--dims", "16,16",
        "--k", "2",
        "--rule", "B3/S23",
        "--steps", "4",
        "--pattern", str(pattern),
        "--snapshot-every", "4",
    )
    assert code == 0
    assert "step 4 population 5" in out
    assert out.rstrip().endswith("final population 5")
    snapshot = out.split("step 4 population 5\n", 1)[1]
    assert ".OOO." in "".join(snapshot.splitlines()[3:5])


# (dims, neighbourhood flags, rule, live cells): a glider that reaches the
# walls of a fixed-dead 8x8 grid within 16 steps, and a seeded 3-D soup
SIMULATIONS = {
    "glider": ((8, 8), ["--k", "2"], "B3/S23", [(1, 2), (2, 3), (3, 1), (3, 2), (3, 3)]),
    "soup-3d": (
        (6, 5, 4), ["--k", "3"], "B5,6,7/S5,6,7,8",
        np.argwhere(np.random.default_rng(11).random((6, 5, 4)) < 0.3).tolist(),
    ),
}


@pytest.mark.parametrize("every", [None, 1, 3, 4, 7, 40])
@pytest.mark.parametrize("steps", [0, 5, 16])
@pytest.mark.parametrize("boundary", ["torus", "dead"])
@pytest.mark.parametrize("name", list(SIMULATIONS))
def test_simulate_prints_what_a_step_loop_prints(capsys, tmp_path, name, boundary, steps, every):
    dims, flags, rule_text, cells = SIMULATIONS[name]
    pattern = tmp_path / "p.txt"
    pattern.write_text("".join(format_offset(cell) + "\n" for cell in cells))
    argv = ["simulate", "--dims", ",".join(map(str, dims)), *flags, "--rule", rule_text,
            "--steps", str(steps), "--pattern", str(pattern), "--boundary", boundary]
    code, out, err = run_cli(capsys, *argv, *(["--snapshot-every", str(every)] if every else []))

    # one engine.step per step, each snapshot block after its step
    grid = engine.make_grid(
        dims, engine.Boundary.TOROIDAL if boundary == "torus" else engine.Boundary.FIXED_DEAD, cells
    )
    rule = engine.parse_rule(rule_text)
    offsets = enumerate_offsets(k_radius(len(dims), int(flags[1])))
    want = []
    for i in range(1, steps + 1):
        grid = engine.step(grid, rule, offsets)
        if every is not None and i % every == 0:
            want += [f"step {i} population {engine.population(grid)}", engine.render_snapshot(grid), ""]
    want.append(f"final population {engine.population(grid)}")
    assert (code, out, err) == (0, "\n".join(want) + "\n", "")
    assert engine.population(grid) > 0


# Seeded soups stepped through simulate and hashed: (dims, neighbourhood,
# rule, boundary, live density, steps, --snapshot-every).  The neighbourhood is
# simulate's flags, or a spec for the shapes simulate has no flags for (sharp
# on r or on k), which are stepped with engine.run and printed the same way.
PINNED_SIMULATIONS = {
    "life-torus": ((48, 48), ["--k", "2"], "B3/S23", "torus", 0.3, 8, 3),
    "life-dead": ((48, 48), ["--k", "2"], "B3/S23", "dead", 0.3, 8, 3),
    "moore-r5-dead": ((40, 40), ["--k", "2", "--r", "5"], "B34,35,36,37,38,39,40,41,42,43,44,45/"
                      "S33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57",
                      "dead", 0.4, 6, 3),
    "k3-torus-6^5": ((6,) * 5, ["--k", "3"], "B33,34,35,36,37,38,39,40,41,42,43,44,45/"
                     "S30,31,32,33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60",
                     "torus", 0.2, 3, 1),
    "diamond-r5-torus": ((40, 40), ["--diamond", "--r", "5"], "B17,18,19,20,21,22/"
                         "S16,17,18,19,20,21,22,23,24,25,26,27,28", "torus", 0.3, 6, 2),
    "shell-r2-k2-3d": ((7, 6, 5), k_radius(3, 2, 2, sharp_r=True), "B5,6,7,8,9/S4,5,6,7,8,9,10",
                       "dead", 0.3, 4, 2),
    "sharp-k2-4d": ((5, 4, 4, 3), k_radius(4, 2, 1, sharp_k=True), "B4,5,6/S3,4,5,6,7",
                    "torus", 0.3, 4, 2),
    "narrow-vn-r3": ((24, 20), ["--k", "1", "--r", "3"], "B3,4/S2,3,4,5", "dead", 0.3, 6, 3),
    "diamond-r3-3x5": ((3, 5), ["--diamond", "--r", "3"], "B8,9,10,11/S12,13,14,15,16,17,18", "torus", 0.4, 5, 1),
    "moore-3d": ((8, 7, 6), ["--k", "3"], "B5,6,7/S5,6,7,8", "torus", 0.3, 4, 2),
    "three-d-diamond-r3-dead": ((9, 8, 7), ["--diamond", "--r", "3"], "B8,9,10,11/S7,8,9,10,11,12",
                                "dead", 0.35, 6, 2),
}


def _pinned_simulate_stdout(name: str, tmp_path: Path) -> bytes:
    dims, shape, rule_text, boundary, density, steps, every = PINNED_SIMULATIONS[name]
    rng = np.random.default_rng(sorted(PINNED_SIMULATIONS).index(name))
    cells = np.argwhere(rng.random(dims) < density)
    pattern = tmp_path / f"{name}.txt"
    pattern.write_text("".join(format_offset(cell) + "\n" for cell in cells.tolist()))
    if isinstance(shape, list):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["simulate", "--dims", ",".join(map(str, dims)), *shape, "--rule", rule_text,
                         "--steps", str(steps), "--pattern", str(pattern), "--boundary", boundary,
                         "--snapshot-every", str(every)])
        assert code == 0
        return out.getvalue().encode()
    kind = engine.Boundary.TOROIDAL if boundary == "torus" else engine.Boundary.FIXED_DEAD
    grid = engine.make_grid(dims, kind, engine.load_pattern(pattern))
    rule, offsets = engine.parse_rule(rule_text), enumerate_offsets(shape)
    lines = []
    for i in range(every, steps + 1, every):
        grid = engine.run(grid, rule, offsets, every)
        lines += [f"step {i} population {engine.population(grid)}", engine.render_snapshot(grid), ""]
    grid = engine.run(grid, rule, offsets, steps % every)
    lines.append(f"final population {engine.population(grid)}")
    return ("\n".join(lines) + "\n").encode()


def test_simulate_output_matches_golden_hashes(tmp_path):
    # sha256 of simulate's stdout for each pinned world, recorded before the
    # neighbour counts were summed over the offsets' shared prefix tree
    path = Path(__file__).parent / "fixtures" / "simulate_sha256.json"
    golden = json.loads(path.read_text())
    assert list(golden) == list(PINNED_SIMULATIONS)
    got = {name: hashlib.sha256(_pinned_simulate_stdout(name, tmp_path)).hexdigest() for name in golden}
    assert got == golden


def test_simulate_missing_pattern_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--dims", "8,8",
        "--k", "2",
        "--rule", "B3/S23",
        "--steps", "1",
        "--pattern", str(tmp_path / "absent.txt"),
    )
    assert code == 1
    assert "error" in err


def test_simulate_non_ascii_pattern_is_one_error_line(capsys, tmp_path):
    pattern = tmp_path / "binary.txt"
    pattern.write_bytes(b"1,2\n\xff\xfe\n")
    code, out, err = run_cli(
        capsys,
        "simulate",
        "--dims", "8,8",
        "--k", "2",
        "--rule", "B3/S23",
        "--steps", "1",
        "--pattern", str(pattern),
    )
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(pattern) in err


@pytest.mark.parametrize("text", ["", "# no cells\n\n# here\n"], ids=["empty", "comment-only"])
def test_simulate_pattern_without_cells(capsys, tmp_path, text):
    pattern = tmp_path / "p.txt"
    pattern.write_text(text)
    code, out, err = run_cli(
        capsys,
        "simulate",
        "--dims", "8,8",
        "--k", "2",
        "--rule", "B3/S23",
        "--steps", "1",
        "--pattern", str(pattern),
    )
    assert (code, out, err) == (0, "final population 0\n", "")


# A pattern file as pieces: (cell, line) for a well-formed cell line, (None,
# line) for a comment or blank line, and (False, bytes) for random junk.
_cell_lines = st.tuples(
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    st.sampled_from(["{},{}", " {} , +{} ", "{},{} # cell", "{},{}#"]),
).map(lambda c: (c[0], c[1].format(*c[0]).encode()))
_indents = st.sampled_from([b"", b"  ", b"\t"])
_quiet_lines = st.one_of(
    st.tuples(_indents, st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=10)).map(
        lambda c: (None, c[0] + b"#" + c[1].encode())
    ),
    _indents.map(lambda b: (None, b)),
)
_junk_lines = st.one_of(
    st.binary(max_size=10),
    st.text(st.characters(max_codepoint=127), max_size=10).map(str.encode),
).map(lambda b: (False, b))


@settings(deadline=None, max_examples=200)
@given(
    pieces=st.lists(st.one_of(_cell_lines, _quiet_lines, _junk_lines), max_size=10),
    eol=st.sampled_from([b"\n", b"\r\n", b"\r"]),
)
def test_simulate_survives_any_pattern_bytes(pieces, eol):
    with tempfile.TemporaryDirectory() as tmp:
        pattern = Path(tmp) / "p.txt"
        pattern.write_bytes(eol.join(line for _, line in pieces))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(
                ["simulate", "--dims", "8,8", "--k", "2", "--rule", "B3/S23",
                 "--steps", "1", "--pattern", str(pattern)]
            )
        assert code in (0, 1)
        assert err.getvalue().count("error:") <= 1 and err.getvalue().count("\n") <= 1
        assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
        if all(cell is not False for cell, _ in pieces):
            cells = [list(cell) for cell, _ in pieces if cell is not None]
            assert load_pattern(pattern).tolist() == cells
            assert code == 0


@pytest.mark.parametrize("limit, width", [("default", 4301), ("least", 700)])
def test_simulate_zero_padded_field_then_bad_line_is_one_error_line(capsys, tmp_path, request, limit, width):
    # the good line's field passes int()'s digit limit through its leading zeros alone
    if limit == "least":
        request.getfixturevalue("int_str_limit_640")
    lines = ["1," + "2".zfill(width), "x"]
    pattern = tmp_path / "p.txt"
    pattern.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(
        capsys, "simulate", "--dims", "8,8", "--k", "2", "--rule", "B3/S23", "--steps", "1", "--pattern", str(pattern)
    )
    assert (code, out, err) == (1, "", "error: line 2: 'x' is not an integer\n")
    with pytest.raises(ParseError, match="^line 2: 'x' is not an integer$"):
        load_pattern(lines)
    # past 19 significant digits a field is refused before it is converted
    start = time.perf_counter()
    with pytest.raises(ParseError, match="^line 1: 7+ is outside the 64-bit integer range$"):
        load_pattern(["1," + "7" * 10**6])
    assert time.perf_counter() - start < 5


def test_simulate_checks_the_rule_before_reading_the_pattern(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--dims", "8,8",
        "--k", "1",
        "--rule", "B5/S23",
        "--steps", "1",
        "--pattern", str(tmp_path / "absent.txt"),
    )
    assert code == 1
    assert "rule count 5 exceeds the neighborhood size 4" in err
    assert "absent.txt" not in err


@pytest.mark.parametrize(
    "dims",
    [
        "100000,100000,1000",
        "99999999999999999999,2",
        "1099511627776,1099511627776",
        pytest.param(",".join(["1"] * 65), id="65-axes"),  # past numpy's 64
    ],
)
def test_simulate_oversized_dims_is_one_error_line(capsys, tmp_path, dims):
    pattern = tmp_path / "p.txt"
    pattern.write_text(",".join("0" for _ in dims.split(",")) + "\n")
    code, out, err = run_cli(
        capsys,
        "simulate",
        "--dims", dims,
        "--k", "1",
        "--rule", "B1/S",
        "--steps", "1",
        "--pattern", str(pattern),
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_simulate_padded_grid_past_the_cell_cap_is_one_error_line(capsys, tmp_path, monkeypatch):
    # the 10x10 grid fits the lowered cap; the step's 12x12 padded copy does not
    monkeypatch.setattr("nbhd.engine.DEFAULT_CELL_CAP", 120)
    pattern = tmp_path / "glider.txt"
    pattern.write_text(GLIDER_LINES)
    for boundary in ("torus", "dead"):
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--dims", "10,10",
            "--k", "2",
            "--rule", "B3/S23",
            "--steps", "1",
            "--pattern", str(pattern),
            "--boundary", boundary,
        )
        assert code == 1 and out == ""
        assert err == "error: padded grid of 144 cells would exceed the cap of 120\n"


@pytest.mark.parametrize("boundary", ["torus", "dead"])
def test_simulate_peak_per_offset_component(capsys, tmp_path, boundary):
    # moore(2, 100): 40400 offsets, 80800 components.  simulate steps
    # offset_array's int8 rows, and the plan folds an int64 copy of them and
    # reads its columns once: about 31 bytes per component on the torus and
    # 14 fixed-dead.  A list of offset tuples, and a plan that reads it one
    # component at a time, peaked at 159 and 118; 64 lies between the two.
    pattern = tmp_path / "glider.txt"
    pattern.write_text(GLIDER_LINES)
    engine._count_plan.cache_clear()  # else an earlier test's plan is reused
    tracemalloc.start()
    try:
        code, _, _ = run_cli(capsys, "simulate", "--dims", "16,16", "--k", "2", "--r", "100", "--rule", "B3/S23",
                             "--steps", "2", "--pattern", str(pattern), "--boundary", boundary)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 64 * 2 * (201**2 - 1)


def test_simulate_bad_rule_is_usage_error(tmp_path):
    pattern = tmp_path / "p.txt"
    pattern.write_text("0,0\n")
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "simulate",
                "--dims", "8,8",
                "--k", "1",
                "--rule", "banana",
                "--steps", "1",
                "--pattern", str(pattern),
            ]
        )
    assert exc.value.code == 2


# ---------------------------------------------------------------- one parser


def test_reused_parser_behaves_like_a_fresh_process(capsys, tmp_path):
    pattern = tmp_path / "glider.txt"
    pattern.write_text(GLIDER_LINES)
    count = ["count", "--d", "3", "--k", "2", "--r", "2"]
    calls = [
        ["count", "--d", "3", "--k", "x"],  # usage error, exit 2
        count,
        ["simulate", "--dims", "8,8", "--k", "2", "--rule", "B3/S23", "--steps", "4",
         "--pattern", str(pattern), "--snapshot-every", "2"],
        count,
    ]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nbhd.__file__))}
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "nbhd", *argv], capture_output=True, text=True, env=env
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert cli.build_parser() is cli.build_parser()


# ---------------------------------------------------------------- usage errors


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--d", "2", "--k", "5"],
        ["count", "--d", "2"],
        ["count", "--d", "2", "--k", "1", "--diamond"],
        ["count", "--d", "0", "--k", "1"],
        ["enumerate", "--d", "2", "--k", "1", "--r", "0"],
        ["count", "--d", "two", "--k", "1"],
        ["bogus"],
        ["simulate", "--dims", "8x8", "--k", "1", "--rule", "B3/S23",
         "--steps", "1", "--pattern", "p"],
        ["sequence", "--id", "A005843", "--terms", "0"],
        ["sequence", "--id", "A005843", "--terms", "-3"],
        # integers follow the offset grammar: no non-ASCII digits, no underscores,
        # and past 4300 digits a usage error, whatever the interpreter's digit limit
        ["count", "--d", "\u0663", "--k", "1"],  # ARABIC-INDIC DIGIT THREE
        ["count", "--d", "1_0", "--k", "1"],
        ["count", "--d", "3", "--k", "1", "--r", "-" + "9" * 5000],
        ["sequence", "--id", "A005843", "--terms", "\u0663"],
        ["simulate", "--dims", "1_0,4", "--k", "1", "--rule", "B3/S23",
         "--steps", "1", "--pattern", "p"],
        # a verify range below 1 checks nothing
        *(["verify", flag, value] for flag in ("--max-d", "--max-k", "--max-r") for value in ("0", "-3")),
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "Traceback" not in err and err.count("error:") == 1


def test_integers_may_carry_a_sign_and_whitespace(capsys):
    assert run_cli(capsys, "count", "--d", " +3", "--k", "1") == (0, "6\n", "")


def test_integer_flags_do_not_depend_on_the_digit_limit(capsys, request):
    # int() refuses 700 digits under the least limit; 4300 digits stay the flags' own bound
    argv = ["count", "--d", "1", "--k", "1", "--r", "7" * 700]
    want = run_cli(capsys, *argv)
    assert want == (0, format_term(2 * int("7" * 700)) + "\n", "")
    for limit in ("default", "least"):
        if limit == "least":
            request.getfixturevalue("int_str_limit_640")
        assert run_cli(capsys, *argv) == want
        with pytest.raises(SystemExit) as exc:
            main(["count", "--d", "1", "--k", "1", "--r", "7" * 4301])
        assert exc.value.code == 2
        assert "invalid integer value" in capsys.readouterr().err


# ---------------------------------------------------------------- argv fuzz


def _mostly(usual, rare):
    """``usual`` three times in four, ``rare`` once, so that a fair share of
    argv gets past argparse to the command itself."""
    return st.sampled_from([usual, usual, usual, rare]).flatmap(lambda s: s)


_JUNK = ["", "x", "1.5", "\u0663", "1_0", "99999999999999999999"]
_junk = st.sampled_from(_JUNK)
_non_numbers = st.sampled_from(_JUNK[:-1])
_numbers = st.one_of(st.integers(1, 8), st.integers(-3, 40)).map(str)
_values = _mostly(_numbers, _junk)
# Two options take no huge number: verify's box scans grow as
# (2 max_r + 1)^max_d, so past 3 the fuzz would crawl, and 10**20 simulate
# steps is a valid request for a run that does not end in practice.
_verify_values = _mostly(st.integers(-3, 3).map(str), _non_numbers)
_SPEC_OPTIONS = {
    "--d": _values, "--k": _values, "--r": _values,
    "--diamond": None, "--sharp-k": None, "--sharp-r": None,
}
_OPTIONS = {
    "count": _SPEC_OPTIONS,
    "enumerate": _SPEC_OPTIONS,
    "sequence": {
        "--id": _mostly(st.sampled_from([s.value for s in SequenceId]),
                        st.sampled_from(["A000001", *_JUNK])),
        "--terms": _values,
        "--bfile": None,
    },
    "verify": {"--max-d": _verify_values, "--max-k": _values, "--max-r": _verify_values},
    "simulate": {
        # two axes and k <= 2, like the glider, three times in four; else
        # one to three axes, or up to 70 axes of one or two cells, past
        # numpy's 64
        "--dims": _mostly(
            _mostly(st.lists(_values, min_size=2, max_size=2),
                    st.one_of(st.lists(_values, min_size=1, max_size=3),
                              st.lists(st.sampled_from(["1", "1", "1", "2"]), min_size=60, max_size=70)))
            .map(",".join),
            _junk,
        ),
        "--k": _mostly(st.sampled_from(["1", "2"]), _values),
        "--r": _values, "--diamond": None,
        "--rule": _mostly(st.sampled_from(["B3/S23", "B1/S", "B3,12/S0,15"]),
                          st.sampled_from(["B99999999999999999999/S", "banana", *_JUNK])),
        "--steps": _mostly(_numbers, _non_numbers),
        "--pattern": st.just("GLIDER"),
        "--boundary": _mostly(st.sampled_from(["torus", "dead"]), _junk),
        "--snapshot-every": _values,
    },
}


def _flag(name, values):
    # an option is there three times in four; a switch once in four, since
    # --diamond clashes with --k
    if values is None:
        return _mostly(st.just([]), st.just([name]))
    return _mostly(values.map(lambda v: [name, v]), st.just([]))


_argv = st.sampled_from(sorted(_OPTIONS)).flatmap(
    lambda command: st.tuples(*(_flag(n, v) for n, v in _OPTIONS[command].items()))
    .flatmap(st.permutations)
    .map(lambda flags: [command, *itertools.chain.from_iterable(flags)])
)


@pytest.fixture(scope="module")
def glider_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "glider.txt"
    path.write_text(GLIDER_LINES)
    return str(path)


@settings(deadline=None, max_examples=600)
@given(argv=_argv)
# 65 axes with the one spec whose 130 offsets pass the lowered cap below,
# which a random draw meets too rarely
@example(argv=["simulate", "--dims", ",".join(["1"] * 65), "--k", "1", "--rule", "B3/S23",
               "--steps", "1", "--pattern", "GLIDER"])
def test_any_argv_exits_zero_one_or_two(glider_file, argv):
    argv = [glider_file if a == "GLIDER" else a for a in argv]
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()  # --bfile writes to out.buffer
    # a lower offset cap keeps enumerate and simulate small (verify's default
    # ranges need 2400 offsets of 4 components); past it they take the same
    # CapacityError path as past the real one
    with mock.patch("nbhd.neighborhoods.DEFAULT_OFFSET_CAP", 2**14), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("error:") <= 1
