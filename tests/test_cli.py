import sys

import pytest

from nbhd.cli import main

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


def test_count_without_closed_form_warns_on_stderr(capsys):
    code, out, err = run_cli(
        capsys, "count", "--d", "2", "--k", "1", "--r", "2", "--sharp-k"
    )
    assert (code, out) == (0, "8\n")
    assert "brute-force" in err


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
    ],
)
def test_count_equals_enumerate_length(capsys, flags):
    _, count_out, _ = run_cli(capsys, "count", *flags)
    _, enum_out, _ = run_cli(capsys, "enumerate", *flags)
    assert int(count_out) == len(enum_out.splitlines())


def test_enumerate_over_cap_is_runtime_failure(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--d", "24", "--k", "24")
    assert code == 1
    assert out == ""
    assert "error" in err


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


# ---------------------------------------------------------------- verify


def test_verify_small_ranges(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-d", "3", "--max-r", "2")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out
    assert err == ""


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
    ],
)
def test_usage_errors_exit_two(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
