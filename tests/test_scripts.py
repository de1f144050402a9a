"""Smoke runs of the example scripts (make_fixtures.py writes into
tests/fixtures, so it is left out)."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_life_demo_runs(capsys):
    # the script asserts the glider's translation on a torus through run
    runpy.run_path(str(SCRIPTS / "life_demo.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "glider translated by (1,1) after 4 steps" in out
    headers = [line for line in out.splitlines() if line.startswith("step ")]
    assert headers == [f"step {n} population 5" for n in (0, 4, 8, 12, 16)]


def test_neighborhood_gallery_runs(capsys):
    runpy.run_path(str(SCRIPTS / "neighborhood_gallery.py"), run_name="__main__")
    assert "diamond, radius 3  (24 cells)" in capsys.readouterr().out


BOUND = {"t": 0.25}  # as BENCHMARK.json bounds its end-to-end metrics


def test_bench_pairs_summary():
    # four good pairs and one whose change run failed, which is left out
    summarise = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["summarise"]
    pairs = [
        {"parent": {"ok": True, "metrics": {"t": p}}, "change": {"ok": True, "metrics": {"t": c}}}
        for p, c in [(10.0, 8.0), (11.0, 8.5), (12.0, 9.0), (10.5, 11.0)]
    ]
    pairs.append({"parent": {"ok": True, "metrics": {"t": 1.0}}, "change": {"ok": False}})
    lower = summarise(pairs, {"t": "lower"}, BOUND)["t"]
    assert lower["pairs"] == 4
    assert lower["parent"] == {"q1": 10.375, "median": 10.75, "q3": 11.25}
    assert lower["change"] == {"q1": 8.375, "median": 8.75, "q3": 9.5}
    assert (lower["change_won"], lower["change_lost"]) == (3, 1)
    assert (lower["median_gain"], lower["parent_iqr"]) == (2.0, 0.875)
    assert lower["gain_shown"] is False  # 3 of 5 pairs won, under nine tenths
    # no regression: the change's median is 2 / 10.75 better, and the
    # parent's spread, 0.875 / 10.75, is within the bound
    assert (lower["worse_by"], lower["bound"]) == (-2.0 / 10.75, 0.25)
    assert (lower["within_bound"], lower["unresolved"]) == (True, False)
    higher = summarise(pairs[:3], {"t": "higher"}, BOUND)["t"]
    assert (higher["change_won"], higher["change_lost"], higher["gain_shown"]) == (0, 3, False)
    assert summarise(pairs[:3], {"t": "lower"}, BOUND)["t"]["gain_shown"] is True
    # eight pairs won of ten run, two with a failed change run: under nine tenths
    won = [{"parent": {"ok": True, "metrics": {"t": 10.0 + i}}, "change": {"ok": True, "metrics": {"t": 5.0}}}
           for i in range(8)]
    failed = {"parent": {"ok": True, "metrics": {"t": 10.0}}, "change": {"ok": False}}
    eight = summarise(won + [failed, failed], {"t": "lower"}, BOUND)["t"]
    assert (eight["pairs"], eight["change_won"], eight["gain_shown"]) == (8, 8, False)
    assert summarise(won + [won[0], failed], {"t": "lower"}, BOUND)["t"]["gain_shown"] is True

    def side(values):
        return [{"parent": {"ok": True, "metrics": {"t": p}}, "change": {"ok": True, "metrics": {"t": c}}}
                for p, c in values]

    # a change 30% worse against a tight parent is out of the bound
    worse = summarise(side([(10.0, 13.0), (10.1, 13.2), (9.9, 12.8), (10.0, 13.0)]), {"t": "lower"}, BOUND)["t"]
    assert worse["worse_by"] == pytest.approx(0.3)
    assert (worse["within_bound"], worse["unresolved"]) == (False, False)
    # a parent whose IQR is 5 / 8 of its median cannot tell a change of 9%
    # from noise; a higher-is-better metric is worse when it falls
    spread = summarise(side([(4.0, 7.5), (6.0, 7.0), (10.0, 7.2), (12.0, 7.4)]), {"t": "higher"}, BOUND)["t"]
    assert spread["worse_by"] == pytest.approx((8.0 - 7.3) / 8.0)
    assert (spread["within_bound"], spread["unresolved"]) == (True, True)
    # unless every change run beats every parent run, where a failed change
    # run beats none
    beaten = side([(4.0, 13.0), (6.0, 14.0), (10.0, 12.5), (12.0, 13.5)])
    assert summarise(beaten, {"t": "higher"}, BOUND)["t"]["unresolved"] is False
    assert summarise(beaten + [failed], {"t": "higher"}, BOUND)["t"]["unresolved"] is True
