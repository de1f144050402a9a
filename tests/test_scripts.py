"""Smoke runs of the example scripts (make_fixtures.py writes into
tests/fixtures, so it is left out)."""

import runpy
from pathlib import Path

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
