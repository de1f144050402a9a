"""The three workloads: their cases, seeded inputs and op lists.

The seed draws the soup patterns and the order of the catalog ops; it never
changes the amount of work.  README.md records why each workload exists.
"""

from __future__ import annotations

import importlib
import math
import random
import sys
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .measure import Op, run_cli

WORKLOADS = ("life", "wide", "catalog")
MODULES = ("cli", "engine", "neighborhoods", "counting", "sequences", "verification")


@dataclass(frozen=True)
class Shape:
    """A neighbourhood by its family's parameters, free of nbhd types."""

    family: str  # "k-radius" or "diamond"
    d: int
    k: int | None
    r: int
    sharp_k: bool = False
    sharp_r: bool = False

    def flags(self) -> list[str]:
        argv = ["--d", str(self.d)]
        argv += ["--diamond"] if self.family == "diamond" else ["--k", str(self.k)]
        argv += ["--r", str(self.r)]
        argv += ["--sharp-k"] * self.sharp_k + ["--sharp-r"] * self.sharp_r
        return argv

    def label(self) -> str:
        return " ".join(self.flags()).replace("--", "")


@dataclass(frozen=True)
class Case:
    """One automaton: grid, neighbourhood, rule, boundary, soup density, steps."""

    name: str
    dims: tuple[int, ...]
    shape: Shape
    birth: tuple[int, ...]
    survival: tuple[int, ...]
    torus: bool
    density: float
    steps: int

    @property
    def cells(self) -> int:
        return math.prod(self.dims)

    def rule_text(self) -> str:
        def part(counts: tuple[int, ...]) -> str:
            if all(c <= 9 for c in counts):
                return "".join(map(str, counts))
            return ",".join(map(str, counts))

        return f"B{part(self.birth)}/S{part(self.survival)}"


def _span(lo: int, hi: int) -> tuple[int, ...]:
    return tuple(range(lo, hi + 1))


LIFE = (
    Case("life-torus", (1024, 1024), Shape("k-radius", 2, 2, 1), (3,), (2, 3), True, 0.3, 24),
    Case("life-dead", (1024, 1024), Shape("k-radius", 2, 2, 1), (3,), (2, 3), False, 0.3, 24),
)
# Rules keep the population between about 5% and 30% over the run, so the
# output check compares live structure rather than an empty grid.
WIDE = (
    # Larger-than-Life "Bosco" (Evans 2001) on the radius-5 Moore box
    Case("wide-moore5", (256, 256), Shape("k-radius", 2, 2, 5), _span(34, 45), _span(33, 57), False, 0.25, 60),
    Case("wide-k3", (16,) * 5, Shape("k-radius", 5, 3, 1), _span(33, 45), _span(30, 60), True, 0.2, 4),
    Case("wide-diamond5", (512, 512), Shape("diamond", 2, None, 5), _span(17, 22), _span(16, 28), True, 0.3, 50),
)


def count_shapes() -> list[Shape]:
    """Every spec with d <= 5, k <= d, r <= 4, both families, every sharpness."""
    shapes = []
    for d in range(1, 6):
        for r in range(1, 5):
            for k in range(1, d + 1):
                for sharp_k in (False, True):
                    for sharp_r in (False, True):
                        shapes.append(Shape("k-radius", d, k, r, sharp_k, sharp_r))
            for sharp_r in (False, True):
                shapes.append(Shape("diamond", d, None, r, sharp_r=sharp_r))
    return shapes


ENUMERATE_SHAPES = (
    Shape("k-radius", 8, 4, 2),
    Shape("diamond", 8, None, 6),
    Shape("k-radius", 6, 6, 3),
    Shape("k-radius", 12, 3, 2, sharp_r=True),
)
SEQUENCE_IDS = ("A005843", "A013609", "A265014", "A266213", "A008288")
SEQUENCE_TERMS = 10000
VERIFY_ARGV = ["verify", "--max-d", "5", "--max-r", "3"]
# Known defects at the baseline: Python's 4300-digit int-to-str limit near
# term 9015, and the box-scan fallback's CapacityError for a 5^30 box.
PROBES = (
    ("sequence", "A024023", ["sequence", "--id", "A024023", "--terms", str(SEQUENCE_TERMS), "--bfile"]),
    ("count", Shape("k-radius", 30, 1, 2, sharp_k=True), ["count", *Shape("k-radius", 30, 1, 2, sharp_k=True).flags()]),
)


# --------------------------------------------------------------------------
# Set-up


def import_nbhd(src: Path) -> types.SimpleNamespace:
    """Import the package fresh from ``src``, so each set-up pays the import."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "nbhd" or m.startswith("nbhd.")]:
        del sys.modules[name]
    pkg = importlib.import_module("nbhd")
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"nbhd was imported from {pkg.__file__}, not from {src}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"nbhd.{m}") for m in MODULES})


def soup(case: Case, seed: int, index: int) -> np.ndarray:
    rng = np.random.default_rng([seed, index])
    return (rng.random(case.dims) < case.density).astype(np.uint8)


def write_pattern(path: Path, states: np.ndarray) -> None:
    cells = np.argwhere(states).tolist()
    path.write_text("".join(",".join(map(str, c)) + "\n" for c in cells), encoding="ascii")


def spec_of(nbhd: types.SimpleNamespace, shape: Shape):
    hood = nbhd.neighborhoods
    if shape.family == "diamond":
        return hood.diamond(shape.d, shape.r, sharp_r=shape.sharp_r)
    return hood.k_radius(shape.d, shape.k, shape.r, sharp_k=shape.sharp_k, sharp_r=shape.sharp_r)


@dataclass
class Prepared:
    nbhd: types.SimpleNamespace
    ops: list[Op]  # one pass, in a fixed order
    probes: list[Op]
    initial: dict[str, np.ndarray]  # case name -> starting grid, for the oracle
    rng: random.Random | None  # draws the catalog op order of each pass

    def pass_ops(self, index: int) -> list[Op]:
        """The ops of pass ``index``.  The first pass runs them in a fixed
        order and later catalog passes shuffle the ops within each group,
        keeping the groups in order: the heap's first growth, and so the
        peak memory, does not depend on the seed."""
        if self.rng is None or index == 0:
            return self.ops
        return _shuffled_by_group(self.ops, self.rng)


def _shuffled_by_group(ops: list[Op], rng: random.Random) -> list[Op]:
    order = []
    for group in dict.fromkeys(op.group for op in ops):
        members = [op for op in ops if op.group == group]
        rng.shuffle(members)
        order += members
    return order


def prepare(workload: str, seed: int, src: Path, workdir: Path) -> Prepared:
    """Import nbhd, generate the seeded inputs and warm up."""
    nbhd = import_nbhd(src)
    if workload == "catalog":
        prepared = _prepare_catalog(nbhd, seed)
    else:
        prepared = _prepare_engine(nbhd, LIFE if workload == "life" else WIDE, seed, workdir)
    run_cli(nbhd.cli, ["count", "--d", "1", "--k", "1"])  # warm-up: argparse and printing
    return prepared


def _prepare_engine(nbhd, cases, seed: int, workdir: Path) -> Prepared:
    engine = nbhd.engine
    workdir.mkdir(parents=True, exist_ok=True)
    ops, initial = [], {}
    for index, case in enumerate(cases):
        states = soup(case, seed, index)
        initial[case.name] = states
        pattern = workdir / f"{case.name}.txt"
        write_pattern(pattern, states)
        argv = [
            "simulate", "--dims", ",".join(map(str, case.dims)),
            *case.shape.flags()[2:],
            "--rule", case.rule_text(), "--steps", str(case.steps),
            "--pattern", str(pattern), "--boundary", "torus" if case.torus else "dead",
        ]
        ops.append(Op(f"simulate {case.name}", "simulate", case, argv=argv))

        boundary = engine.Boundary.TOROIDAL if case.torus else engine.Boundary.FIXED_DEAD
        grid = engine.Grid(case.dims, states.copy(), boundary)
        rule = engine.parse_rule(case.rule_text())
        offsets = nbhd.neighborhoods.enumerate_offsets(spec_of(nbhd, case.shape))
        engine.step(grid, rule, offsets)  # warm-up

        def call(grid=grid, rule=rule, offsets=offsets, steps=case.steps):
            return nbhd.engine.run(grid, rule, offsets, steps)

        ops.append(Op(f"run {case.name}", "run", case, call=call))
    return Prepared(nbhd, ops, [], initial, None)


def _prepare_catalog(nbhd, seed: int) -> Prepared:
    ops = [Op(f"count {s.label()}", "count", s, argv=["count", *s.flags()]) for s in count_shapes()]
    ops += [Op(f"enumerate {s.label()}", "enumerate", s, argv=["enumerate", *s.flags()]) for s in ENUMERATE_SHAPES]
    ops += [
        Op(f"sequence {i}", "sequence", i, argv=["sequence", "--id", i, "--terms", str(SEQUENCE_TERMS), "--bfile"])
        for i in SEQUENCE_IDS
    ]
    ops.append(Op("verify", "verify", None, argv=list(VERIFY_ARGV)))
    probes = [Op(f"probe {g} {' '.join(a[1:])}", g, p, argv=a, probe=True) for g, p, a in PROBES]
    return Prepared(nbhd, ops, probes, {}, random.Random(seed))
