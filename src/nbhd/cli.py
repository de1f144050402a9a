"""Command-line surface: count, enumerate, sequence, verify, simulate.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success, 1
verification mismatch or runtime failure, 2 usage error.  A stdout closed by
its reader ends the command quietly, with 0.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import counting, engine, sequences
from .errors import BoundsError, CapacityError, DimensionError, DomainError, ParseError
from .neighborhoods import Family, NeighborhoodSpec, _offset_lines, _read_int, _shown, offset_array
from .neighborhoods import enumerate_offsets  # noqa: F401 -- perfbench/tracing.py wraps the name at this site
from .verification import run_verification

_ROWS_PER_WRITE = 16384  # enumerate's offsets formatted and written at once


def _integer(text: str) -> int:
    """``[+-]?[0-9]+`` after stripping whitespace, as all integer text is read;
    past 4300 digits a usage error, whatever PYTHONINTMAXSTRDIGITS is."""
    if len(text.strip().lstrip("+-")) <= 4300 and (value := _read_int(text)) is not None:
        return value
    raise argparse.ArgumentTypeError(f"invalid integer value: {_shown(text)}")


@functools.cache  # parse_args keeps no state in the parser, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbhd",
        description="Cellular-automata neighborhoods: count, enumerate, verify, "
        "emit OEIS sequences, and simulate totalistic automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--d", type=_integer, required=True, help="lattice dimension")
        p.add_argument("--k", type=_integer, help="max nonzero coordinates (k-radius family)")
        p.add_argument("--r", type=_integer, default=1, help="radius (default 1)")
        p.add_argument("--diamond", action="store_true", help="diamond family instead of k-radius")
        p.add_argument("--sharp-k", action="store_true", help="exactly k nonzero coordinates")
        p.add_argument("--sharp-r", action="store_true", help="shell at distance exactly r")

    p_count = sub.add_parser("count", help="print the neighborhood size")
    add_spec_flags(p_count)

    p_enum = sub.add_parser("enumerate", help="print member offsets, one per line")
    add_spec_flags(p_enum)

    p_seq = sub.add_parser("sequence", help="emit one of the cited OEIS sequences")
    p_seq.add_argument(
        "--id", required=True, choices=[s.value for s in sequences.SequenceId]
    )
    p_seq.add_argument("--terms", type=_integer, required=True)
    p_seq.add_argument("--bfile", action="store_true", help="b-file format ('n a(n)' lines)")

    p_verify = sub.add_parser("verify", help="run formula/recurrence/oracle cross-checks")
    p_verify.add_argument("--max-d", type=_integer, default=4)
    p_verify.add_argument("--max-k", type=_integer, default=None)
    p_verify.add_argument("--max-r", type=_integer, default=3)

    p_sim = sub.add_parser("simulate", help="run a totalistic automaton")
    p_sim.add_argument("--dims", type=lambda text: tuple(map(_integer, text.split(","))),
                       required=True, help="grid size per axis, e.g. 16,16")
    p_sim.add_argument("--k", type=_integer)
    p_sim.add_argument("--r", type=_integer, default=1)
    p_sim.add_argument("--diamond", action="store_true")
    p_sim.add_argument("--rule", required=True, help="birth/survival rule, e.g. B3/S23")
    p_sim.add_argument("--steps", type=_integer, required=True)
    p_sim.add_argument("--pattern", required=True, help="live-cell coordinate file")
    p_sim.add_argument("--boundary", choices=["torus", "dead"], default="torus")
    p_sim.add_argument("--snapshot-every", type=_integer, default=None)
    p_sim.set_defaults(sharp_k=False, sharp_r=False)
    return parser


def _spec_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> NeighborhoodSpec:
    family = Family.DIAMOND if args.diamond else Family.K_RADIUS
    try:
        return NeighborhoodSpec(args.d, family, args.k, args.r, args.sharp_k, args.sharp_r)
    except DomainError as exc:
        parser.error(str(exc))


def _cmd_sequence(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.terms < 1:
        parser.error("--terms must be >= 1")
    seq_id = sequences.SequenceId(args.id)
    sys.stdout.flush()
    if args.bfile:  # through emit_bfile: perfbench/tracing.py wraps it as (seq_id, terms, sink)
        sequences.emit_bfile(seq_id, args.terms, sys.stdout.buffer)
    else:
        sequences._write_terms(seq_id, args.terms, sys.stdout.buffer, bfile=False)
    return 0


def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    try:
        results = run_verification(args.max_d, args.max_k, args.max_r)
    except DomainError as exc:  # a range below 1, which would check nothing
        parser.error(str(exc))
    width = max(len(r.name) for r in results)
    failed = False
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{r.name:<{width}}  {r.cases:>6} cases  {status}")
        if not r.ok:
            failed = True
            for detail in r.failures[:10]:
                print(f"  {detail}", file=sys.stderr)
    print("all checks passed" if not failed else "verification FAILED")
    return 1 if failed else 0


def _cmd_simulate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.steps < 0:
        parser.error("--steps must be >= 0")
    if args.snapshot_every is not None and args.snapshot_every < 1:
        parser.error("--snapshot-every must be >= 1")
    args.d = len(args.dims)
    spec = _spec_from_args(parser, args)
    try:
        rule = engine.parse_rule(args.rule)
    except ParseError as exc:
        parser.error(str(exc))
    offsets = offset_array(spec)
    rule.check_fits(len(offsets))

    cells = engine.load_pattern(args.pattern)
    boundary = engine.Boundary.TOROIDAL if args.boundary == "torus" else engine.Boundary.FIXED_DEAD
    grid = engine.make_grid(args.dims, boundary, cells)

    # run is called positionally: perfbench/tracing.py wraps it as (g, rule, offs, steps, *a)
    every = args.snapshot_every or args.steps + 1
    for i in range(every, args.steps + 1, every):
        grid = engine.run(grid, rule, offsets, every)
        print(f"step {i} population {engine.population(grid)}\n{engine.render_snapshot(grid)}\n")
    grid = engine.run(grid, rule, offsets, args.steps % every)
    print(f"final population {engine.population(grid)}")
    return 0


def _cmd_enumerate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    rows = offset_array(_spec_from_args(parser, args))
    sys.stdout.flush()
    for start in range(0, len(rows), _ROWS_PER_WRITE):
        sys.stdout.buffer.write(_offset_lines(rows[start : start + _ROWS_PER_WRITE]))
    return 0


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "count":
        print(sequences.format_term(counting.count(_spec_from_args(parser, args))))
        return 0
    if args.command == "enumerate":
        return _cmd_enumerate(parser, args)
    if args.command == "sequence":
        return _cmd_sequence(parser, args)
    if args.command == "verify":
        return _cmd_verify(parser, args)
    return _cmd_simulate(parser, args)


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(parser, args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped reading, as `| head` does: stop quietly, and let
        # the flush at exit write what is left to os.devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (CapacityError, DomainError, DimensionError, BoundsError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
