"""Cross-checks between formulas, recurrences, enumeration, and the box-scan
oracle.  Each check sweeps a parameter range and collects human-readable
failure descriptions; all checks passing over the default desk-scale ranges
is the package's self-test."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterator

from . import counting
from .errors import DomainError
from .neighborhoods import (
    NeighborhoodSpec,
    _as_int,
    _box_points,
    _exact,
    brute_force_count,
    diamond,
    enumerate_offsets,  # noqa: F401 -- perfbench/tracing.py wraps the name at this site
    k_radius,
    offset_array,
)


@dataclass
class CheckResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0  # wall time of the check, set by run_verification

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, condition: bool, detail: str) -> None:
        self.cases += 1
        if not condition:
            self.failures.append(detail)


def iter_specs(max_d: int, max_k: int, max_r: int) -> Iterator[NeighborhoodSpec]:
    """Every spec with d <= max_d, k <= min(d, max_k), r <= max_r, in both
    families and all sharpness combinations."""
    for d in range(1, max_d + 1):
        for r in range(1, max_r + 1):
            for k in range(1, min(d, max_k) + 1):
                for sharp_k, sharp_r in itertools.product((False, True), repeat=2):
                    yield k_radius(d, k, r, sharp_k=sharp_k, sharp_r=sharp_r)
            for sharp_r in (False, True):
                yield diamond(d, r, sharp_r=sharp_r)


def check_sharp_k_formula_vs_recurrence(max_d: int) -> CheckResult:
    result = CheckResult("sharp k-count formula vs recurrence")
    for d in range(1, max_d + 1):
        for k in range(1, d + 1):
            a, b = counting.sharp_k_count(d, k), counting.sharp_k_count_rec(d, k)
            result.record(a == b, f"sharp_k_count({d},{k})={a} but recurrence gives {b}")
    return result


def check_k_formula_vs_recurrence(max_d: int) -> CheckResult:
    result = CheckResult("k-count formula vs recurrence")
    for d in range(1, max_d + 1):
        for k in range(1, d + 1):
            a, b = counting.k_count(d, k), counting.k_count_rec(d, k)
            result.record(a == b, f"k_count({d},{k})={a} but recurrence gives {b}")
    return result


def check_partial_sum_identity(max_d: int) -> CheckResult:
    result = CheckResult("k-count partial sums of sharp k-counts")
    for d in range(1, max_d + 1):
        for k in range(2, d + 1):
            lhs = counting.k_count(d, k)
            rhs = counting.k_count(d, k - 1) + counting.sharp_k_count(d, k)
            result.record(lhs == rhs, f"d={d}, k={k}: {lhs} != {rhs}")
    return result


def check_moore_shell_identity(max_d: int, max_r: int) -> CheckResult:
    result = CheckResult("moore shell sums equal the filled count")
    for d in range(1, max_d + 1):
        shells = 0  # the shells 1..r, summed as r grows
        for r in range(1, max_r + 1):
            shells += counting.moore_radius_sharp_count(d, r)
            filled = counting.moore_radius_count(d, r)
            result.record(shells == filled, f"d={d}, r={r}: {shells} != {filled}")
    return result


def check_diamond_formula_vs_recurrence(max_d: int, max_r: int) -> CheckResult:
    result = CheckResult("diamond sharp formula vs recurrence")
    for d in range(1, max_d + 1):
        for r in range(1, max_r + 1):
            a = counting.diamond_sharp_count(d, r)
            b = counting.diamond_sharp_count_rec(d, r)
            result.record(a == b, f"diamond_sharp({d},{r})={a} but recurrence gives {b}")
    return result


def check_delannoy_identities(max_d: int, max_r: int) -> CheckResult:
    result = CheckResult("delannoy symmetry and center-cell identities")
    for d in range(1, max_d + 1):
        shells = 0  # the shells 1..r, summed as r grows
        for r in range(1, max_r + 1):
            shells += counting.diamond_sharp_count(d, r)
            dl = counting.delannoy(d, r)
            result.record(
                dl == counting.delannoy(r, d), f"delannoy({d},{r}) not symmetric"
            )
            filled = counting.diamond_count(d, r)
            result.record(
                dl == filled + 1, f"delannoy({d},{r})={dl} != diamond_count+1={filled + 1}"
            )
            result.record(
                dl == 1 + shells, f"delannoy({d},{r})={dl} != 1+shell sum={1 + shells}"
            )
    return result


def check_specializations(max_d: int, max_r: int) -> CheckResult:
    result = CheckResult("k-radius specializations")
    for d in range(1, max_d + 1):
        for r in range(1, max_r + 1):
            result.record(
                counting.k_radius_count(d, d, r) == counting.moore_radius_count(d, r),
                f"k_radius_count({d},{d},{r}) != moore_radius_count",
            )
            result.record(
                counting.k_radius_count(d, 1, r) == 2 * d * r,
                f"k_radius_count({d},1,{r}) != 2dr",
            )
        for k in range(1, d + 1):
            result.record(
                counting.k_radius_count(d, k, 1) == counting.k_count_rec(d, k),
                f"k_radius_count({d},{k},1) != k_count_rec",
            )
        result.record(
            counting.diamond_sharp_count(d, 1) == 2 * d,
            f"diamond_sharp_count({d},1) != 2d",
        )
    return result


def check_oracle_agreement(max_d: int, max_k: int, max_r: int) -> CheckResult:
    result = CheckResult("closed form vs box scan vs enumeration")
    for spec in iter_specs(max_d, max_k, max_r):
        formula = counting.count(spec)
        scanned = brute_force_count(spec)
        enumerated = len(offset_array(spec))  # rows as built, not taken from count
        result.record(
            formula == scanned == enumerated,
            f"{spec}: count={formula}, box scan={scanned}, enumeration={enumerated}",
        )
    return result


def run_verification(max_d: int = 4, max_k: int | None = None, max_r: int = 3) -> list[CheckResult]:
    """All cross-checks over the given ranges, max_k defaulting to max_d,
    each result holding the seconds its check took.

    A range below 1 would check nothing, and nothing checked is no pass, so
    it raises DomainError.  A range whose largest box, (2 max_r + 1)^max_d,
    the oracle check could not scan raises CapacityError before any check.
    """
    max_d, max_r = _as_int(max_d, "max_d"), _as_int(max_r, "max_r")
    max_k = max_d if max_k is None else _as_int(max_k, "max_k")
    for name, value in ("max_d", max_d), ("max_k", max_k), ("max_r", max_r):
        if value < 1:
            raise DomainError(f"{name} must be >= 1, got {_exact(value)}")
    _box_points(max_d, max_r)  # the oracle check's last box scan would refuse it: refuse it first
    # each check is read by its module name at each call, where perfbench/tracing.py wraps it
    return [
        _timed(check_sharp_k_formula_vs_recurrence, max_d),
        _timed(check_k_formula_vs_recurrence, max_d),
        _timed(check_partial_sum_identity, max_d),
        _timed(check_moore_shell_identity, max_d, max_r),
        _timed(check_diamond_formula_vs_recurrence, max_d, max_r),
        _timed(check_delannoy_identities, max_d, max_r),
        _timed(check_specializations, max_d, max_r),
        _timed(check_oracle_agreement, max_d, max_k, max_r),
    ]


def _timed(check, *ranges) -> CheckResult:
    """``check(*ranges)``, its result holding the seconds it took."""
    start = time.perf_counter()
    result = check(*ranges)
    result.seconds = time.perf_counter() - start
    return result
