"""Exhaustive scan of coin patterns for two structural waiting-time properties.

Property 1 (power form): for a non-constant pattern of length s, the excess
E(S) - 2**s is a sum of distinct powers 2**e with 1 <= e <= s-1.  "Distinct
powers in [1, s-1]" is one reading of "lower positive powers"; the report
header records the interpretation so downstream consumers see it.

Property 2 (reversal): E(S) equals E of the reversed pattern.

The scan computes E with the integer autocorrelation formula and
cross-checks a deterministic 1 percent sample (always including the first
pattern of each length) against the exact chain solve.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

from flipwait.exact import expected_wait_conway, expected_wait_markov
from flipwait.pattern import Pattern, enumerate_patterns, reverse, runs

INTERPRETATION = (
    "power form holds iff E - 2**len is a sum of distinct powers 2**e with 1 <= e <= len-1; "
    "constant patterns are excluded"
)

SPOT_CHECK_STRIDE = 100


def _is_constant(p: Pattern) -> bool:
    return len(runs(p)) == 1


def _power_form(expected: int, s: int) -> tuple[bool, tuple[int, ...]]:
    excess = expected - 2**s
    exponents = tuple(i for i in range(max(excess.bit_length(), 1)) if excess >> i & 1)
    ok = 0 <= excess < 2**s and excess % 2 == 0
    return ok, exponents


def power_form_check(p: Pattern) -> tuple[bool, tuple[int, ...]]:
    """Verdict and the excess exponent set for a non-constant coin pattern."""
    if p.alphabet_size != 2:
        raise ValueError("power form check is defined for coin patterns only")
    if _is_constant(p):
        raise ValueError("constant patterns are excluded from the power form property")
    return _power_form(expected_wait_conway(p), len(p))


def reversal_check(p: Pattern) -> bool:
    """Exact equality of the chain-solved waiting times of p and its reversal."""
    return expected_wait_markov(p) == expected_wait_markov(reverse(p))


@dataclass(frozen=True)
class PatternRecord:
    pattern: str
    length: int
    expected: int
    reversal: str
    reversal_expected: int
    reversal_ok: bool
    power_form_ok: bool | None
    excess_exponents: tuple[int, ...] | None


@dataclass
class ScanReport:
    max_len: int
    interpretation: str = INTERPRETATION
    records: list[PatternRecord] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    spot_checks: int = 0

    @property
    def scanned(self) -> int:
        return len(self.records)

    def exponent_histogram(self) -> dict[int, int]:
        """Distribution of excess exponent-set sizes over checked patterns."""
        hist: dict[int, int] = {}
        for rec in self.records:
            if rec.excess_exponents is None:
                continue
            k = len(rec.excess_exponents)
            hist[k] = hist.get(k, 0) + 1
        return dict(sorted(hist.items()))


def _scan_one(p: Pattern, expectations: dict[tuple[int, ...], int]) -> PatternRecord:
    s = len(p)
    e = expectations[p.symbols]
    rev = reverse(p)
    e_rev = expectations[rev.symbols]
    if _is_constant(p):
        power_ok, exponents = None, None
    else:
        power_ok, exponents = _power_form(e, s)
    return PatternRecord(
        pattern=p.text(),
        length=s,
        expected=e,
        reversal=rev.text(),
        reversal_expected=e_rev,
        reversal_ok=e == e_rev,
        power_form_ok=power_ok,
        excess_exponents=exponents,
    )


def scan(max_len: int, threads: int = 1) -> ScanReport:
    """Run both checks on every coin pattern of length 1..max_len.

    Records come out in (length, lexicographic) order.  Violations are
    collected, not raised; the scan is a measurement, and a counterexample
    would be a discovery.  `threads` is accepted for compatibility and must
    be at least 1, but the scan runs in the calling thread whatever its
    value: the work is pure-Python arithmetic under the interpreter lock,
    so worker threads would only add switching cost.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    report = ScanReport(max_len=max_len)
    for s in range(1, max_len + 1):
        patterns = list(enumerate_patterns(s, 2))
        expected = [expected_wait_conway(p) for p in patterns]
        expectations = {p.symbols: e for p, e in zip(patterns, expected)}
        for idx, p in enumerate(patterns):
            rec = _scan_one(p, expectations)
            report.records.append(rec)
            if not rec.reversal_ok:
                report.violations.append(f"reversal mismatch for {rec.pattern}")
            if rec.power_form_ok is False:
                report.violations.append(f"power form fails for {rec.pattern}")
            if idx % SPOT_CHECK_STRIDE == 0:
                report.spot_checks += 1
                exact = expected_wait_markov(p)
                if exact.denominator != 1 or exact != rec.expected:
                    report.violations.append(
                        f"spot check mismatch for {rec.pattern}: chain solve {exact}, "
                        f"autocorrelation {rec.expected}"
                    )
    return report


def report_as_dict(report: ScanReport) -> dict:
    """JSON-ready form; exact integers are serialized as decimal strings."""
    return {
        "schema": 1,
        "max_len": report.max_len,
        "interpretation": report.interpretation,
        "scanned": report.scanned,
        "spot_checks": report.spot_checks,
        "violations": list(report.violations),
        "exponent_set_sizes": {str(k): v for k, v in report.exponent_histogram().items()},
        "records": [
            {
                "pattern": r.pattern,
                "length": r.length,
                "expected": str(r.expected),
                "reversal": r.reversal,
                "reversal_expected": str(r.reversal_expected),
                "reversal_ok": r.reversal_ok,
                "power_form_ok": r.power_form_ok,
                "excess_exponents": list(r.excess_exponents) if r.excess_exponents is not None else None,
            }
            for r in report.records
        ],
    }


def write_json(report: ScanReport, path: str):
    with open(path, "w") as fh:
        json.dump(report_as_dict(report), fh, indent=2)
        fh.write("\n")


def write_csv(report: ScanReport, path: str):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["pattern", "length", "expected", "reversal", "reversal_expected",
             "reversal_ok", "power_form_ok", "excess_exponents"]
        )
        for r in report.records:
            writer.writerow(
                [r.pattern, r.length, r.expected, r.reversal, r.reversal_expected,
                 r.reversal_ok,
                 "" if r.power_form_ok is None else r.power_form_ok,
                 "" if r.excess_exponents is None else " ".join(map(str, r.excess_exponents))]
            )
