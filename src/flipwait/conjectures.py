"""Exhaustive scan of coin patterns for two structural waiting-time properties.

Property 1 (power form): for a non-constant pattern of length s, the excess
E(S) - 2**s is a sum of distinct powers 2**e with 1 <= e <= s-1.  "Distinct
powers in [1, s-1]" is one reading of "lower positive powers"; the report
header records the interpretation so downstream consumers see it.

Property 2 (reversal): E(S) equals E of the reversed pattern.

The scan computes E with the integer autocorrelation formula from a bit
mask of each word's borders, grown from its parent's mask (Guibas &
Odlyzko, "Periods in strings", JCTA 30, 1981; see `scan`), and
cross-checks a deterministic 1 percent sample (always including the first
pattern of each length) against the exact chain solve.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from operator import is_, not_
from typing import NamedTuple

from flipwait.exact import expected_wait_conway, expected_wait_markov
from flipwait.pattern import Pattern, parse, reverse, runs

INTERPRETATION = (
    "power form holds iff E - 2**len is a sum of distinct powers 2**e with 1 <= e <= len-1; "
    "constant patterns are excluded"
)

SPOT_CHECK_STRIDE = 100


def _power_form(expected: int, s: int) -> tuple[bool, tuple[int, ...]]:
    excess = expected - 2**s
    exponents = tuple(i for i in range(max(excess.bit_length(), 1)) if excess >> i & 1)
    ok = 0 <= excess < 2**s and excess % 2 == 0
    return ok, exponents


def power_form_check(p: Pattern) -> tuple[bool, tuple[int, ...]]:
    """Verdict and the excess exponent set for a non-constant coin pattern."""
    if p.alphabet_size != 2:
        raise ValueError("power form check is defined for coin patterns only")
    if len(runs(p)) == 1:
        raise ValueError("constant patterns are excluded from the power form property")
    return _power_form(expected_wait_conway(p), len(p))


def reversal_check(p: Pattern) -> bool:
    """Exact equality of the chain-solved waiting times of p and its reversal."""
    return expected_wait_markov(p) == expected_wait_markov(reverse(p))


class PatternRecord(NamedTuple):
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


def scan(max_len: int, threads: int = 1) -> ScanReport:
    """Run both checks on every coin pattern of length 1..max_len.

    Records come out in (length, lexicographic) order.  Violations are
    collected, not raised; the scan is a measurement, and a counterexample
    would be a discovery.  `threads` is accepted for compatibility and must
    be at least 1, but the scan runs in the calling thread whatever its
    value: the work is pure-Python arithmetic under the interpreter lock,
    so worker threads would only add switching cost.

    Word i of length s is word i >> 1 of length s-1 followed by symbol
    i & 1, and each length keeps three lists: `texts`, `rev` (the index of
    each word's reversal; read as a mask, bit k is set iff the word has T
    at position k) and `borders` (bit k set iff the word has a border of
    length k, bit 0 and bit s included).  The borders of u.a are u itself
    and the borders k of u with u[k] = a, each one longer, hence the
    child's mask; E = B - 1 drops bit 0, the empty border.

    Records are built a length at a time from the columns: the lists of E,
    of the reversal's E and of both verdicts (the power form once per
    distinct E, None for the constant first and last words) feed one `map`
    into `PatternRecord`.  Only the spot-check indices and the flagged
    words are then visited one by one, in ascending order, so violations
    come out per word: reversal, power form, then spot check.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    report = ScanReport(max_len=max_len)
    texts, rev, borders = [""], [0], [1]
    for s in range(1, max_len + 1):
        top = 1 << (s - 1)
        low = top - 1
        texts = [t + ch for t in texts for ch in "HT"]
        borders = [(b & (at | top)) << 1 | 1 for b, r in zip(borders, rev) for at in (~r & low, r)]
        rev = [r | a for r in rev for a in (0, top)]
        es = [b - 1 for b in borders]
        e_revs = [es[r] for r in rev]
        oks = list(map(int.__eq__, es, e_revs))
        power_forms = {e: _power_form(e, s) for e in set(es[1:-1])}
        power_oks, exponents = zip((None, None), *map(power_forms.__getitem__, es[1:-1]), (None, None))
        start = len(report.records)
        report.records.extend(map(PatternRecord, texts, repeat(s), es, [texts[r] for r in rev],
                                  e_revs, oks, power_oks, exponents))
        visit = {*range(0, len(texts), SPOT_CHECK_STRIDE), *compress(count(), map(not_, oks)),
                 *compress(count(), map(is_, power_oks, repeat(False)))}
        for idx in sorted(visit):
            rec = report.records[start + idx]
            if not rec.reversal_ok:
                report.violations.append(f"reversal mismatch for {rec.pattern}")
            if rec.power_form_ok is False:
                report.violations.append(f"power form fails for {rec.pattern}")
            if idx % SPOT_CHECK_STRIDE == 0:
                report.spot_checks += 1
                exact = expected_wait_markov(parse(rec.pattern))
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
