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
pattern of each length) against the exact chain solve.  A report keeps two
integer columns per length, each word's E and the index of its reversal;
the per-pattern `PatternRecord`s are built from them only when read.
"""

from __future__ import annotations

import csv
import json
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

from flipwait.exact import expected_wait_conway, expected_wait_markov
from flipwait.pattern import Pattern, parse, reverse, runs

INTERPRETATION = (
    "power form holds iff E - 2**len is a sum of distinct powers 2**e with 1 <= e <= len-1; "
    "constant patterns are excluded"
)

SPOT_CHECK_STRIDE = 100

# scan(L) peaks at about 150 bytes per word of length L, mostly the last two
# lengths' lists of int objects (ru_maxrss 164 / 310 / 613 MB at L = 20 / 21 /
# 22, 16 MB of it the interpreter; Python 3.11).  A budget of 4 GB, half of an
# 8 GB host, holds L = 24 (2.5 GB) but not L = 25 (5 GB).  Reading `records`,
# as --out and --csv do, costs several times more per word.
MAX_LEN = 24


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
    violations: list[str] = field(default_factory=list)
    spot_checks: int = 0
    # per length s = 1.., (E of each word, index of its reversal), words in lexicographic order
    columns: list[tuple[array, array]] = field(default_factory=list, repr=False)
    histogram: dict[int, int] = field(default_factory=dict)
    _records: list[PatternRecord] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def scanned(self) -> int:
        return len(self._records) if self._records is not None else sum(len(es) for es, _ in self.columns)

    def exponent_histogram(self) -> dict[int, int]:
        """Distribution of excess exponent-set sizes over checked patterns."""
        return dict(self.histogram)

    @property
    def records(self) -> list[PatternRecord]:
        """One record per word in (length, lexicographic) order, built from the columns on first read."""
        if self._records is None:
            self._records, texts = [], [""]
            for s, (es, rev) in enumerate(self.columns, 1):
                texts = [t + ch for t in texts for ch in "HT"]
                es = es.tolist()
                e_revs = list(map(es.__getitem__, rev))
                forms = {e: _power_form(e, s) for e in set(es[1:-1])}
                power_oks, exponents = ([None, *map({e: f[k] for e, f in forms.items()}.__getitem__, es[1:-1]), None]
                                        for k in (0, 1))
                # tuple.__new__ makes each record in C, skipping the NamedTuple's Python-level __new__
                self._records.extend(map(tuple.__new__, repeat(PatternRecord), zip(
                    texts, repeat(s), es, map(texts.__getitem__, rev), e_revs, map(int.__eq__, es, e_revs),
                    power_oks, exponents)))
        return self._records


def scan(max_len: int, threads: int = 1) -> ScanReport:
    """Run both checks on every coin pattern of length 1..max_len.

    Violations are collected, not raised; the scan is a measurement, and a
    counterexample would be a discovery.  `threads` is accepted for
    compatibility and must be at least 1, but the scan runs in the calling
    thread whatever its value: the work is pure-Python arithmetic under the
    interpreter lock, so worker threads would only add switching cost.
    max_len above MAX_LEN raises ValueError before any column is built.

    Word i of length s is word i >> 1 of length s-1 followed by symbol
    i & 1 (H = 0, T = 1).  Each length has two lists: `rev` (the index of
    each word's reversal; read as a mask, bit k is set iff the word has T
    at position k) and `es`, where E + 1 is the word's border mask (bit k
    set iff the word has a border of length k, bit 0 and bit s included).
    The borders of u.a are u itself and the borders k of u with u[k] = a,
    each one longer, hence the child's E from its parent's.

    The report keeps both lists as `array('Q')` columns and builds no
    `PatternRecord`.  The power form is checked, and counted into the
    histogram, once per distinct E of the non-constant words; reversal is
    one comparison of E with E read through `rev`.  Only the spot-check
    indices and the flagged words are then visited, in ascending order,
    and given a text, so violations come out per word: reversal, power
    form, then spot check.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    if max_len > MAX_LEN:
        raise ValueError(f"max_len {max_len} exceeds the scan limit MAX_LEN = {MAX_LEN} (memory)")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    report = ScanReport(max_len=max_len)
    hist: Counter[int] = Counter()
    es, rev = [0], [0]
    for s in range(1, max_len + 1):
        top = 1 << (s - 1)
        low = top - 1
        es = [((e | 1) & (at | top)) << 1 for e, r in zip(es, rev) for at in (~r & low, r)]
        rev = [r | a for r in rev for a in (0, top)]
        report.columns.append((array("Q", es), array("Q", rev)))
        e_revs = list(map(es.__getitem__, rev))
        failing = set()
        for e, n in Counter(es[1:-1]).items():
            ok, exponents = _power_form(e, s)
            hist[len(exponents)] += n
            if not ok:
                failing.add(e)
        visit = set(range(0, len(es), SPOT_CHECK_STRIDE))
        if e_revs != es or failing:
            visit.update(i for i, (e, f) in enumerate(zip(es, e_revs)) if e != f or e in failing)
        for idx in sorted(visit):
            text = format(idx, f"0{s}b").replace("0", "H").replace("1", "T")
            if es[idx] != e_revs[idx]:
                report.violations.append(f"reversal mismatch for {text}")
            if es[idx] in failing:
                report.violations.append(f"power form fails for {text}")
            if idx % SPOT_CHECK_STRIDE == 0:
                report.spot_checks += 1
                exact = expected_wait_markov(parse(text))
                if exact.denominator != 1 or exact != es[idx]:
                    report.violations.append(
                        f"spot check mismatch for {text}: chain solve {exact}, autocorrelation {es[idx]}")
    report.histogram = dict(sorted(hist.items()))
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
