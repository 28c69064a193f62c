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
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

from flipwait.exact import expected_wait_conway, expected_wait_markov
from flipwait.jsontext import dumps
from flipwait.pattern import Pattern, parse, reverse, runs

INTERPRETATION = (
    "power form holds iff E - 2**len is a sum of distinct powers 2**e with 1 <= e <= len-1; "
    "constant patterns are excluded"
)

SPOT_CHECK_STRIDE = 100

# scan(L) peaks at about 90 bytes per word of length L: the last length's E
# list (one int object per word) and that list read through the reversal
# index, beside the 4-byte columns of every length (ru_maxrss 40 / 106 / 380 MB
# at L = 18 / 20 / 22, 13 MB of it the interpreter; Python 3.11).  L = 24 needs
# about 1.5 GB and L = 25 about 3 GB; a 4-byte lane holds E < 2**(L + 1) for
# both.  write_csv and write_json each add about 165 bytes per word of length
# L (one length's texts and rows; ru_maxrss 87 MB for either at L = 18 through
# the CLI); reading `records` costs several times more.
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
            self._records = []
            for rows in _rows(self.columns):
                # tuple.__new__ makes each record in C, skipping the NamedTuple's Python-level __new__
                self._records.extend(map(tuple.__new__, repeat(PatternRecord), rows))
        return self._records


def _rows(columns: list[tuple[array, array]], blank=None, exponents=tuple):
    """Per length, an iterator of each word's eight record fields, in lexicographic order.

    The constant first and last words get `blank` for both power-form
    fields; the others get the verdict and `exponents` of the exponent
    tuple, both found once per distinct E.  Only one length's lists are
    alive at a time.
    """
    texts = [""]
    for s, (es, rev) in enumerate(columns, 1):
        texts = [t + ch for t in texts for ch in "HT"]
        es = es.tolist()
        e_revs = list(map(es.__getitem__, rev))
        inner = es[1:-1]
        forms = {e: _power_form(e, s) for e in set(inner)}
        oks = {e: ok for e, (ok, _) in forms.items()}
        shown = {e: exponents(x) for e, (_, x) in forms.items()}
        yield zip(texts, repeat(s), es, map(texts.__getitem__, rev), e_revs, map(int.__eq__, es, e_revs),
                  [blank, *map(oks.__getitem__, inner), blank], [blank, *map(shown.__getitem__, inner), blank])


def _grow(es: array, rev: array, s: int) -> tuple[array, array]:
    """The E and reversal columns of length s from those of length s-1, a few whole-int steps each.

    Each column is read as one int of 4-byte lanes in `sys.byteorder`; the
    constants hold the same value in every lane, and no lane carries into the
    next (E < 2**25 for s <= MAX_LEN).  The two children of each word are
    written back interleaved, H child at even and T child at odd indices.
    """
    width = len(es) * es.itemsize
    ones = int.from_bytes(array(es.typecode, [1]) * len(es), sys.byteorder)
    top = ones << (s - 1)
    e = int.from_bytes(es, sys.byteorder) | ones
    r = int.from_bytes(rev, sys.byteorder)
    kids_es, kids_rev = array(es.typecode, bytes(2 * width)), array(rev.typecode, bytes(2 * width))
    es_view, rev_view = memoryview(kids_es), memoryview(kids_rev)
    # `at` marks where the parent has the appended symbol: r read as a mask has T's
    # positions, so H's are ~r & low = r ^ low, with low = top - ones
    for a, (at, kid_rev) in enumerate(((r ^ (top - ones), r), (r, r | top))):
        es_view[a::2] = memoryview(((e & (at | top)) << 1).to_bytes(width, sys.byteorder)).cast(es.typecode)
        rev_view[a::2] = memoryview(kid_rev.to_bytes(width, sys.byteorder)).cast(rev.typecode)
    return kids_es, kids_rev


def scan(max_len: int, threads: int = 1) -> ScanReport:
    """Run both checks on every coin pattern of length 1..max_len.

    Violations are collected, not raised; the scan is a measurement, and a
    counterexample would be a discovery.  `threads` is accepted for
    compatibility and must be at least 1, but the scan runs in the calling
    thread whatever its value: the work is pure-Python arithmetic under the
    interpreter lock, so worker threads would only add switching cost.
    max_len above MAX_LEN raises ValueError before any column is built.

    Word i of length s is word i >> 1 of length s-1 followed by symbol
    i & 1 (H = 0, T = 1).  Each length has two `array('I')` columns: `rev`
    (the index of each word's reversal; read as a mask, bit k is set iff the
    word has T at position k) and `es`, where E + 1 is the word's border
    mask (bit k set iff the word has a border of length k, bit 0 and bit s
    included).  The borders of u.a are u itself and the borders k of u with
    u[k] = a, each one longer, hence the child's E from its parent's:
    ((E | 1) & (at | top)) << 1, with top = 2**(s-1) and at the positions
    of a in u, read off u's reversal index.  `_grow` computes this for all
    words of a length at once, in lanes of one packed int.

    The report keeps the columns and builds no `PatternRecord`.  The power
    form is checked, and counted into the histogram, once per distinct E of
    the non-constant words; reversal is one comparison of the E list with E
    read through `rev`.  Only the spot-check indices and the flagged words
    are then visited, in ascending order, and given a text, so violations
    come out per word: reversal, power form, then spot check.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    if max_len > MAX_LEN:
        raise ValueError(f"max_len {max_len} exceeds the scan limit MAX_LEN = {MAX_LEN} (memory)")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    report = ScanReport(max_len=max_len)
    hist: Counter[int] = Counter()
    column = array("I", [0]), array("I", [0])
    for s in range(1, max_len + 1):
        column = _grow(*column, s)
        report.columns.append(column)
        es = column[0].tolist()
        e_revs = list(map(es.__getitem__, column[1]))
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


def summary(report: ScanReport) -> dict:
    """The report without its records, as `scan --json` prints it after its command key."""
    return {
        "schema": 1,
        "max_len": report.max_len,
        "interpretation": report.interpretation,
        "scanned": report.scanned,
        "spot_checks": report.spot_checks,
        "violations": list(report.violations),
        "exponent_set_sizes": {str(k): v for k, v in report.exponent_histogram().items()},
    }


def report_as_dict(report: ScanReport) -> dict:
    """JSON-ready form; exact integers are serialized as decimal strings."""
    return {
        **summary(report),
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


# one record of write_json at its depth in the report; the texts of the words
# hold only H and T, so they need no escaping
_RECORD = """{
      "pattern": "%s",
      "length": %d,
      "expected": "%d",
      "reversal": "%s",
      "reversal_expected": "%d",
      "reversal_ok": %s,
      "power_form_ok": %s,
      "excess_exponents": %s
    }"""
_WORDS = {True: "true", False: "false", None: "null"}


def _json_ints(values: tuple) -> str:
    """The JSON list of `values` at the depth of a record's field."""
    return "[\n        " + ",\n        ".join(map(str, values)) + "\n      ]" if values else "[]"


def write_json(report: ScanReport, path: str):
    """json.dump(report_as_dict(report), indent=2) and a newline, streamed record by record from the columns.

    Neither `report.records` nor a list of record dicts is built: each
    record's fields fill `_RECORD` as its row comes out of `_rows`, and the
    exponent list is written once per distinct E.
    """
    head = dumps({**summary(report), "records": []})  # ends in '[]\n}'
    indent = "\n    "
    with open(path, "w") as fh:
        fh.write(head[:-3])
        sep = indent
        for rows in _rows(report.columns, exponents=_json_ints):
            for pattern, length, e, rev, e_rev, ok, form_ok, exponents in rows:
                fh.write(sep + _RECORD % (pattern, length, e, rev, e_rev, _WORDS[ok], _WORDS[form_ok],
                                          exponents or "null"))
                sep = "," + indent
        fh.write("]\n}\n" if sep == indent else "\n  ]\n}\n")  # json writes no records as []


def write_csv(report: ScanReport, path: str):
    """One row per word, streamed length by length from the columns; `report.records` is not built."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PatternRecord._fields)
        for rows in _rows(report.columns, "", lambda exps: " ".join(map(str, exps))):
            writer.writerows(rows)
