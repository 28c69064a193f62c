"""Counting the strings in which a pattern occurs only at the end.

One routine produces every count.  The given stream is walked along the
failure links to its automaton state q; the s counts after it are read off
the border chain of q, and every later count follows from the recurrence of
Guibas & Odlyzko, JCTA 30 (1981).  The unconditioned counts are the same
routine started from the empty given stream.  No transition table is built.

The warm-up: a game that ends t <= s draws after the given stream ends with
an occurrence of S that starts i = s - t symbols before the stream's end, so
its continuation is S[i:] and the stream ends with S[:i], i.e. i is on the
border chain q, f(q), ..., 0.  Each of these counts is therefore 0 or 1, and
it is 1 iff S[:q] + S[i:] (the automaton walk of the stream plus S[i:])
first reaches the accept state on its last symbol; for i <= q that walk
ends with S exactly when i is on the chain.

Why s counts are enough, from any start state q: let A be the s x s block
of the automaton's counting matrix on the transient states and b its column
of symbols into the accept state, so the count absorbed at draw t >= 1 is
m_t = e_q A**(t-1) b.  The unconditioned counts have generating function
z**s / D(z) with D(z) = z**s + (1 - c*z)*C(z), where C(z) sums z**(s-k) over
the correlation set K.  C(0) = 1, so z**s / D is in lowest terms, and the
z**s coefficient of D is 1 - c*[1 in K], nonzero for c >= 2, so deg D = s.
The same function is z e_0 adj(I - zA) b / det(I - zA), whose denominator
has degree at most s and constant term 1.  D divides it, so
D(z) = det(I - zA) = 1 + d_1 z + ... + d_s z**s.  By Cayley-Hamilton
sum_j d_j A**(s-j) = 0, so for t >= s+1
    sum_j d_j m_(t-j) = e_q A**(t-1-s) (sum_j d_j A**(s-j)) b = 0.
The warm-up therefore supplies m_1..m_s and every later term is
-(d_1 m_(t-1) + ... + d_s m_(t-s)), with at most 2|K|+1 nonzero taps.  Each
d_j is 1, -c or 1 - c, so a step adds or subtracts the terms whose tap is
+-1, more than half of a coin word's taps, and multiplies only the others;
`recurrence.Recurrence` steps them.  The cost is O(s*s) for the warm-up
plus O(N*|K|) big-int steps, whatever c is.

Printing the counts costs more than computing them: CPython's int -> str is
quadratic in the digit count.  `CountVector.decimal_strings` therefore keeps
str(int) for counts of up to 1024 bits and, from the first larger count past
n = s, reruns the same recurrence in `decimal` arithmetic seeded with the
stored ints just before it (`Recurrence.strings`).  Its steps are grouped as
in the int pass: an exact add or subtract per unit tap and an fma only for
the other taps.  All
of it is integer arithmetic, so at precision MAX_PREC nothing rounds and each
decimal equals its int exactly; the Inexact and Rounded traps turn any
rounding into an error, and the last decimal is checked against the last
stored count.  Each string then costs time linear in its length.

A string-scanning brute force over all c**n outcomes serves as the
independent oracle at small n; the tests keep the full-length automaton DP
as a second reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator

from flipwait.automaton import failure_links, match
from flipwait.exact import correlation_set
from flipwait.pattern import Pattern, as_symbols
from flipwait.recurrence import Recurrence
from flipwait.sequences import SeqFamily, alt_g, fib_bar, fib_order, fib_tilde, fib_two_param, value

BRUTE_LIMIT = 1 << 24


@dataclass(frozen=True)
class CountVector:
    """counts[n] = number of length-n strings with the pattern only at the end."""

    pattern: Pattern
    counts: tuple[int, ...]
    # the recurrence the counts obey from n = s + 1 on; None: derive it again
    recurrence: Recurrence | None = field(default=None, compare=False, repr=False)

    def __getitem__(self, n: int) -> int:
        return self.counts[n]

    def __len__(self) -> int:
        return len(self.counts)

    def decimal_strings(self, check_first: bool = False) -> Iterator[str]:
        """str(v) for every count, in time linear in its digits past ~1024 bits.

        Counts from the empty stream obey the recurrence from n = s+1 on,
        which Recurrence.strings reruns in exact decimal arithmetic;
        check_first is passed on to it.
        """
        rec = self.recurrence if self.recurrence is not None else _pattern_recurrence(self.pattern)
        return rec.strings(self.counts, len(self.pattern) + 1, check_first)


def count_first_occurrence(p: Pattern, N: int) -> CountVector:
    """Exact counts for n = 0..N by the border-chain warm-up and the recurrence."""
    return CountVector(p, *_count_vector(p, (), N))


def _render(symbols, alphabet_size: int) -> str:
    if alphabet_size > 64:
        raise ValueError(f"alphabet of size {alphabet_size} too large for brute force")
    return "".join(chr(48 + s) for s in symbols)


def count_brute(p: Pattern, n: int) -> int:
    """Oracle: enumerate all c**n strings and count first occurrences ending at n.

    Guarded so the enumeration stays within 2**24 strings.  Matching is done
    with str.find on rendered strings, sharing nothing with the counting routine.
    """
    c = p.alphabet_size
    s = len(p)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if c**n > BRUTE_LIMIT:
        raise ValueError(f"brute force guard exceeded: {c}**{n} > 2**24")
    if n < s:
        return 0
    needle = _render(p.symbols, c)
    chars = [chr(48 + i) for i in range(c)]
    hit = 0
    for tup in product(chars, repeat=n):
        if "".join(tup).find(needle) == n - s:
            hit += 1
    return hit


def conditional_count_vector(p: Pattern, given, N: int) -> tuple[int, ...]:
    """counts[n] for n = 0..N of length-n strings starting with `given` and p only at the end.

    If the pattern already occurs strictly inside the given stream the game
    is over early, so every count is 0; a given stream that ends exactly
    with its first occurrence contributes the single string itself at n
    equal to its length.  Entries below the given length are 0.  The s
    entries after it come from the border chain and later entries from the
    recurrence (see the module docstring).
    """
    return _count_vector(p, given, N)[0]


def _count_vector(p: Pattern, given, N: int) -> tuple[tuple[int, ...], Recurrence | None]:
    """conditional_count_vector(p, given, N) and its recurrence, None if it needed none."""
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    symbols = as_symbols(given, p.alphabet_size)
    r = len(symbols)
    s = len(p)
    fail = failure_links(p)
    q, consumed = match(p, fail, symbols)
    if q == s:
        counts = [0] * (N + 1)
        if consumed == r <= N:
            counts[r] = 1
        return tuple(counts), None
    counts = [0] * min(r + s + 1, N + 1)
    sym = p.symbols
    for i in range(q + 1):
        if r + s - i <= N and match(p, fail, sym[:q] + sym[i:]) == (s, q + s - i):
            counts[r + s - i] = 1
    rec = _pattern_recurrence(p)
    rec.extend(counts, N + 1)
    return tuple(counts), rec


def _pattern_recurrence(p: Pattern) -> Recurrence:
    """a_n = -(d_1 a_(n-1) + ... + d_s a_(n-s)), from the taps of D(z)."""
    return Recurrence(tuple((j, -d_j) for j, d_j in _recurrence_taps(p)))


def _recurrence_taps(p: Pattern) -> tuple[tuple[int, int], ...]:
    """(j, d_j) for the nonzero d_j, 1 <= j <= s, of D(z) = z**s + (1 - c*z)*C(z).

    C(z) = sum of z**(s-k) over the correlation set; d_0 = 1.
    """
    s = len(p)
    c = p.alphabet_size
    d = [0] * (s + 1)
    d[s] = 1
    for k in correlation_set(p):
        d[s - k] += 1
        d[s - k + 1] -= c
    return tuple((j, d[j]) for j in range(1, s + 1) if d[j])


def conditional_count(p: Pattern, given, n: int) -> int:
    """Single entry of conditional_count_vector; 0 when n is below the given length."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    symbols = as_symbols(given, p.alphabet_size)
    if n < len(symbols):
        return 0
    return conditional_count_vector(p, symbols, n)[n]


@dataclass(frozen=True)
class CountFamilyMismatch:
    pattern: str
    family: str
    n: int
    dp_count: int
    sequence_value: int


@dataclass
class CountFamilyReport:
    checks: int = 0
    mismatches: list[CountFamilyMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _run_pattern(lengths: tuple[int, ...]) -> Pattern:
    symbols: list[int] = []
    for i, run_len in enumerate(lengths):
        symbols.extend([i % 2] * run_len)
    return Pattern(tuple(symbols), 2)


def _expected_family(lengths: tuple[int, ...]) -> tuple[SeqFamily, int]:
    """Family and index shift such that counts[n] = value(family, n - shift)."""
    if len(lengths) == 1:
        return fib_order(lengths[0]), 1
    if len(lengths) == 2:
        k, l = lengths
        return fib_bar(k + l - 1), 2
    if len(lengths) == 3:
        k, l, m = lengths
        if m <= k:
            return fib_two_param(k + l - 1, m), 2
        return fib_two_param(l + m - 1, k), 2
    if len(lengths) == 4:
        k, l, m, d = lengths
        if m < k or d > l:
            return fib_bar(k + l + m + d - 1), 2
        return fib_tilde(l + m - 1, k + d - 1), 3
    raise ValueError("no sequence family for more than four runs")


def verify_count_families(max_params: int, N: int) -> CountFamilyReport:
    """Check the counting routine against the named sequence families.

    Sweeps every run-length tuple with one to four runs, entries up to
    max_params, plus alternating patterns up to length 2*max_params, and
    compares counts[n] with the family value for every n <= N.  Mismatches
    are collected, not raised.
    """
    report = CountFamilyReport()

    def check(p: Pattern, family: SeqFamily, shift: int, tag: str):
        counts = count_first_occurrence(p, N)
        for n in range(N + 1):
            expected = value(family, n - shift)
            report.checks += 1
            if counts[n] != expected:
                report.mismatches.append(
                    CountFamilyMismatch(p.text(), f"{tag}={family.label()}", n, counts[n], expected)
                )

    for nruns in (1, 2, 3, 4):
        for lengths in product(range(1, max_params + 1), repeat=nruns):
            p = _run_pattern(lengths)
            family, shift = _expected_family(lengths)
            check(p, family, shift, f"runs{lengths}")

    for s in range(1, 2 * max_params + 1):
        p = Pattern(tuple(i % 2 for i in range(s)), 2)
        check(p, alt_g(s), 0, "alternating")

    return report
