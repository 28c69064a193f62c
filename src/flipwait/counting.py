"""Counting the strings in which a pattern occurs only at the end.

One dynamic program over the prefix automaton produces every count: it
propagates how many length-n streams sit in each transient state and
records the flow into the accept state at every step.  The unconditioned
counts are the same program started from the empty given stream.  These
counts satisfy the recurrence of Guibas & Odlyzko, JCTA 30 (1981).  A
string-scanning brute force over all c**n outcomes serves as the
independent oracle at small n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from flipwait.automaton import build, step
from flipwait.pattern import Pattern, as_symbols
from flipwait.sequences import (
    SeqFamily,
    alt_g,
    fib_bar,
    fib_order,
    fib_tilde,
    fib_two_param,
    value,
)

BRUTE_LIMIT = 1 << 24


@dataclass(frozen=True)
class CountVector:
    """counts[n] = number of length-n strings with the pattern only at the end."""

    pattern: Pattern
    counts: tuple[int, ...]

    def __getitem__(self, n: int) -> int:
        return self.counts[n]

    def __len__(self) -> int:
        return len(self.counts)


def count_first_occurrence(p: Pattern, N: int) -> CountVector:
    """Exact counts for n = 0..N by the automaton DP."""
    return CountVector(p, conditional_count_vector(p, (), N))


def _render(symbols, alphabet_size: int) -> str:
    if alphabet_size > 64:
        raise ValueError(f"alphabet of size {alphabet_size} too large for brute force")
    return "".join(chr(48 + s) for s in symbols)


def count_brute(p: Pattern, n: int) -> int:
    """Oracle: enumerate all c**n strings and count first occurrences ending at n.

    Guarded so the enumeration stays within 2**24 strings.  Matching is done
    with str.find on rendered strings, sharing nothing with the automaton DP.
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
    equal to its length.  Entries below the given length are 0.
    """
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    symbols = as_symbols(given, p.alphabet_size)
    r = len(symbols)
    counts = [0] * (N + 1)
    a = build(p)
    s = len(p)
    state = 0
    for i, sym in enumerate(symbols):
        state = step(a, state, sym)
        if state == s:
            if i == r - 1 and r <= N:
                counts[r] = 1
            return tuple(counts)
    c = p.alphabet_size
    trans = a.transitions
    weights = [0] * s
    weights[state] = 1
    for n in range(r + 1, N + 1):
        nxt = [0] * s
        absorbed = 0
        for q in range(s):
            w = weights[q]
            if not w:
                continue
            for sym in range(c):
                to = trans[q][sym]
                if to == s:
                    absorbed += w
                else:
                    nxt[to] += w
        counts[n] = absorbed
        weights = nxt
    return tuple(counts)


def conditional_count(p: Pattern, given, n: int) -> int:
    """Single entry of conditional_count_vector; 0 when n is below the given length."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n < len(as_symbols(given, p.alphabet_size)):
        return 0
    return conditional_count_vector(p, given, n)[n]


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
    """Check the counting DP against the named sequence families.

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
