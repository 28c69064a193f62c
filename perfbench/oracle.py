"""Independent routes the benchmark checks the program's outputs against.

Nothing here calls the package's exact machinery: the waiting time is the
autocorrelation sum computed from scratch, the automaton is rebuilt by the
naive longest-border definition, and first-occurrence counts come from the
Guibas-Odlyzko recurrence rather than a walk over the automaton.
"""

from __future__ import annotations

import contextlib
import sys
from fractions import Fraction
from itertools import groupby


def symbols_of(text: str, alphabet: int) -> tuple[int, ...]:
    """Symbol indices of a coin word ('HT...') or a die word ('0,3,1')."""
    if alphabet == 2:
        return tuple("HT".index(ch) for ch in text)
    return tuple(int(part) for part in text.split(","))


def correlation_set(sym: tuple[int, ...]) -> list[int]:
    s = len(sym)
    return [k for k in range(1, s + 1) if sym[:k] == sym[s - k:]]


def conway(sym: tuple[int, ...], alphabet: int) -> int:
    """E(S) as the sum of c**k over the overlaps of S with itself."""
    return sum(alphabet**k for k in correlation_set(sym))


def transition(sym: tuple[int, ...], q: int, a: int) -> int:
    """Longest prefix of the pattern that is a suffix of its q-prefix followed by a."""
    s = len(sym)
    if q == s:
        return s
    word = sym[:q] + (a,)
    for k in range(min(len(word), s), 0, -1):
        if word[len(word) - k:] == sym[:k]:
            return k
    return 0


def transitions_match(sym: tuple[int, ...], alphabet: int, table) -> bool:
    """Compare a dense transition table with the naive definition.

    Symbols absent from the pattern always lead back to state 0, so only
    the pattern's own symbols need the quadratic search.
    """
    s = len(sym)
    if len(table) != s + 1:
        return False
    present = set(sym)
    for q, row in enumerate(table):
        if len(row) != alphabet:
            return False
        for a, to in enumerate(row):
            want = transition(sym, q, a) if (a in present or q == s) else 0
            if to != want:
                return False
    return True


def flat_table(sym: tuple[int, ...], alphabet: int) -> list[int]:
    """Row-major automaton table in the layout the simulation kernels take."""
    return [transition(sym, q, a) for q in range(len(sym) + 1) for a in range(alphabet)]


def first_occurrence_counts(sym: tuple[int, ...], alphabet: int, N: int) -> list[int]:
    """Number of length-n strings whose first occurrence of the pattern ends at n, n = 0..N.

    Guibas and Odlyzko: with the correlation polynomial C(z), the sum of
    z**(s-k) over the overlaps k, the counts have the generating function
    z**s / (z**s + (1 - c*z) * C(z)).  The denominator has constant term 1,
    so the counts follow a linear recurrence with at most 2*|overlaps| + 1 taps.
    """
    s = len(sym)
    denom = [0] * (s + 1)
    denom[s] += 1
    for k in correlation_set(sym):
        denom[s - k] += 1
        denom[s - k + 1] -= alphabet
    taps = [(j, d) for j, d in enumerate(denom) if j and d]
    counts: list[int] = []
    for n in range(N + 1):
        counts.append((n == s) - sum(d * counts[n - j] for j, d in taps if j <= n))
    return counts


def series_bracket(counts, alphabet: int, s: int) -> tuple[Fraction, Fraction]:
    """(partial, bound) with partial <= E <= partial + bound for first-occurrence counts.

    partial is sum(n * counts[n] / c**n); bound is rho_N * (N + s * c**s), the
    survival mass after N draws times the geometric tail factor (the next s
    draws finish the game with probability at least c**-s).
    """
    N = len(counts) - 1
    c = alphabet
    weighted = 0
    mass = 0
    for n, v in enumerate(counts):
        scale = c ** (N - n)
        weighted += n * v * scale
        mass += v * scale
    denom = c**N
    return Fraction(weighted, denom), Fraction(denom - mass, denom) * (N + s * c**s)


def run_lengths(sym: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(len(list(group)) for _, group in groupby(sym))


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift Python's int<->str digit limit while a check parses program output.

    The limit is restored afterwards, so the ops themselves still run under
    the interpreter's default.
    """
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)
