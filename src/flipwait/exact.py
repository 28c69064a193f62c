"""Exact expected waiting times by two routes that check each other.

The absorbing-chain route solves E_q = 1 + (1/c) * sum_a E_{delta(q,a)} with
E_s = 0 along the failure links f of the prefix automaton.  Row q of the
automaton equals row f(q) except at symbol S[q], where it goes to q+1, so
subtracting state f(q)'s equation from state q's leaves
    E_1 = E_0 - c,    E_{q+1} = c*(E_q - E_{f(q)}) + E_{f(q+1)}   (1 <= q < s),
and E_s = 0 fixes E_0.  This is O(s) integer work whatever the alphabet.
The autocorrelation route sums c**k over the overlaps of the pattern with
itself in one walk of the border chain of the whole pattern, read off the
same failure links; it always yields an integer and checks the recurrence.
The tests keep a dense elimination and the prefix/suffix slicing
definition as references for both.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from flipwait.automaton import failure_links, match
from flipwait.pattern import Pattern, as_symbols


def exact_str(x: "Fraction | int") -> str:
    """str(x) of any size: Python's int->str digit limit is lifted for this conversion only."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Pythons before 3.10.7 have no limit
        return str(x)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


def _offsets(fail: list[int], c: int) -> list[int]:
    """The integer offsets D_q = E_0 - E_q, q = 0..s, of the chain solve; D_s = E_0.

    `fail` is the pattern's `failure_links` and c its alphabet size.
    """
    s = len(fail) - 1
    d = [0] * (s + 1)
    d[1] = c
    for q in range(1, s):
        d[q + 1] = c * (d[q] - d[fail[q]]) + d[fail[q + 1]]
    return d


def absorption_times(p: Pattern) -> list[Fraction]:
    """Expected steps to reach the accept state from each automaton state.

    Index q holds the expectation starting from state q; the accept entry
    is zero.  Writing E_q = A_q*E_0 + B_q, the recurrence keeps A_q = 1 for
    every q (by induction from A_0 = A_1 = 1), so it shoots only the integer
    offsets D_q = E_0 - E_q forward; E_s = 0 then gives E_0 = D_s.
    """
    d = _offsets(failure_links(p), p.alphabet_size)
    e0 = d[-1]
    return [Fraction(e0 - dq) for dq in d]


def expected_wait_markov(p: Pattern) -> Fraction:
    """Expected number of draws until the pattern first occurs (chain solve)."""
    return Fraction(_offsets(failure_links(p), p.alphabet_size)[-1])


def correlation_set(p: Pattern) -> set[int]:
    """All k in [1, s] where the length-k prefix equals the length-k suffix.

    These are s and its chain of borders s, f(s), f(f(s)), ... down to 0.
    """
    fail = failure_links(p)
    k = len(p)
    out = set()
    while k:
        out.add(k)
        k = fail[k]
    return out


def expected_wait_conway(p: Pattern) -> int:
    """Expected waiting time as the autocorrelation sum of c**k over overlaps.

    The sum is taken in one walk of the border chain s > f(s) > ... > 0 in
    Horner form: with borders k_1 > ... > k_m, E = (...((1 * c**(k_1 - k_2)
    + 1) * c**(k_2 - k_3) + 1)...) * c**k_m, one power per gap.
    """
    c = p.alphabet_size
    fail = failure_links(p)
    e, k = 0, len(p)
    while k:
        e = (e + 1) * c ** (k - fail[k])
        k = fail[k]
    return e


def conditional_wait(p: Pattern, given) -> Fraction:
    """Expected total draws until the pattern occurs, given the stream starts with `given`.

    The count includes the given draws: the automaton consumes them and the
    chain finishes from the state reached, so the result is len(given) plus
    the absorption time from that state.  The given stream may be any symbol
    sequence, not only a prefix of the pattern; if it already contains the
    pattern the game is over and the result is just len(given).  The state
    is found by `automaton.match` along the failure links, stopping at the
    accept state, so no transition table is built.
    """
    symbols = as_symbols(given, p.alphabet_size)
    fail = failure_links(p)
    state, _ = match(p, fail, symbols)
    d = _offsets(fail, p.alphabet_size)
    return len(symbols) + Fraction(d[-1] - d[state])
