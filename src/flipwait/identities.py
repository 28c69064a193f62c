"""Summation identities: exact partial sums of sum(n * E_n / c**n) with tail control.

The waiting-time expectation equals the series sum(n * E_n / c**n).  Every
partial sum here comes from one Horner pass over a mass sequence m_0..m_N,
either a pattern's first-occurrence counts or a sequence family's aligned
coefficients.  Over the common denominator c**N the pass carries two
numerators, sum(n * m_n * c**(N-n)) for the partial sum and
sum(m_n * c**(N-n)) for the absorbed mass, each multiplied by c once per
term; the second gives the certified bound on the neglected tail.

Tail bound: from any transient automaton state the next s draws finish the
game with probability at least c**-s, so the survival mass rho_n shrinks by
the factor (1 - c**-s) at least every s steps.  Writing the tail as
(N+1)*rho_N + sum(rho_n, n > N) and bounding the sum geometrically gives
tail <= rho_N * (N + s * c**s).  For a single face (s=1, c=2) this is
exactly (N+2)/2**N, the true tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from flipwait.closed_form import wait_alternating
from flipwait.counting import count_first_occurrence
from flipwait.pattern import Pattern
from flipwait.sequences import (
    SeqFamily,
    alt_g,
    base_index,
    fib_bar,
    fib_order,
    fib_tilde,
    fib_two_param,
    iter_values,
    series_shift,
)

CorollaryParams = tuple[int, ...]


def _series(masses: list[int], c: int, s: int, N: int) -> tuple[Fraction, Fraction]:
    """Partial sum of n * masses[n] / c**n over n = 0..N and its tail bound.

    The bound is rho_N * (N + s * c**s) with rho_N = 1 - sum(masses[n] / c**n).
    """
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    if len(masses) != N + 1:
        raise ValueError(f"expected {N + 1} masses for N = {N}, got {len(masses)}")
    weighted = absorbed = 0
    for n, m in enumerate(masses):
        weighted = weighted * c + n * m
        absorbed = absorbed * c + m
    scale = c**N
    return Fraction(weighted, scale), Fraction(scale - absorbed, scale) * (N + s * c**s)


def _pattern_series(p: Pattern, N: int) -> tuple[Fraction, Fraction]:
    masses = list(count_first_occurrence(p, N).counts)
    return _series(masses, p.alphabet_size, len(p), N)


def _family_series(f: SeqFamily, N: int) -> tuple[Fraction, Fraction]:
    return _series(_aligned_coefficients(f, N), 2, _family_length(f), N)


def _family_length(f: SeqFamily) -> int:
    """Series index of the family's first nonzero coefficient: the underlying pattern length."""
    return base_index(f) + series_shift(f)


def partial_expectation(p: Pattern, N: int) -> Fraction:
    """sum(n * counts[n] / c**n) for n = 0..N as an exact rational."""
    return _pattern_series(p, N)[0]


def tail_bound(subject: "Pattern | SeqFamily", N: int) -> Fraction:
    """Certified upper bound on the series tail beyond N.

    For a Pattern the mass sequence comes from the counting DP.  For a
    SeqFamily it is the aligned coefficient sequence; the geometric-decay
    constant uses the generating function's numerator degree as the pattern
    length, which is the length of the underlying pattern whenever the
    family counts first occurrences.
    """
    if isinstance(subject, Pattern):
        return _pattern_series(subject, N)[1]
    return _family_series(subject, N)[1]


def _aligned_coefficients(f: SeqFamily, N: int) -> list[int]:
    """Series coefficients a_0..a_N with a_n = family value at n - shift."""
    start = _family_length(f)
    out = [0] * min(start, N + 1)
    if start > N:
        return out
    for _, v in islice(iter_values(f), N - start + 1):
        out.append(v)
    return out


@dataclass(frozen=True)
class CorollaryCheck:
    """One verified summation identity at truncation N."""

    which: str
    params: CorollaryParams
    N: int
    partial: Fraction
    target: Fraction
    gap: Fraction
    bound: Fraction

    @property
    def certified(self) -> bool:
        # the bound is achieved exactly for the single-face family, so <=
        return self.gap <= self.bound


_COROLLARIES = ("id1", "id1bar", "id2", "id3", "alt")


def corollary_family(which: str, params: CorollaryParams) -> tuple[SeqFamily, Fraction]:
    """Sequence family and closed-form series target for a corollary id.

    id1(k):    sum n*fib:k(n-1)/2**n        = 2**(k+1) - 2
    id1bar(k): sum n*fib-bar:k(n-2)/2**n    = 2**(k+1)
    id2(k,m):  sum n*fib2:k,m(n-2)/2**n     = 2**(k+m+1) + 2**(m+1) - 2
    id3(k,m):  sum n*fib-tilde:k,m(n-3)/2**n = 2**(k+m+2) + 2**(m+1)
    alt(s):    sum n*alt:s(n)/2**n          = the alternating closed form
    """
    if which == "id1":
        (k,) = params
        return fib_order(k), Fraction(2 ** (k + 1) - 2)
    if which == "id1bar":
        (k,) = params
        return fib_bar(k), Fraction(2 ** (k + 1))
    if which == "id2":
        k, m = params
        if k < 1 or m < 1:
            raise ValueError(f"id2 needs k, m >= 1, got {params}")
        return fib_two_param(k, m), Fraction(2 ** (k + m + 1) + 2 ** (m + 1) - 2)
    if which == "id3":
        k, m = params
        if k < 1 or m < 1:
            raise ValueError(f"id3 needs k, m >= 1, got {params}")
        return fib_tilde(k, m), Fraction(2 ** (k + m + 2) + 2 ** (m + 1))
    if which == "alt":
        (s,) = params
        return alt_g(s), Fraction(wait_alternating(s))
    raise ValueError(f"unknown corollary {which!r} (expected one of {', '.join(_COROLLARIES)})")


def default_truncation(which: str, params: CorollaryParams) -> int:
    family, _ = corollary_family(which, params)
    return max(200, 50 * _family_length(family))


def verify_corollary(which: str, params: CorollaryParams, N: int) -> CorollaryCheck:
    """Exact partial sum of the identity's series, its target, gap, and tail bound."""
    family, target = corollary_family(which, params)
    partial, bound = _family_series(family, N)
    return CorollaryCheck(which, tuple(params), N, partial, target, abs(target - partial), bound)
