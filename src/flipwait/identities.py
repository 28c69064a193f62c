"""Summation identities: exact partial sums of sum(n * E_n / c**n) with tail control.

The waiting-time expectation equals the series sum(n * E_n / c**n).  Every
partial sum here is taken over a mass sequence m_0..m_N, either a pattern's
first-occurrence counts or a sequence family's aligned coefficients, and
comes with the absorbed mass sum(m_n / c**n), which gives the certified
bound on the neglected tail.  Both are returned as numerators over the
common denominator c**N.  One routine, `_recurrent_series`, takes the first
masses and the recurrence they obey, for a pattern and for a family alike,
and picks one of two routes with the same exact result.

Horner pass (small N): all N+1 masses, each numerator multiplied by c once
per term, sum(n * m_n * c**(N-n)) and sum(m_n * c**(N-n)).  That is O(N)
big-int steps on numbers of O(N) bits.

Jump (N >= _JUMP_PER_DEGREE * d): the masses obey m_n = sum(a_j * m_(n-j))
for n >= n0, with Q(z) = 1 - sum(a_j * z**j) of degree d, so the series
G = sum(m_n * z**n) is P/Q with P = Q*G mod z**n0.  Truncated at N,
    Q * (G - G_N) = z**(N+1) * T_N,  t_j = sum(a_i * m_(N+1+j-i), i = j+1..d),
so at x = 1/c the absorbed mass is G_N(x) = (P(x) - x**(N+1) * T_N(x)) / Q(x)
and the partial sum is x * G_N'(x), both exact.  Only the last d masses
enter T_N; they come from x**k mod chi(x), chi the recurrence's
characteristic polynomial, by square-and-multiply, dotted with the first
2d - 1 masses (Fiduccia, SIAM J. Comput. 14, 1985).  That is O(d*d * log N)
big-int products (`Recurrence.last_terms`).  Q is `Recurrence.denominator`
of the homogeneous recurrence the masses obey: for a pattern D(z) of the
counting routine (d = s, n0 = s + 1), for a family its own recurrence
(n0 = max(s + 1, d)).  Q(1/c) = c**-d for every pattern and every family
here; were it 0 the Horner pass would run instead.

Tail bound: from any transient automaton state the next s draws finish the
game with probability at least c**-s, so the survival mass rho_n shrinks by
the factor (1 - c**-s) at least every s steps.  Writing the tail as
(N+1)*rho_N + sum(rho_n, n > N) and bounding the sum geometrically gives
tail <= rho_N * (N + s * c**s).  For a single face (s=1, c=2) this is
exactly (N+2)/2**N, the true tail.
"""

from __future__ import annotations

from fractions import Fraction

from flipwait._record import Frozen
from flipwait.closed_form import wait_alternating
from flipwait.counting import count_first_occurrence
from flipwait.pattern import Pattern
from flipwait.recurrence import Recurrence
from flipwait.kinds import COROLLARIES, KINDS
from flipwait.sequences import SeqFamily, _recurrence, base_index, check_least, series_shift

CorollaryParams = tuple[int, ...]


# The jump costs a fixed O(d*d) set-up and O(d*d * log N) products, the Horner
# pass O(N) big-int steps.  Best of 7 on a 2-vCPU Xeon host (CPython 3.11.7),
# Horner / jump in ms, at N = 10d, 20d, 40d and 80d:
#   id3 5,5 (d = 12)           0.18/0.26  0.34/0.30  0.74/0.37   1.68/0.58
#   alt 12 (d = 12)            0.39/0.31  0.73/0.37  1.34/0.49   3.19/0.63
#   HTHT...HT (s = 24)         0.97/0.92  2.20/1.14  5.35/1.58  13.63/2.84
#   TTTTTTHTHT...HT (s = 22)   0.20/0.48  0.43/0.65  1.07/0.93   2.59/1.61
#   id1 2 (d = 2)              0.04/0.07  0.06/0.07  0.09/0.08   0.17/0.08
#   HT (s = 2)                 0.03/0.05  0.04/0.06  0.06/0.06   0.09/0.07
# Words with few borders, whose recurrence has few taps, and small d cross
# last, at about 40d.  At N = 4000 and s = 24 the jump is 5-6x faster, at
# N = 20000 for id3 5,5 over 10x.
_JUMP_PER_DEGREE = 40


def _series(masses: list[int], c: int, s: int, N: int) -> tuple[Fraction, Fraction]:
    """Partial sum of n * masses[n] / c**n over n = 0..N and its tail bound.

    The bound is rho_N * (N + s * c**s) with rho_N = 1 - sum(masses[n] / c**n).
    """
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    if len(masses) != N + 1:
        raise ValueError(f"expected {N + 1} masses for N = {N}, got {len(masses)}")
    absorbed, weighted = _horner(masses, c)
    return _finish(weighted, absorbed, c, s, N)


def _horner(poly: list[int], c: int) -> tuple[int, int]:
    """c**deg * poly(1/c) and c**deg * (x * poly')(1/c), deg = len(poly) - 1.

    One Horner pass, each numerator multiplied by c once per coefficient.
    """
    value = theta = 0
    for i, a in enumerate(poly):
        value = value * c + a
        theta = theta * c + i * a
    return value, theta


def _finish(weighted: int, absorbed: int, c: int, s: int, N: int) -> tuple[Fraction, Fraction]:
    """The partial sum and tail bound from their numerators over c**N."""
    scale = c**N
    return Fraction(weighted, scale), Fraction(scale - absorbed, scale) * (N + s * c**s)


def _recurrent_series(head, rec: Recurrence, n0: int, c: int, s: int, N: int) -> tuple[Fraction, Fraction]:
    """_series of masses[:N + 1] from the masses in `head` and their recurrence.

    The masses obey `rec` for every n >= n0, with d = rec.max_lag <= n0.
    Below N = _JUMP_PER_DEGREE * d, or at a root of Q = rec.denominator(),
    `head` is extended to N + 1 masses for the Horner pass; otherwise the jump
    reads head[:n0 + d - 1].
    """
    q = rec.denominator()
    d = len(q) - 1
    qh, dqh = _horner(q, c)
    if N < _JUMP_PER_DEGREE * d or not qh:
        masses = list(head[:N + 1])
        rec.extend(masses, N + 1)
        return _series(masses, c, s, N)
    tail = rec.last_terms(head[n0 - d:n0 + d - 1], N - n0 + 1)
    # T_N from the last d masses, P = Q*G mod z**n0 from the first n0
    t = [sum(-q[i] * tail[d + j - i] for i in range(j + 1, d + 1)) for j in range(d)]
    p = [sum(q[i] * head[n - i] for i in range(min(n, d) + 1)) for n in range(n0)]
    th, dth = _horner(t, c)
    ph, dph = _horner(p, c)
    # c**(N+d) * G_N(1/c) and its x*d/dx; absorbed = c**N G_N, weighted = c**N x G_N'
    lift = c ** (N - n0 + d + 1)
    u = ph * lift - th
    du = dph * lift - (N + 1) * th - dth
    absorbed, r1 = divmod(u, qh)
    weighted, r2 = divmod(du * qh - u * dqh, qh * qh)
    if r1 or r2:
        raise ArithmeticError(f"the series jump left a remainder at N = {N}")
    return _finish(weighted, absorbed, c, s, N)


def _pattern_series(p: Pattern, N: int) -> tuple[Fraction, Fraction]:
    s = len(p)
    # Q = D(z) of degree s and the recurrence holds from n = s + 1: the jump
    # needs the first 2s counts, the Horner pass all N + 1
    counts = count_first_occurrence(p, N if N < _JUMP_PER_DEGREE * s else 2 * s - 1)
    return _recurrent_series(counts.counts, counts.recurrence, s + 1, p.alphabet_size, s, N)


def _family_series(f: SeqFamily, N: int) -> tuple[Fraction, Fraction]:
    s = _family_length(f)
    rec = _recurrence(f)
    d = rec.max_lag
    # the recurrence holds past the seed at s, and reads only stored terms from d on
    n0 = max(s + 1, d)
    # the seed sits at the family length, at least max lag zeros in, for every
    # family; stepped in a list of its own: the family memo is never evicted
    head = [0] * s + [1]
    rec.extend(head, n0 + d - 1)
    return _recurrent_series(head, rec, n0, 2, s, N)


def _family_length(f: SeqFamily) -> int:
    """Series index of the family's first nonzero coefficient: the underlying pattern length."""
    return base_index(f) + series_shift(f)


def partial_expectation(p: Pattern, N: int) -> Fraction:
    """sum(n * counts[n] / c**n) for n = 0..N as an exact rational."""
    return _pattern_series(p, N)[0]


def tail_bound(subject: "Pattern | SeqFamily", N: int) -> Fraction:
    """Certified upper bound on the series tail beyond N.

    For a Pattern the mass sequence comes from the counting routine.  For a
    SeqFamily it is the aligned coefficient sequence; the geometric-decay
    constant uses the generating function's numerator degree as the pattern
    length, which is the length of the underlying pattern whenever the
    family counts first occurrences.
    """
    if isinstance(subject, Pattern):
        return _pattern_series(subject, N)[1]
    return _family_series(subject, N)[1]


class CorollaryCheck(Frozen):
    """One verified summation identity at truncation N."""

    _fields = ("which", "params", "N", "partial", "target", "gap", "bound")

    def __init__(self, which: str, params: CorollaryParams, N: int, partial: Fraction, target: Fraction,
                 gap: Fraction, bound: Fraction):
        vars(self).update(which=which, params=params, N=N, partial=partial, target=target, gap=gap, bound=bound)

    @property
    def certified(self) -> bool:
        # the bound is achieved exactly for the single-face family, so <=
        return self.gap <= self.bound


# the closed forms E(S) the paper gives for each identity's series
_TARGETS = {
    "id1": lambda k: 2 ** (k + 1) - 2,
    "id1bar": lambda k: 2 ** (k + 1),
    "id2": lambda k, m: 2 ** (k + m + 1) + 2 ** (m + 1) - 2,
    "id3": lambda k, m: 2 ** (k + m + 2) + 2 ** (m + 1),
    "alt": wait_alternating,
}


def corollary_family(which: str, params: CorollaryParams) -> tuple[SeqFamily, Fraction]:
    """Sequence family and closed-form series target for a corollary id.

    id1(k):    sum n*fib:k(n-1)/2**n        = 2**(k+1) - 2
    id1bar(k): sum n*fib-bar:k(n-2)/2**n    = 2**(k+1)
    id2(k,m):  sum n*fib2:k,m(n-2)/2**n     = 2**(k+m+1) + 2**(m+1) - 2
    id3(k,m):  sum n*fib-tilde:k,m(n-3)/2**n = 2**(k+m+2) + 2**(m+1)
    alt(s):    sum n*alt:s(n)/2**n          = the alternating closed form

    Every parameter of an identity is at least 1.
    """
    kind = COROLLARIES.get(which)
    if kind is None:
        raise ValueError(f"unknown corollary {which!r} (expected one of {', '.join(COROLLARIES)})")
    check_least(which, KINDS[kind].names, params, 1)
    return SeqFamily(kind, tuple(params)), Fraction(_TARGETS[which](*params))


def default_truncation(which: str, params: CorollaryParams) -> int:
    family, _ = corollary_family(which, params)
    return max(200, 50 * _family_length(family))


def verify_corollary(which: str, params: CorollaryParams, N: int) -> CorollaryCheck:
    """Exact partial sum of the identity's series, its target, gap, and tail bound."""
    family, target = corollary_family(which, params)
    partial, bound = _family_series(family, N)
    return CorollaryCheck(which, tuple(params), N, partial, target, abs(target - partial), bound)
