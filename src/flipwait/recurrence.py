"""Linear recurrences with constant coefficients, stored and stepped in one place.

Both objects of the package are such sequences.  A pattern's first-occurrence
counts obey the recurrence read off its correlation set (Guibas & Odlyzko,
JCTA 30, 1981; `counting` builds it), and each generalized Fibonacci family
is defined by its own (`sequences`).  A `Recurrence` holds the (lag, coeff)
taps of the homogeneous recurrence

    u_n = sum(coeff * u_(n - lag) for lag, coeff in taps)

and does what the package does with them: `extend` a list of ints,
render the values as strings in time linear in their digits (`strings`),
give the denominator Q(z) of their generating function (`denominator`) and
jump to terms far out (`last_terms`, after Fiduccia, SIAM J. Comput. 14,
1985).

The taps are grouped once, when the recurrence is built (`tap_classes`): a
step adds or subtracts the terms whose coefficient is +-1 and multiplies
only the others.  It starts from its first term as it stands instead of
adding that term to 0.
"""

from __future__ import annotations

import decimal
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

# CPython's int -> str is quadratic in the digit count, a decimal recurrence
# step plus str(Decimal) is linear.  On a 2-vCPU shared Xeon host (CPython
# 3.11.7, best of several timeit runs) str(int) takes 1.06 us at 768 bits,
# 1.80 us at 1024 and 28.9 us at 4096.  A 2-tap decimal step plus str takes 1.11,
# 2.01 and 4.09 us as an fma and a subtract (a coin word's c and -1 taps),
# 0.99, 1.76 and 3.57 us as two adds, and 1.21, 2.26 and 4.75 us as the two
# fma calls of an ungrouped step.  The two routes still break even between
# 768 and 1024 bits; values of up to 1024 bits keep str(int), so short
# vectors such as coin words at N = 400 never leave it.
_DECIMAL_BITS = 1024
# Integer arithmetic at MAX_PREC never rounds; if it ever did, the Inexact and
# Rounded traps raise instead of printing wrong digits.  The rerun calls this
# context's methods and never installs it, so the caller's context is untouched.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow,
           decimal.Inexact, decimal.Rounded],
)


def tap_classes(taps) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Split (lag, coeff) recurrence taps by coefficient: +1, -1 and the rest.

    Returns the offsets -lag of the +1 taps, those of the -1 taps, and
    (-lag, coeff) for every other tap, so that a step adds the first class,
    subtracts the second and multiplies only the third.  An offset reads
    history[n - lag] as history[n + offset], or as window[offset] in a window
    that ends just before n.  The taps are only regrouped: every step still
    sums all of them.  Callers test a bool per class before looping over it:
    an empty class costs one test, not an empty loop.
    """
    plus = tuple([-lag for lag, coeff in taps if coeff == 1])
    minus = tuple([-lag for lag, coeff in taps if coeff == -1])
    scaled = tuple([(-lag, coeff) for lag, coeff in taps if coeff not in (1, -1)])
    return plus, minus, scaled


@dataclass(frozen=True)
class Recurrence:
    """u_n = sum(coeff * u_(n - lag) for lag, coeff in taps); at least one tap, lags >= 1."""

    taps: tuple[tuple[int, int], ...]
    # a step's first term as (offset, coeff), then tap_classes of the other taps
    _plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # The first term is a +1 tap read as it stands, else the tap with the
        # largest coefficient.  Without a positive tap a step starts from 0
        # times the most negative tap's term, which that tap then adds in
        # full, so a sum of zeros stays +0 in the decimal rerun.
        lag, coeff = max(self.taps, key=lambda tap: (tap[1] == 1, tap[1]))
        rest = list(self.taps)
        if coeff > 0:
            rest.remove((lag, coeff))
        else:
            lag, coeff = min(self.taps, key=lambda tap: tap[1])[0], 0
        object.__setattr__(self, "_plan", ((-lag, coeff), *tap_classes(rest)))

    @property
    def max_lag(self) -> int:
        """How many terms back a step reads."""
        return max(lag for lag, _ in self.taps)

    def extend(self, values: list[int], stop: int) -> None:
        """Append u_n to `values` for n = len(values) .. stop - 1.

        `values` must already hold at least max_lag terms.
        """
        if stop > len(values) < self.max_lag:
            raise ValueError(f"a step reads {self.max_lag} terms back, but only {len(values)} are given")
        (first, coeff0), plus, minus, scaled = self._plan
        has_plus, has_minus, has_scaled = bool(plus), bool(minus), bool(scaled)
        unit = coeff0 == 1
        append = values.append
        for n in range(len(values), stop):
            v = values[n + first] if unit else coeff0 * values[n + first]
            if has_plus:
                for i in plus:
                    v += values[n + i]
            if has_minus:
                for i in minus:
                    v -= values[n + i]
            if has_scaled:
                for i, coeff in scaled:
                    v += coeff * values[n + i]
            append(v)

    def strings(self, stored, start: int, check_first: bool = False) -> Iterator[str]:
        """Yield str(v) for every v in `stored`, in order.

        stored[n] must obey the recurrence for every n >= start, and start
        must be at least max_lag.  Values of up to _DECIMAL_BITS bits go
        through str(int).  From the first index n0 >= start past that size,
        the recurrence reruns in exact decimal arithmetic from
        stored[n0 - max_lag : n0].  The stored ints stay the source of truth:
        a string longer than sys.get_int_max_str_digits() allows is replaced
        by str() of the stored int, which raises CPython's own error, and the
        last rerun value must equal the last stored value.  With check_first,
        every stored int is tested against the limit once before anything is
        yielded, so a caller that prints all the strings or none fails before
        the decimal rerun, through str() of the first int past the limit.
        """
        # 0 means no limit, as on Pythons older than 3.10.7, which lack the call
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if check_first and limit:
            bound = 10**limit
            for v in filter(bound.__le__, map(abs, stored)):
                str(v)  # more than `limit` digits: CPython raises
        total = len(stored)
        n = 0
        while n < total and (n < start or stored[n].bit_length() <= _DECIMAL_BITS):
            yield str(stored[n])
            n += 1
        if n == total:
            return
        max_lag = self.max_lag
        # converting an int to Decimal is exact in any context
        window = deque((decimal.Decimal(v) for v in stored[n - max_lag:n]), max_lag)
        (first, coeff0), plus, minus, scaled = self._plan
        has_plus, has_minus, has_scaled = bool(plus), bool(minus), bool(scaled)
        scaled = [(i, decimal.Decimal(coeff)) for i, coeff in scaled]
        unit, coeff0 = coeff0 == 1, decimal.Decimal(coeff0)
        add, subtract, multiply, fma = _EXACT.add, _EXACT.subtract, _EXACT.multiply, _EXACT.fma
        for n in range(n, total):
            v = window[first] if unit else multiply(coeff0, window[first])
            if has_plus:
                for i in plus:
                    v = add(v, window[i])
            if has_minus:
                for i in minus:
                    v = subtract(v, window[i])
            if has_scaled:
                for i, coeff in scaled:
                    v = fma(coeff, window[i], v)
            window.append(v)
            text = str(v)
            if limit and len(text) > limit:
                text = str(stored[n])  # over the limit: CPython raises
            yield text
        if v != stored[-1]:
            raise ArithmeticError(f"decimal rerun disagrees with the stored value at n = {total - 1}")

    def denominator(self) -> list[int]:
        """Coefficients of Q(z) = 1 - sum(coeff * z**lag).

        Q times the generating function of any sequence that obeys the
        recurrence from some index on is a polynomial.
        """
        q = [1] + [0] * self.max_lag
        for lag, coeff in self.taps:
            q[lag] -= coeff
        return q

    def last_terms(self, u: list[int], k: int) -> list[int]:
        """u_k .. u_(k+d-1) from u = u_0 .. u_(2d-2), d = max_lag.

        u_(k+i) = sum(r_j * u_(j+i)), where r is x**k mod
        chi(x) = x**d - sum(coeff * x**(d-lag)), computed by square-and-multiply;
        each reduction adds or subtracts the +-1 taps and multiplies the others.
        """
        d = (len(u) + 1) // 2
        (first, coeff0), plus, minus, scaled = self._plan

        def reduce(prod: list[int]) -> list[int]:
            for e in range(len(prod) - 1, d - 1, -1):
                top = prod[e]
                if top:
                    prod[e + first] += top if coeff0 == 1 else coeff0 * top
                    for i in plus:
                        prod[e + i] += top
                    for i in minus:
                        prod[e + i] -= top
                    for i, coeff in scaled:
                        prod[e + i] += coeff * top
            return prod[:d]

        r = [1] + [0] * (d - 1)
        for bit in bin(k)[2:]:
            sq = [0] * (2 * d - 1)
            for i, r_i in enumerate(r):
                if r_i:
                    sq[2 * i] += r_i * r_i
                    twice = 2 * r_i
                    for j in range(i + 1, d):
                        sq[i + j] += twice * r[j]
            r = reduce(sq)
            if bit == "1":
                r = reduce([0] + r)
        return [sum(r_j * u[j + i] for j, r_j in enumerate(r)) for i in range(d)]
