"""Five generalized Fibonacci families behind the first-occurrence counts.

Each family is a linear recurrence with a single unit seed at its base
index and zeros below.  Two evaluation routes exist on purpose: `value`
unrolls the defining recurrence, while `gf_coefficients` divides out the
family's rational generating function; tests compare them term by term.

Families and their CLI labels:
  fib:k        order-k Fibonacci; seed at n = k-1, then sum of the last k terms
  fib-bar:k    same k-term sum plus 1 each step (equivalently partial sums of fib:k)
  fib2:k,m     seed at n = k+m-1, then 2a(n-1) - a(n-k-1) + a(n-k-2) + ... + a(n-k-m-1)
  fib-tilde:k,m  seed at n = k+m-1, then 2a(n-1) - a(n-k-1) + 2a(n-k-2) - a(n-k-m-2)
  alt:s        counts for the alternating pattern of length s; seed at n = s
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator

_KINDS = ("fib", "fib-bar", "fib2", "fib-tilde", "alt")


@dataclass(frozen=True)
class SeqFamily:
    kind: str
    params: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind in ("fib", "fib-bar"):
            (k,) = self.params
            if k < 1:
                raise ValueError(f"{self.kind} needs k >= 1, got {k}")
        elif self.kind in ("fib2", "fib-tilde"):
            k, m = self.params
            if k < 0 or m < 0:
                raise ValueError(f"{self.kind} needs k, m >= 0, got {(k, m)}")
        else:
            (s,) = self.params
            if s < 1:
                raise ValueError(f"alt needs s >= 1, got {s}")

    def label(self) -> str:
        return f"{self.kind}:{','.join(str(x) for x in self.params)}"

    def __str__(self) -> str:
        return self.label()


def fib_order(k: int) -> SeqFamily:
    return SeqFamily("fib", (k,))


def fib_bar(k: int) -> SeqFamily:
    return SeqFamily("fib-bar", (k,))


def fib_two_param(k: int, m: int) -> SeqFamily:
    return SeqFamily("fib2", (k, m))


def fib_tilde(k: int, m: int) -> SeqFamily:
    return SeqFamily("fib-tilde", (k, m))


def alt_g(s: int) -> SeqFamily:
    return SeqFamily("alt", (s,))


def parse_family(label: str) -> SeqFamily:
    """Parse a 'kind:p1,p2' label as printed by SeqFamily.label()."""
    kind, _, rest = label.partition(":")
    kind = kind.strip()
    if kind not in _KINDS:
        raise ValueError(f"unknown family kind {kind!r} (expected one of {', '.join(_KINDS)})")
    try:
        params = tuple(int(x) for x in rest.split(",")) if rest.strip() else ()
    except ValueError:
        raise ValueError(f"bad family parameters {rest!r}") from None
    return SeqFamily(kind, params)


def base_index(f: SeqFamily) -> int:
    """Index of the unit seed; values below it are zero.

    For fib2/fib-tilde with k = m = 0 the seed sits at index -1, which keeps
    the reductions to plain Fibonacci numbers exact.
    """
    if f.kind in ("fib", "fib-bar"):
        return f.params[0] - 1
    if f.kind in ("fib2", "fib-tilde"):
        return f.params[0] + f.params[1] - 1
    return f.params[0]


def _recurrence(f: SeqFamily) -> tuple[dict[int, int], int]:
    """Lag -> coefficient map plus the additive constant, merged on collisions."""
    coeffs: dict[int, int] = {}

    def add(lag: int, coeff: int):
        coeffs[lag] = coeffs.get(lag, 0) + coeff

    const = 0
    if f.kind == "fib":
        (k,) = f.params
        for i in range(1, k + 1):
            add(i, 1)
    elif f.kind == "fib-bar":
        (k,) = f.params
        for i in range(1, k + 1):
            add(i, 1)
        const = 1
    elif f.kind == "fib2":
        k, m = f.params
        add(1, 2)
        add(k + 1, -1)
        for i in range(1, m + 1):
            add(k + i + 1, 1)
    elif f.kind == "fib-tilde":
        k, m = f.params
        add(1, 2)
        add(k + 1, -1)
        add(k + 2, 2)
        add(k + m + 2, -1)
    else:
        (s,) = f.params
        half = (s + 1) // 2
        if s % 2 == 0:
            for i in range(1, half + 1):
                add(2 * i - 1, 2)
                add(2 * i, -1)
        else:
            for i in range(1, half):
                add(2 * i - 1, 2)
                add(2 * i, -1)
            add(2 * half - 1, 1)
    return coeffs, const


def _iterate(coeffs: dict[int, int], const: int) -> Iterator[int]:
    """Yield seed 1 then successive recurrence values; history below the seed is zero."""
    max_lag = max(coeffs)
    window = [0] * max_lag
    window[-1] = 1
    yield 1
    while True:
        nxt = const + sum(coeff * window[-lag] for lag, coeff in coeffs.items())
        yield nxt
        window.append(nxt)
        del window[0]


def iter_values(f: SeqFamily) -> Iterator[tuple[int, int]]:
    """Yield (n, value) from the seed index upward, without retaining history."""
    coeffs, const = _recurrence(f)
    n = base_index(f)
    for v in _iterate(coeffs, const):
        yield n, v
        n += 1


# Per family: the values from the seed upward and the generator that
# produced them, so extending the memo resumes where it stopped.
_cache: dict[SeqFamily, tuple[list[int], Iterator[tuple[int, int]]]] = {}
_cache_lock = threading.Lock()


def _memo(f: SeqFamily, want: int) -> list[int]:
    """The family's shared memo, grown to at least `want` entries; do not mutate it."""
    with _cache_lock:
        entry = _cache.get(f)
        if entry is None:
            entry = _cache[f] = ([], iter_values(f))
        cached, gen = entry
        while len(cached) < want:
            cached.append(next(gen)[1])
        return cached


def values(f: SeqFamily, upto: int) -> list[int]:
    """Values for n = base_index(f) .. upto, memoized per family."""
    want = upto - base_index(f) + 1
    return _memo(f, want)[:max(want, 0)]


def value(f: SeqFamily, n: int) -> int:
    """Single exact value; n may be arbitrarily negative (zero below the seed)."""
    base = base_index(f)
    if n < base:
        return 0
    return _memo(f, n - base + 1)[n - base]


def alt_recurrence_values(f: SeqFamily, n: int) -> tuple[int, int]:
    """fib_bar_variants for a family object; other kinds have no alternate forms."""
    if f.kind != "fib-bar":
        raise ValueError(f"alternate recurrences exist only for fib-bar, not {f.kind}")
    return fib_bar_variants(f.params[0], n)


def fib_bar_variants(k: int, n: int) -> tuple[int, int]:
    """The fib-bar value by its two equivalent alternative recurrences.

    Returns (two_term, partial_sum): the first runs a(n) = 2a(n-1) - a(n-k-1)
    from the same seed, the second sums fib:k values from index 0 through n.
    Both must agree with value(fib_bar(k), n).
    """
    if k < 1:
        raise ValueError(f"fib-bar needs k >= 1, got {k}")
    base = k - 1
    if n < base:
        return (0, 0)
    two_term = 0
    gen = _iterate({1: 2, k + 1: -1}, 0)
    for _ in range(n - base + 1):
        two_term = next(gen)
    # fib:k is zero below its seed, so summing its stored values sums from index 0
    partial = sum(values(fib_order(k), n))
    return two_term, partial


def series_shift(f: SeqFamily) -> int:
    """Offset between power-series index and family index.

    The coefficient of x**n in the family's generating function equals the
    family value at n - series_shift(f).
    """
    return {"fib": 1, "fib-bar": 2, "fib2": 2, "fib-tilde": 3, "alt": 0}[f.kind]


def gf_polynomials(f: SeqFamily) -> tuple[list[int], list[int]]:
    """Numerator and denominator coefficient lists of the rational generating function.

    The series is sum over n of (value at n - shift) * x**n.  For fib-bar and
    alt these use the condensed denominators rather than the defining
    recurrence, which keeps this route independent of `value`.
    """

    def poly(d: dict[int, int]) -> list[int]:
        out = [0] * (max(d) + 1)
        for e, coeff in d.items():
            out[e] += coeff
        return out

    if f.kind == "fib":
        (k,) = f.params
        den = {0: 1}
        for i in range(1, k + 1):
            den[i] = -1
        return poly({k: 1}), poly(den)
    if f.kind == "fib-bar":
        (k,) = f.params
        return poly({k + 1: 1}), poly({0: 1, 1: -2, k + 1: 1})
    if f.kind == "fib2":
        k, m = f.params
        den = {0: 1, 1: -2}
        den[k + 1] = den.get(k + 1, 0) + 1
        for i in range(1, m + 1):
            den[k + i + 1] = den.get(k + i + 1, 0) - 1
        return poly({k + m + 1: 1}), poly(den)
    if f.kind == "fib-tilde":
        k, m = f.params
        den = {0: 1, 1: -2}
        den[k + 1] = den.get(k + 1, 0) + 1
        den[k + 2] = den.get(k + 2, 0) - 2
        den[k + m + 2] = den.get(k + m + 2, 0) + 1
        return poly({k + m + 2: 1}), poly(den)
    (s,) = f.params
    num = {s: 1, s + 1: 1}
    if s % 2 == 0:
        den = {i: -1 for i in range(1, s + 1)}
        den[0] = 1
        den[s + 1] = den.get(s + 1, 0) + 1
    else:
        den = {i: -1 for i in range(1, s)}
        den[0] = 1
        den[s + 1] = den.get(s + 1, 0) - 1
    return poly(num), poly(den)


def gf_coefficients(f: SeqFamily, upto: int) -> list[int]:
    """Power-series coefficients of the generating function through x**upto.

    Long division of the numerator by the denominator; the constant term of
    every denominator here is 1, so all coefficients are exact integers.
    """
    num, den = gf_polynomials(f)
    assert den[0] == 1
    out = []
    for n in range(upto + 1):
        acc = num[n] if n < len(num) else 0
        for j in range(1, min(n, len(den) - 1) + 1):
            acc -= den[j] * out[n - j]
        out.append(acc)
    return out
