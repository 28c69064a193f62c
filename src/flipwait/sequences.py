"""Five generalized Fibonacci families behind the first-occurrence counts.

Each family is a homogeneous linear recurrence with a single unit seed at
its base index and zeros below.  Two evaluation routes exist on purpose:
`value` unrolls the recurrence, while `gf_coefficients` divides out the
family's rational generating function; tests compare them term by term.

Families and their CLI labels:
  fib:k        order-k Fibonacci; seed at n = k-1, then sum of the last k terms
  fib-bar:k    same k-term sum plus 1 each step (equivalently partial sums of fib:k);
               stepped as 2a(n-1) - a(n-k-1), the form its generating function
               z**(k+1) / (1 - 2z + z**(k+1)) gives
  fib2:k,m     seed at n = k+m-1, then 2a(n-1) - a(n-k-1) + a(n-k-2) + ... + a(n-k-m-1)
  fib-tilde:k,m  seed at n = k+m-1, then 2a(n-1) - a(n-k-1) + 2a(n-k-2) - a(n-k-m-2)
  alt:s        counts for the alternating pattern of length s; seed at n = s

`KINDS`, which the leaf module `kinds` holds and this module re-exports, is
the one place that holds the facts other modules need about a kind: its
parameter names and their least value, where its seed sits, its series
shift and the summation identity (corollary) it enters; the checks,
`base_index`, `series_shift`, the corollaries, the CLI's flags and help
and the count-family sweep all read it.  Each kind's recurrence is defined
twice, on purpose: `_recurrence` and `gf_polynomials`, which tests compare
as independent routes.

`_recurrence` gives each family's recurrence as a `recurrence.Recurrence`,
the core that also steps the first-occurrence counts: it extends the
per-family memo and renders the values in time linear in their digits
(`value_strings`).
"""

from __future__ import annotations

import threading
from itertools import count
from typing import Iterator

from flipwait import kinds
from flipwait._record import Frozen
from flipwait.recurrence import Recurrence


# the family table lives in the leaf module `kinds`; every import of these names from here stays valid
Kind, KINDS, COROLLARIES = kinds.Kind, kinds.KINDS, kinds.COROLLARIES


def check_least(who: str, names: tuple[str, ...], params: tuple[int, ...], least: int):
    """Raise ValueError, naming `who`, unless every parameter is at least `least`."""
    if any(x < least for x in params):
        got = params[0] if len(params) == 1 else tuple(params)
        raise ValueError(f"{who} needs {', '.join(names)} >= {least}, got {got}")


class SeqFamily(Frozen):
    _fields = ("kind", "params")

    def __init__(self, kind: str, params: tuple[int, ...]):
        if kind not in KINDS:
            raise ValueError(f"unknown family kind {kind!r}")
        names = KINDS[kind].names
        if len(params) != len(names):
            raise ValueError(f"{kind} needs {len(names)} parameter{'s' if len(names) > 1 else ''} "
                             f"({','.join(names)}), got {len(params)}")
        check_least(kind, names, params, KINDS[kind].least)
        vars(self).update(kind=kind, params=params)

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
    if kind not in KINDS:
        raise ValueError(f"unknown family kind {kind!r} (expected one of {', '.join(KINDS)})")
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
    return sum(f.params) + KINDS[f.kind].seed


def _recurrence(f: SeqFamily) -> Recurrence:
    """The family's homogeneous recurrence; taps at the same lag are merged.

    fib-bar's definition adds 1 to a k-term sum; its two-term form holds
    from the step after the seed on, as the zeros below the seed make it.
    """
    coeffs: dict[int, int] = {}

    def add(lag: int, coeff: int):
        coeffs[lag] = coeffs.get(lag, 0) + coeff

    if f.kind == "fib":
        (k,) = f.params
        for i in range(1, k + 1):
            add(i, 1)
    elif f.kind == "fib-bar":
        (k,) = f.params
        add(1, 2)
        add(k + 1, -1)
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
    return Recurrence(tuple(coeffs.items()))


def iter_values(f: SeqFamily) -> Iterator[tuple[int, int]]:
    """(n, value) from the seed index upward, extending the family's memo."""
    return ((n, value(f, n)) for n in count(base_index(f)))


# Per family: its recurrence, its history (max lag zeros, the seed, then the
# values after it) and the index of the history's first entry.  Extending the
# memo resumes where it stopped.
_cache: dict[SeqFamily, tuple[Recurrence, list[int], int]] = {}
_cache_lock = threading.Lock()


def _history(f: SeqFamily, n: int) -> tuple[Recurrence, list[int], int]:
    """The family's (recurrence, history, index of its first entry), the history through index n; do not mutate it."""
    with _cache_lock:
        entry = _cache.get(f)
        if entry is None:
            rec = _recurrence(f)
            entry = _cache[f] = (rec, [0] * rec.max_lag + [1], base_index(f) - rec.max_lag)
        rec, history, origin = entry
        rec.extend(history, n - origin + 1)
        return entry


def values(f: SeqFamily, upto: int) -> list[int]:
    """Values for n = base_index(f) .. upto, memoized per family."""
    base = base_index(f)
    if upto < base:
        return []
    _, history, origin = _history(f, upto)
    return history[base - origin:upto - origin + 1]


def value(f: SeqFamily, n: int) -> int:
    """Single exact value; n may be arbitrarily negative (zero below the seed)."""
    if n < base_index(f):
        return 0
    _, history, origin = _history(f, n)
    return history[n - origin]


def value_strings(f: SeqFamily, upto: int, check_first: bool = False) -> Iterator[str]:
    """str(value(f, n)) for n = 0..upto, through Recurrence.strings (check_first passed on).

    The recurrence holds from base_index(f) + 1 on, with zeros below the
    seed; the switch waits a further max lag so every tap reads a stored
    value.
    """
    if upto < 0:
        raise ValueError(f"N must be nonnegative, got {upto}")
    rec, history, origin = _history(f, upto)
    # every family's max lag is at least its seed index, so origin <= 0
    return rec.strings(history[-origin:upto - origin + 1], base_index(f) + rec.max_lag + 1, check_first)


def fib_bar_variants(k: int, n: int) -> tuple[int, int]:
    """The fib-bar value by its definition and by the partial sums of fib:k.

    Returns (definition, partial_sum): the first runs a(n) = a(n-1) + ... +
    a(n-k) + 1 from the seed at k-1, the second sums fib:k values from
    index 0 through n.  Both must agree with value(fib_bar(k), n), which
    steps the two-term form.
    """
    base = base_index(fib_bar(k))
    if n < base:
        return (0, 0)
    history = [0] * (k - 1) + [1]
    for _ in range(n - base):
        history.append(sum(history[-k:]) + 1)
    # fib:k is zero below its seed, so summing its stored values sums from index 0
    partial = sum(values(fib_order(k), n))
    return history[-1], partial


def series_shift(f: SeqFamily) -> int:
    """Offset between power-series index and family index.

    The coefficient of x**n in the family's generating function equals the
    family value at n - series_shift(f).
    """
    return KINDS[f.kind].shift


def gf_polynomials(f: SeqFamily) -> tuple[list[int], list[int]]:
    """Numerator and denominator coefficient lists of the rational generating function.

    The series is sum over n of (value at n - shift) * x**n.  For alt this
    uses the condensed denominator rather than the defining recurrence,
    which keeps this route independent of `value`; fib-bar's is the
    two-term form `value` steps, and `fib_bar_variants` checks it against
    the definition.
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
