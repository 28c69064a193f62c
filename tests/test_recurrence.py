import decimal
import random
import sys

import pytest

from flipwait.counting import count_first_occurrence
from flipwait.exact import exact_str
from flipwait.pattern import parse
from flipwait.recurrence import _BLOCK, _DECIMAL_BITS, Recurrence, tap_classes
from flipwait.sequences import fib_order, value, value_strings


def _times_one_minus_z(taps):
    """The taps of (1 - z) * Q(z): the homogeneous form of a step that also adds a constant."""
    coeffs = {1: 1}
    for lag, coeff in taps:
        coeffs[lag] = coeffs.get(lag, 0) + coeff
        coeffs[lag + 1] = coeffs.get(lag + 1, 0) - coeff
    return tuple(sorted(coeffs.items()))


def _random_recurrences(seed: int, count: int):
    """Recurrences of every first-term kind: a +1 tap, a multiplied positive one, none positive.

    Half of them are times (1 - z), as a constant added to every step would
    be, which also gives lags up to 8 and zero coefficients.
    """
    rng = random.Random(seed)
    for _ in range(count):
        lags = sorted(rng.sample(range(1, 8), rng.randint(1, 5)))
        taps = tuple((lag, rng.choice([-3, -2, -1, 0, 1, 2, 3])) for lag in lags)
        if rng.random() < 0.5:
            taps = _times_one_minus_z(taps)
        yield Recurrence(taps), rng


def _reference(rec: Recurrence, head: list[int], stop: int) -> list[int]:
    out = list(head)
    for n in range(len(out), stop):
        out.append(sum(coeff * out[n - lag] for lag, coeff in rec.taps))
    return out


def test_recurrences_are_homogeneous():
    with pytest.raises(TypeError):
        Recurrence(((1, 1),), 1)
    assert not hasattr(Recurrence(((1, 1),)), "const")


def test_extend_matches_the_defining_sum():
    firsts = set()
    for rec, rng in _random_recurrences(3, 400):
        rec.extend([], 0)  # nothing to step, nothing to read
        coeffs = [coeff for _, coeff in rec.taps]
        firsts.add("unit" if 1 in coeffs else "scaled" if max(coeffs) > 1 else "from zero")
        head = [rng.randint(-50, 50) for _ in range(rec.max_lag)]
        values = list(head)
        rec.extend(values, 60)
        assert values == _reference(rec, head, 60), rec
        rec.extend(values, 10)  # a stop below the length appends nothing
        assert len(values) == 60
        with pytest.raises(ValueError, match="reads .* terms back"):
            rec.extend(head[1:], 60)
    assert firsts == {"unit", "scaled", "from zero"}


def test_tap_classes_split_by_coefficient():
    taps = ((1, 1), (2, -1), (3, 4), (4, 1), (5, 0), (6, -2))
    assert tap_classes(taps) == ((-1, -4), (-2,), ((-3, 4), (-5, 0), (-6, -2)))


def test_strings_match_str_for_every_first_term(int_digits):
    int_digits(0)
    crossed = 0
    for rec, rng in _random_recurrences(5, 300):
        head = [rng.choice([0, 0, 5, -7, 2**1100, -(2**1050)]) for _ in range(rec.max_lag)]
        stored = _reference(rec, head, 120)
        assert list(rec.strings(stored, rec.max_lag)) == [str(v) for v in stored], rec
        crossed += any(v.bit_length() > _DECIMAL_BITS for v in stored[rec.max_lag:])
    assert crossed > 100


def test_strings_never_print_negative_zero(int_digits):
    # u_n = -u_(n-2) from 0, 2**1100 reads only zeros at every other step: no
    # positive tap, so the step starts from 0 times that term, which stays +0
    int_digits(0)
    rec = Recurrence(((2, -1),))
    stored = [0, 2**1100]
    rec.extend(stored, 12)
    texts = list(rec.strings(stored, 2))
    assert texts == [str(v) for v in stored] and texts[4] == "0"


@pytest.mark.parametrize("power", [0, 1, 3])
def test_denominator_annihilates_the_series(power):
    # the taps times (1 - z)**power: power 1 is the same step plus a constant
    taps = ((1, 2), (3, -1), (4, 1))
    for _ in range(power):
        taps = _times_one_minus_z(taps)
    rec = Recurrence(taps)
    q = rec.denominator()
    assert len(q) == 5 + power and q[0] == 1
    u = [1, 0, 4, 2, -3, 5, 0][:rec.max_lag]
    rec.extend(u, 80)
    # the coefficients of Q * sum(u_n z**n) vanish once every tap reads a term
    product = [sum(q[i] * u[n - i] for i in range(min(n, len(q) - 1) + 1)) for n in range(80)]
    assert not any(product[len(q) - 1:])


def test_last_terms_match_extend():
    rng = random.Random(7)
    for _ in range(60):
        d = rng.randint(1, 6)
        taps = tuple((lag, rng.choice([-2, -1, 1, 1, 3])) for lag in range(1, d + 1))
        rec = Recurrence(taps)
        u = [rng.randint(-9, 9) for _ in range(d)]
        rec.extend(u, 400)
        for k in (0, 1, d, 57, 399 - d):
            assert rec.last_terms(u[:2 * d - 1], k) == u[k:k + d], (taps, k)


def test_strings_step_exactly_and_yield_in_the_callers_context():
    # a 5-digit context that never traps: a rerun stepped in it would round,
    # and a yield from inside the exact context would make 1/3 raise Inexact
    fib = Recurrence(((1, 1), (2, 1)))
    stored = [0, 1]
    fib.extend(stored, 3000)
    vec = count_first_occurrence(parse("HTTH"), 3000)
    routes = (
        (fib.strings(stored, 2), stored),
        (vec.decimal_strings(), vec.counts),
        (value_strings(fib_order(3), 3000), [value(fib_order(3), n) for n in range(3001)]),
    )
    for texts, ints in routes:
        assert sum(v.bit_length() > _DECIMAL_BITS for v in ints) > 2 * _BLOCK
        got = []
        with decimal.localcontext(decimal.Context(prec=5, traps=[])):
            for text in texts:
                assert decimal.Decimal(1) / 3 == decimal.Decimal("0.33333")
                got.append(text)
        assert got == [str(v) for v in ints]


def test_check_first_passes_every_value_within_the_digit_limit(int_digits, drain):
    # at 640, the lowest limit CPython accepts, the check's bound is 2**2126, just under 10**640
    int_digits(640)
    rec = Recurrence(((1, 1),))
    fits = [10**640 - 1, -(10**640 - 1), 2**2126, 10**640 - 2**2100]
    assert 2**2126 < 10**640 - 2**2100 < 10**640
    assert list(rec.strings(fits, len(fits), check_first=True)) == [str(v) for v in fits]
    with pytest.raises(ValueError) as too_long:
        str(10**640)
    assert drain(rec.strings([1, 10**640], 2, check_first=True)) == ([], str(too_long.value))


def test_pythons_without_the_digit_limit_calls_print_every_value(int_digits, monkeypatch):
    # Pythons before 3.10.7 have neither call and no int -> str limit
    int_digits(0)
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    assert exact_str(10**5000) == str(10**5000)
    rec = Recurrence(((1, 2**64),))
    powers = [2 ** (64 * n) for n in range(300)]  # past 1024 bits from n = 16, past 4300 digits from n = 224
    assert list(rec.strings(powers, 1, check_first=True)) == [str(v) for v in powers]
