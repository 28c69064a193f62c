import random

import pytest

from flipwait.recurrence import _DECIMAL_BITS, Recurrence, tap_classes


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
