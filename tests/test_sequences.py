import pytest

from flipwait.identities import corollary_family
from flipwait.recurrence import _DECIMAL_BITS, Recurrence
from flipwait.sequences import (
    SeqFamily,
    alt_g,
    base_index,
    fib_bar,
    fib_bar_variants,
    fib_order,
    fib_tilde,
    fib_two_param,
    gf_coefficients,
    gf_polynomials,
    iter_values,
    parse_family,
    series_shift,
    value,
    value_strings,
    values,
)

ALL_FAMILIES = (
    [fib_order(k) for k in range(1, 9)]
    + [fib_bar(k) for k in range(1, 9)]
    + [fib_two_param(k, m) for k in range(0, 5) for m in range(0, 5)]
    + [fib_tilde(k, m) for k in range(0, 5) for m in range(0, 5)]
    + [alt_g(s) for s in range(1, 13)]
)


def test_fib_order_2_is_fibonacci():
    assert [value(fib_order(2), n) for n in range(1, 8)] == [1, 1, 2, 3, 5, 8, 13]
    assert value(fib_order(2), 0) == 0 and value(fib_order(2), -5) == 0


def test_fib_bar_1_is_n_plus_1():
    assert all(value(fib_bar(1), n) == n + 1 for n in range(0, 50))


def test_fib_bar_2_is_fibonacci_minus_1():
    fib = {0: 0, 1: 1}
    for i in range(2, 210):
        fib[i] = fib[i - 1] + fib[i - 2]
    assert all(value(fib_bar(2), n) == fib[n + 2] - 1 for n in range(0, 200))


def test_fib_bar_3_small_values():
    # sum of fib:3 values 0,0,1,1 through n=3
    assert value(fib_bar(3), 3) == 2
    assert fib_bar_variants(3, 3) == (2, 2)


def test_fib_bar_three_definitions_agree():
    for k in range(1, 9):
        for n in range(-2, 201):
            expected = value(fib_bar(k), n)
            two_term, partial = fib_bar_variants(k, n)
            assert two_term == expected
            assert partial == expected


def test_fib_bar_variants_example():
    assert fib_bar_variants(2, 5) == (12, 12)
    assert fib_bar_variants(1, 9) == (10, 10)


def test_alt_recurrence_values_family_form():
    from flipwait.sequences import alt_recurrence_values

    assert alt_recurrence_values(fib_bar(2), 5) == (12, 12)
    with pytest.raises(ValueError):
        alt_recurrence_values(fib_order(2), 5)


def test_two_param_reductions():
    # k = 0 reduces to the order-(m+1) family shifted by one
    for m in range(0, 6):
        for n in range(-2, 200):
            assert value(fib_two_param(0, m), n) == value(fib_order(m + 1), n + 1)
    # m = 0 reduces to fib-bar
    for k in range(1, 7):
        for n in range(-2, 200):
            assert value(fib_two_param(k, 0), n) == value(fib_bar(k), n)


def test_tilde_reductions():
    fib = {0: 0, 1: 1}
    for i in range(2, 210):
        fib[i] = fib[i - 1] + fib[i - 2]
    for n in range(-1, 200):
        assert value(fib_tilde(0, 0), n) == fib[n + 2]
    for k in range(0, 6):
        for n in range(-2, 200):
            assert value(fib_tilde(k, 0), n) == value(fib_two_param(k, 1), n + 1)


def test_alternating_reductions():
    # length-3 alternating counts match the (1,1) two-parameter family
    for n in range(0, 200):
        assert value(alt_g(3), n) == value(fib_two_param(1, 1), n - 2)
    # length-4 alternating counts match the (1,1) tilde family
    for n in range(0, 200):
        assert value(alt_g(4), n) == value(fib_tilde(1, 1), n - 3)
    # length-2 alternating counts match fib-bar order 1
    for n in range(0, 200):
        assert value(alt_g(2), n) == value(fib_bar(1), n - 2)


def test_base_and_seed():
    for f in ALL_FAMILIES:
        base = base_index(f)
        assert value(f, base) == 1
        assert value(f, base - 1) == 0
        assert value(f, base - 7) == 0


def test_values_nonnegative_and_fib_monotone():
    for f in ALL_FAMILIES:
        assert all(v >= 0 for v in values(f, base_index(f) + 120))
    for k in range(1, 9):
        vals = values(fib_order(k), 300)
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_gf_matches_recurrence_for_all_families():
    for f in ALL_FAMILIES:
        shift = series_shift(f)
        coeffs = gf_coefficients(f, 200)
        for n in range(201):
            assert coeffs[n] == value(f, n - shift), (f.label(), n)


def test_gf_known_prefixes():
    assert gf_coefficients(fib_order(2), 6) == [0, 0, 1, 1, 2, 3, 5]
    assert gf_coefficients(fib_bar(1), 6) == [0, 0, 1, 2, 3, 4, 5]
    # length-3 alternating: x^3(1+x)/(1 - x - x^2 - x^4)
    num, den = gf_polynomials(alt_g(3))
    assert num == [0, 0, 0, 1, 1]
    assert den == [1, -1, -1, 0, -1]
    assert gf_coefficients(alt_g(3), 7) == [0, 0, 0, 1, 2, 3, 5, 9]


def test_iter_values_streams_from_seed(monkeypatch):
    from flipwait import sequences

    gen = iter_values(fib_order(2))
    assert [next(gen) for _ in range(5)] == [(1, 1), (2, 1), (3, 2), (4, 3), (5, 5)]
    # past what the memo held when the stream started: a seed at n = -1 and one above 0
    monkeypatch.setattr(sequences, "_cache", {})
    for f in (fib_two_param(0, 0), alt_g(7)):
        base, shift = base_index(f), series_shift(f)
        value(f, base + 3)
        gen = iter_values(f)
        want = gf_coefficients(f, base + shift + 199)[base + shift:]
        assert [next(gen) for _ in range(200)] == list(enumerate(want, base)), f


def test_parse_family_round_trip():
    for f in (fib_order(3), fib_bar(2), fib_two_param(1, 2), fib_tilde(0, 4), alt_g(5)):
        assert parse_family(f.label()) == f


@pytest.mark.parametrize("label", ["nope:1", "fib:x", "fib-bar:", "alt:0", "fib2:-1,2"])
def test_parse_family_rejects_bad_labels(label):
    with pytest.raises(ValueError):
        parse_family(label)


@pytest.mark.parametrize("label, message", [
    ("fib2:1", "fib2 needs 2 parameters (k,m), got 1"),
    ("fib-tilde:1,2,3", "fib-tilde needs 2 parameters (k,m), got 3"),
    ("alt:", "alt needs 1 parameter (s), got 0"),
    ("fib:1,2", "fib needs 1 parameter (k), got 2"),
    ("fib-bar:", "fib-bar needs 1 parameter (k), got 0"),
])
def test_parse_family_counts_parameters_first(label, message):
    with pytest.raises(ValueError) as exc:
        parse_family(label)
    assert str(exc.value) == message


def test_family_validation():
    with pytest.raises(ValueError):
        fib_order(0)
    with pytest.raises(ValueError):
        fib_two_param(-1, 0)
    with pytest.raises(ValueError):
        SeqFamily("alt", (0,))


def test_memoization_is_consistent():
    f = fib_order(3)
    first = values(f, 50)
    second = values(f, 30)
    assert first[:31 - base_index(f) + 1][: len(second)] == second
    assert value(f, 50) == first[-1]


def test_values_concurrent_fill():
    import threading

    f = fib_tilde(2, 3)
    results = []
    threads = [threading.Thread(target=lambda: results.append(values(f, 400))) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 6
    assert all(r == results[0] for r in results)


def test_ascending_values_step_each_value_once(monkeypatch):
    from flipwait import sequences

    appended = []
    real = Recurrence.extend

    def counted(self, values, stop):
        before = len(values)
        real(self, values, stop)
        appended.append(len(values) - before)

    monkeypatch.setattr(sequences, "_cache", {})
    monkeypatch.setattr(Recurrence, "extend", counted)
    f = alt_g(12)
    got = [value(f, n) for n in range(401)]
    # the seed is stored, every later value is stepped exactly once
    assert sum(appended) == 400 - base_index(f)
    assert got == gf_coefficients(f, 400)
    # the list values() returns is the caller's own copy
    vals = values(f, 400)
    vals[-1] = -1
    assert value(f, 400) == got[400]
    assert sum(appended) == 400 - base_index(f)


def test_ascending_values_threads_share_one_generator(monkeypatch):
    import sys
    import threading

    from flipwait import sequences

    monkeypatch.setattr(sequences, "_cache", {})
    f = fib_two_param(3, 2)
    expected = gf_coefficients(f, 600)[series_shift(f):]
    results = [None] * 8

    def climb(i):
        results[i] = [value(f, n) for n in range(600 - series_shift(f) + 1)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=climb, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(r == expected for r in results)


# criterion 8's grid: the families behind id1, id2, id3 and alt
CRITERION_8_FAMILIES = [corollary_family(which, params)[0] for which, params in (
    [("id1", (k,)) for k in range(1, 9)]
    + [("id2", (k, m)) for k in range(1, 6) for m in range(1, 6)]
    + [("id3", (k, m)) for k in range(1, 6) for m in range(1, 6)]
    + [("alt", (s,)) for s in range(1, 13)]
)]


def test_value_strings_match_str_criterion_8_grid(int_digits):
    int_digits(0)
    crossed = 0
    for f in CRITERION_8_FAMILIES:
        value(f, 6000)  # fill the memo in one pass before reading it termwise
        want = [str(value(f, n)) for n in range(6001)]
        assert list(value_strings(f, 6000)) == want, f
        crossed += value(f, 6000).bit_length() > _DECIMAL_BITS
    assert crossed == len(CRITERION_8_FAMILIES) - 3  # fib:1, alt:1 and alt:2 grow at most linearly


def test_value_strings_match_str_other_families(int_digits):
    # fib-bar adds 1 every step; k = 0 or m = 0 puts the fib2/fib-tilde seed at n = -1
    int_digits(0)
    others = [f for f in ALL_FAMILIES if f not in CRITERION_8_FAMILIES]
    crossed = 0
    for f in others:
        value(f, 3000)
        want = [str(value(f, n)) for n in range(3001)]
        assert list(value_strings(f, 3000)) == want, f
        crossed += value(f, 3000).bit_length() > _DECIMAL_BITS
    assert crossed == len(others) - 3  # fib-bar:1, fib2:0,0 and fib2:1,0 grow at most linearly


@pytest.mark.parametrize("f", [fib_order(2), fib_bar(3), fib_tilde(0, 0), alt_g(5)])
def test_value_strings_digit_limit_boundary(int_digits, drain, f):
    # at 640 digits every value prints; at 641 the emitter stops where str(int)
    # does, with CPython's own message, after the same strings
    N = max(n for n in range(5000) if 10**639 <= value(f, n) < 10**640)
    int_digits(640)
    for upto, fails in ((N, False), (N + 1, True)):
        got = drain(value_strings(f, upto))
        assert got == drain(str(value(f, n)) for n in range(upto + 1))
        assert (got[1] is not None) == fails
        assert len(got[0]) == upto + 1 - fails


def test_value_strings_rejects_negative_upto():
    with pytest.raises(ValueError, match="N must be nonnegative, got -3"):
        value_strings(fib_order(2), -3)
    assert list(value_strings(fib_order(2), 0)) == ["0"]


def test_recurrence_strings_checks_the_last_stored_value(int_digits):
    int_digits(0)
    stored = [value(fib_order(2), n) for n in range(2000)]
    fib = Recurrence(((1, 1), (2, 1)))
    assert list(fib.strings(stored, 2)) == [str(v) for v in stored]
    stored[-1] += 1
    texts = fib.strings(stored, 2)
    with pytest.raises(ArithmeticError, match="n = 1999"):
        list(texts)


def test_recurrence_strings_every_tap_class(int_digits, drain):
    # two +1 taps, two -1 taps, a 3 and a -2 and a constant, run as plain ints
    taps = ((1, 3), (2, 1), (3, -1), (4, 1), (5, -2), (6, -1))
    const = 5
    rec = Recurrence(taps, const)
    stored = [2, -1, 0, 7, 3, 1]
    for n in range(6, 1500):
        stored.append(const + sum(coeff * stored[n - lag] for lag, coeff in taps))
    assert stored[-1].bit_length() > 2 * _DECIMAL_BITS
    int_digits(0)
    assert list(rec.strings(stored, 6)) == [str(v) for v in stored]
    # at 640 digits the same strings come out, then CPython's own error
    int_digits(640)
    first_over = min(n for n, v in enumerate(stored) if abs(v) >= 10**640)
    assert stored[first_over - 1].bit_length() > _DECIMAL_BITS
    got = drain(rec.strings(stored, 6))
    assert got == drain(str(v) for v in stored)
    assert len(got[0]) == first_over and got[1] is not None
