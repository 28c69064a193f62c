import pytest

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


def test_iter_values_streams_from_seed():
    gen = iter_values(fib_order(2))
    assert [next(gen) for _ in range(5)] == [(1, 1), (2, 1), (3, 2), (4, 3), (5, 5)]


def test_parse_family_round_trip():
    for f in (fib_order(3), fib_bar(2), fib_two_param(1, 2), fib_tilde(0, 4), alt_g(5)):
        assert parse_family(f.label()) == f


@pytest.mark.parametrize("label", ["nope:1", "fib:x", "fib-bar:", "alt:0", "fib2:-1,2"])
def test_parse_family_rejects_bad_labels(label):
    with pytest.raises(ValueError):
        parse_family(label)


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


def test_ascending_values_resume_one_generator(monkeypatch):
    from itertools import islice

    from flipwait import sequences

    calls = []
    real = sequences.iter_values

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(sequences, "_cache", {})
    monkeypatch.setattr(sequences, "iter_values", counted)
    f = alt_g(12)
    got = [value(f, n) for n in range(401)]
    assert len(calls) == 1
    assert got == [0] * base_index(f) + [v for _, v in islice(real(f), 401 - base_index(f))]
    # the list values() returns is the caller's own copy
    vals = values(f, 400)
    vals[-1] = -1
    assert value(f, 400) == got[400]
    assert len(calls) == 1


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
