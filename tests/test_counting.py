from fractions import Fraction

import pytest

from flipwait.counting import (
    conditional_count,
    conditional_count_vector,
    count_brute,
    count_first_occurrence,
    verify_count_families,
)
from flipwait.pattern import enumerate_patterns, parse, runs

H, T = 0, 1


def test_known_count_vectors():
    hh = count_first_occurrence(parse("HH"), 8)
    assert hh.counts == (0, 0, 1, 1, 2, 3, 5, 8, 13)
    ht = count_first_occurrence(parse("HT"), 8)
    assert ht.counts[2:] == tuple(n - 1 for n in range(2, 9))
    hth = count_first_occurrence(parse("HTH"), 5)
    assert hth.counts[3:] == (1, 2, 3)


def test_count_vector_basics():
    for s in range(1, 7):
        for p in enumerate_patterns(s, 2):
            vec = count_first_occurrence(p, s + 4)
            assert all(vec[n] == 0 for n in range(s))
            assert vec[s] == 1


def test_negative_N_raises():
    p = parse("HTH")
    with pytest.raises(ValueError, match="N must be nonnegative"):
        count_first_occurrence(p, -1)
    with pytest.raises(ValueError, match="N must be nonnegative"):
        conditional_count_vector(p, (H,), -1)


def test_brute_examples():
    assert count_brute(parse("HH"), 3) == 1  # THH
    assert count_brute(parse("HH"), 4) == 2  # TTHH, HTHH
    assert count_brute(parse("HTH"), 3) == 1


def test_brute_guard():
    with pytest.raises(ValueError):
        count_brute(parse("HH"), 30)
    with pytest.raises(ValueError):
        count_brute(parse("0,1", 8), 9)


def test_dp_matches_brute_force():
    for s in range(1, 7):
        for p in enumerate_patterns(s, 2):
            vec = count_first_occurrence(p, 12)
            for n in range(13):
                assert vec[n] == count_brute(p, n), (p.text(), n)


def test_dp_matches_brute_force_die():
    for p in (parse("0,1", 3), parse("2,2", 3), parse("0,1,0", 3)):
        vec = count_first_occurrence(p, 8)
        for n in range(9):
            assert vec[n] == count_brute(p, n)


def test_partial_mass_monotone_and_bounded():
    # N = 300 is past the mixing point of all four patterns
    for text in ("H", "HH", "HTH", "HHTT"):
        p = parse(text)
        vec = count_first_occurrence(p, 300)
        mass = Fraction(0)
        previous = Fraction(0)
        for n in range(301):
            mass += Fraction(vec[n], 2**n)
            assert previous <= mass <= 1
            previous = mass
        assert mass > 1 - Fraction(1, 10**6)


def test_conditional_count_base_cases():
    hh = parse("HH")
    vec = count_first_occurrence(hh, 10)
    for n in range(11):
        assert conditional_count(hh, (), n) == vec[n]
    assert conditional_count(hh, hh, 2) == 1
    assert conditional_count(hh, hh, 5) == 0  # game already over inside the prefix
    assert conditional_count(hh, (T, H, H), 3) == 1  # occurrence exactly at the end
    assert conditional_count(hh, (H,), 1) == 0  # n below the pattern length
    assert conditional_count(hh, (H, H, H), 4) == 0
    assert conditional_count(hh, (H,), 0) == 0  # n shorter than the given stream


def test_conditional_count_example():
    # for HH: strings of length 4 starting with H with HH only at the end
    assert conditional_count(parse("HH"), (H,), 4) == 1  # HTHH


def test_conditional_count_against_enumeration():
    from itertools import product as iproduct

    for text in ("HH", "HTH", "HHT"):
        p = parse(text)
        needle = "".join("HT"[x] for x in p.symbols)
        for given in ((), (H,), (T,), (H, T), (H, H)):
            prefix = "".join("HT"[x] for x in given)
            for n in range(len(given), 10):
                expected = 0
                if n >= len(p):
                    for tail in iproduct("HT", repeat=n - len(given)):
                        t = prefix + "".join(tail)
                        if t.find(needle) == n - len(p):
                            expected += 1
                assert conditional_count(p, given, n) == expected, (text, given, n)


def test_head_run_count_identities():
    # (i) E_n(S|H^i) = E_n - E_{n-1} - ... - E_{n-i} for i up to the head run
    # (ii) S starting H^k T: E_n(S|H^k T) = E_n - 2E_{n-1} + E_{n-k-1}
    # (iii) S starting H^k T^l H: E_n(S|H^k T^l H) =
    #       E_n - 2E_{n-1} + E_{n-k-l} - E_{n-k-l-1}
    for s in range(1, 9):
        for p in enumerate_patterns(s, 2):
            if p.symbols[0] != H:
                continue
            decomposition = runs(p).runs
            k = decomposition[0][1]
            vec = count_first_occurrence(p, 40)
            e = lambda n: vec[n] if 0 <= n <= 40 else 0
            for n in range(41):
                for i in range(1, k + 1):
                    assert conditional_count(p, (H,) * i, n) == e(n) - sum(
                        e(n - j) for j in range(1, i + 1)
                    )
                if len(decomposition) >= 2:
                    given = (H,) * k + (T,)
                    assert conditional_count(p, given, n) == e(n) - 2 * e(n - 1) + e(n - k - 1)
                if len(decomposition) >= 3:
                    l = decomposition[1][1]
                    given = (H,) * k + (T,) * l + (H,)
                    assert conditional_count(p, given, n) == (
                        e(n) - 2 * e(n - 1) + e(n - k - l) - e(n - k - l - 1)
                    )


def test_verify_count_families_clean():
    report = verify_count_families(3, 40)
    assert report.ok
    assert report.checks > 0


def test_verify_count_family_examples():
    from flipwait.sequences import alt_g, fib_bar, fib_two_param, value

    assert count_first_occurrence(parse("HT"), 6)[6] == 5 == value(fib_bar(1), 4)
    assert count_first_occurrence(parse("HTH"), 4)[4] == 2 == value(fib_two_param(1, 1), 2)
    assert count_first_occurrence(parse("HTHT"), 5)[5] == 2 == value(alt_g(4), 5)
