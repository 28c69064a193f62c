import decimal
import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from flipwait import automaton, cli, counting
from flipwait.automaton import build
from flipwait.counting import (
    CountFamilyMismatch,
    conditional_count,
    conditional_count_vector,
    count_brute,
    count_first_occurrence,
    verify_count_families,
)
from flipwait.pattern import Pattern, as_symbols, enumerate_patterns, parse, runs
from flipwait.recurrence import _DECIMAL_BITS, tap_classes

H, T = 0, 1


def _reference_count_vector(p: Pattern, given, N: int) -> tuple[int, ...]:
    """Full-length route: push every draw after the given stream through the dense table."""
    symbols = as_symbols(given, p.alphabet_size)
    r = len(symbols)
    counts = [0] * (N + 1)
    table = build(p)
    s = len(p)
    state = 0
    for i, sym in enumerate(symbols):
        state = table[state][sym]
        if state == s:
            if i == r - 1 and r <= N:
                counts[r] = 1
            return tuple(counts)
    weights = [0] * s
    weights[state] = 1
    for n in range(r + 1, N + 1):
        nxt = [0] * s
        absorbed = 0
        for q in range(s):
            w = weights[q]
            if not w:
                continue
            for to in table[q]:
                if to == s:
                    absorbed += w
                else:
                    nxt[to] += w
        counts[n] = absorbed
        weights = nxt
    return tuple(counts)


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


def test_conditional_count_reads_a_one_shot_given_once():
    hh = parse("HH")
    for given in ((T,), (H,), (T, H), (H, T, H)):
        for n in range(6):
            expected = conditional_count(hh, given, n)
            assert conditional_count(hh, list(given), n) == expected, (given, n)
            assert conditional_count(hh, iter(given), n) == expected, (given, n)
    assert conditional_count(hh, iter((T,)), 2) == 0


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
            decomposition = runs(p)
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


def test_verify_count_families_records_a_mismatch(monkeypatch):
    from flipwait.sequences import alt_g, series_shift, value

    family = alt_g(3)

    def off_by_one(f, n):  # wrong at one index of one family
        return value(f, n) + (1 if (f, n) == (family, 4) else 0)

    monkeypatch.setattr(counting, "value", off_by_one)
    report = verify_count_families(2, 10)
    n = 4 + series_shift(family)
    dp = count_first_occurrence(parse("HTH"), 10)[n]
    assert not report.ok
    assert report.mismatches == [CountFamilyMismatch("HTH", "alternating=alt:3", n, dp, dp + 1)]


def test_verify_count_family_examples():
    from flipwait.sequences import alt_g, fib_bar, fib_two_param, value

    assert count_first_occurrence(parse("HT"), 6)[6] == 5 == value(fib_bar(1), 4)
    assert count_first_occurrence(parse("HTH"), 4)[4] == 2 == value(fib_two_param(1, 1), 2)
    assert count_first_occurrence(parse("HTHT"), 5)[5] == 2 == value(alt_g(4), 5)


def test_count_vector_matches_full_dp_exhaustive():
    # N = r+s-1, r+s, r+s+1 straddle the end of the s-draw warm-up
    for c, max_s, max_r in ((2, 7, 5), (3, 4, 3), (5, 3, 2)):
        for s in range(1, max_s + 1):
            for p in enumerate_patterns(s, c):
                for r in range(max_r + 1):
                    for given in product(range(c), repeat=r):
                        # every entry of the reference is independent of N, so slice one long run
                        n_max = 3 * s + r + 5
                        full = _reference_count_vector(p, given, n_max)
                        for N in (n_max, 0, r, r + s - 1, r + s, r + s + 1):
                            got = conditional_count_vector(p, given, N)
                            assert got == full[: N + 1], (p.text(), given, N)


def test_count_vector_matches_full_dp_sampled():
    rng = random.Random(5)
    for _ in range(200):
        c = rng.choice([2, 3, 6, 100])
        # half the draws stay on two symbols, so long patterns still self-overlap
        used = rng.choice([2, c])
        p = Pattern(tuple(rng.randrange(used) for _ in range(rng.randint(1, 30))), c)
        tail = tuple(rng.randrange(used) for _ in range(rng.randint(0, 3)))
        given = p.symbols[: rng.randint(0, len(p))] + tail
        got = conditional_count_vector(p, given, 400)
        assert got == _reference_count_vector(p, given, 400), (p, given)


def _first_use_words(s: int, c: int):
    """Words of length s whose symbols first appear in the order 0, 1, 2, ...

    Every word is such a word up to renaming its symbols, which changes
    neither its correlation set nor its counts.
    """
    for symbols in product(range(min(s, c)), repeat=s):
        if all(x <= max(symbols[:i], default=-1) + 1 for i, x in enumerate(symbols)):
            yield Pattern(symbols, c)


def test_count_vector_every_tap_class_matches_full_dp():
    # D's coefficients are +1, -c and 1 - c, so the recurrence's taps are -1,
    # c and c - 1: a +1 tap at c = 2, a multiplied one at c >= 3
    words = [p for s in range(1, 11) for p in enumerate_patterns(s, 2)]
    words += [p for c in (3, 6, 100) for s in range(1, 5) for p in _first_use_words(s, c)]
    reached = set()
    shapes = set()
    for p in words:
        c = p.alphabet_size
        taps = [(j, -d_j) for j, d_j in counting._recurrence_taps(p)]
        reached.update((c, coeff) for _, coeff in taps)
        shapes.add(tuple(bool(cls) for cls in tap_classes(taps)))
        assert count_first_occurrence(p, 60).counts == _reference_count_vector(p, (), 60), p.text()
    assert reached == {(c, coeff) for c in (2, 3, 6, 100) for coeff in (-1, c, c - 1)}
    # every class is both used and skipped: HH has only +1 taps, HT none,
    # HHTHH all three, 0,0 at c = 3 only multiplied ones
    assert {(True, False, False), (False, True, True), (True, True, True), (False, False, True)} <= shapes


def test_large_alphabet_count_matches_full_dp():
    p = parse("0,1,0", 10**5)
    assert count_first_occurrence(p, 8).counts == _reference_count_vector(p, (), 8)


def test_counting_never_builds_the_table(monkeypatch, capsys):
    def boom(p):
        raise AssertionError("dense transition table built")

    monkeypatch.setattr(automaton, "build", boom)
    monkeypatch.setattr(counting, "build", boom, raising=False)
    assert cli.main(["count", "0,1,0", "--alphabet", "1000000", "--upto", "50", "--json"]) == 0
    text = capsys.readouterr().out
    # the output of the table-driven counting DP, pinned by length and digest
    assert '"999999999998999999",\n' in text
    assert len(text) == 7298
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3ec13a796814d60856f9c8c378eae9eeca3ae19d02423573e21d36011007a402"
    )
    assert conditional_count_vector(parse("0,1,0", 10**6), (5, 0, 1), 10) == (
        0, 0, 0, 0, 1, 0, 0, 999999, 999999000000, 999998999999000001, 999998999999000000000001,
    )


def test_decimal_strings_match_str_exhaustive(int_digits):
    # N = 3000 takes most vectors past the decimal switch; identical vectors
    # (a word, its complement and its reversal) share one reference rendering
    int_digits(0)
    reference: dict[tuple[int, ...], list[str]] = {}
    crossed = 0
    for c, max_s in ((2, 8), (3, 4)):
        for s in range(1, max_s + 1):
            for p in enumerate_patterns(s, c):
                for N in (0, s, 3000):
                    vec = count_first_occurrence(p, N)
                    want = reference.get(vec.counts)
                    if want is None:
                        want = reference[vec.counts] = [str(v) for v in vec.counts]
                    assert list(vec.decimal_strings()) == want, (p.text(), N)
                    crossed += vec.counts[-1].bit_length() > _DECIMAL_BITS
    assert crossed > 500


def test_decimal_strings_match_str_sampled(int_digits):
    int_digits(0)
    rng = random.Random(11)
    for _ in range(100):
        c = rng.choice([2, 6, 100])
        # half the draws stay on two symbols, so long patterns still self-overlap
        used = rng.choice([2, c])
        p = Pattern(tuple(rng.randrange(used) for _ in range(rng.randint(1, 24))), c)
        vec = count_first_occurrence(p, 1500)
        assert list(vec.decimal_strings()) == [str(v) for v in vec.counts], p


@pytest.mark.parametrize("word, c", [("HTH", 2), ("HHTHH", 2), ("0,1,0", 6), ("1,0,0,1", 100)])
def test_decimal_strings_digit_limit_boundary(int_digits, drain, word, c):
    # at 640 digits every value prints; at 641 the emitter stops where str(int)
    # does, with CPython's own message, after the same strings
    p = parse(word, c)
    counts = count_first_occurrence(p, 5000).counts
    N = max(n for n, v in enumerate(counts) if 10**639 <= v < 10**640)
    int_digits(640)
    for n_max, fails in ((N, False), (N + 1, True)):
        vec = count_first_occurrence(p, n_max)
        assert vec.counts[-1].bit_length() > _DECIMAL_BITS
        got = drain(vec.decimal_strings())
        assert got == drain(str(v) for v in vec.counts)
        assert (got[1] is not None) == fails
        assert len(got[0]) == n_max + 1 - fails


def test_decimal_strings_leave_the_callers_context_alone(int_digits):
    int_digits(0)
    before = decimal.getcontext()
    texts = count_first_occurrence(parse("HTTH"), 3000).decimal_strings()
    for n, _ in enumerate(texts):
        if n % 500 == 0:
            assert decimal.getcontext() is before
    assert n == 3000


def test_count_vector_carries_its_taps(monkeypatch):
    # one count op derives the recurrence taps once, for the counts and their printing
    calls = []
    real = counting.correlation_set
    monkeypatch.setattr(counting, "correlation_set", lambda p: calls.append(p) or real(p))
    p = parse("HTHHTH")
    vec = count_first_occurrence(p, 3000)
    texts = list(vec.decimal_strings())
    assert len(calls) == 1
    bare = counting.CountVector(p, vec.counts)
    assert bare == vec and hash(bare) == hash(vec) and repr(bare) == repr(vec)
    assert repr(vec) == f"CountVector(pattern={p!r}, counts={vec.counts!r})"
    # a vector built without taps derives them again and prints the same strings
    assert list(bare.decimal_strings()) == texts and len(calls) == 2
