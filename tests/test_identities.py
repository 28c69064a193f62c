from fractions import Fraction
from itertools import product

import pytest

from flipwait import identities
from flipwait.counting import count_first_occurrence
from flipwait.exact import expected_wait_markov
from flipwait.identities import (
    _series,
    corollary_family,
    default_truncation,
    partial_expectation,
    tail_bound,
    verify_corollary,
)
from flipwait.pattern import enumerate_patterns, parse
from flipwait.sequences import (
    _recurrence,
    alt_g,
    base_index,
    fib_order,
    fib_tilde,
    fib_two_param,
    series_shift,
    value,
)

EPS = Fraction(1, 10**9)


def _reference_series(masses, c: int, s: int) -> tuple[Fraction, Fraction]:
    """The plain definitions: sum(n*m_n/c**n) and (1 - sum(m_n/c**n)) * (N + s*c**s)."""
    N = len(masses) - 1
    partial = sum((Fraction(n * m, c**n) for n, m in enumerate(masses)), Fraction(0))
    absorbed = sum((Fraction(m, c**n) for n, m in enumerate(masses)), Fraction(0))
    return partial, (1 - absorbed) * (N + s * c**s)


def _check_pattern_series(p, Ns):
    counts = count_first_occurrence(p, max(Ns)).counts
    for N in Ns:
        partial, bound = _reference_series(counts[: N + 1], p.alphabet_size, len(p))
        assert partial_expectation(p, N) == partial, (p.text(), N)
        assert tail_bound(p, N) == bound, (p.text(), N)


def test_series_matches_reference_on_coin_words():
    for s in range(1, 9):
        for p in enumerate_patterns(s, 2):
            _check_pattern_series(p, sorted({0, s - 1, s, 3 * s, 400}))


def test_series_matches_reference_on_die_words():
    for c in (3, 6):
        for s in range(1, 4):
            for p in enumerate_patterns(s, c):
                _check_pattern_series(p, (0, 50))


@pytest.mark.parametrize("which,params", [
    ("id1", (3,)), ("id1bar", (3,)), ("id2", (2, 3)), ("id3", (5, 5)), ("alt", (12,)),
])
def test_series_matches_reference_on_corollaries(which, params):
    family, target = corollary_family(which, params)
    shift = series_shift(family)
    s = base_index(family) + shift
    masses = [value(family, n - shift) for n in range(4001)]
    for N in (0, 2, 400, 4000):
        partial, bound = _reference_series(masses[: N + 1], 2, s)
        check = verify_corollary(which, params, N)
        assert (check.partial, check.bound, check.gap) == (partial, bound, abs(target - partial)), N
        assert tail_bound(family, N) == bound, N


def test_series_rejects_bad_truncation():
    with pytest.raises(ValueError, match="N must be nonnegative"):
        verify_corollary("id1", (2,), -1)
    with pytest.raises(ValueError, match="N must be nonnegative"):
        tail_bound(fib_order(2), -1)
    with pytest.raises(ValueError, match="expected 4 masses"):
        _series([0, 1], 2, 1, 3)


def test_partial_expectation_hand_sum():
    assert partial_expectation(parse("HH"), 3) == Fraction(7, 8)


def test_partial_expectation_single_face_closed_form():
    p = parse("H")
    for N in (1, 5, 10, 40):
        assert partial_expectation(p, N) == 2 - Fraction(N + 2, 2**N)


def test_partial_expectation_converges_to_exact():
    assert abs(partial_expectation(parse("HT"), 200) - 4) < Fraction(1, 10**50)


def test_tail_bound_single_face_is_exact_tail():
    p = parse("H")
    for N in (5, 10, 20):
        assert tail_bound(p, N) == Fraction(N + 2, 2**N)


def test_tail_bound_magnitudes():
    assert tail_bound(parse("HH"), 100) < Fraction(1, 10**6)
    assert tail_bound(parse("HH"), 100) > Fraction(1, 10**9)  # true tail is ~9e-8
    assert tail_bound(parse("HT"), 50) < Fraction(1, 10**10)


def test_gap_below_tail_bound_and_monotone():
    for s in range(1, 8):
        for p in list(enumerate_patterns(s, 2))[:: max(1, 2**s // 8)]:
            e = expected_wait_markov(p)
            gaps = []
            for N in (40, 80, 160):
                partial = partial_expectation(p, N)
                gap = e - partial
                assert 0 <= gap <= tail_bound(p, N)
                gaps.append(gap)
            assert gaps[0] > gaps[1] > gaps[2]


def test_family_tail_bound():
    assert tail_bound(fib_order(1), 10) == Fraction(12, 1024)
    assert tail_bound(alt_g(2), 60) < Fraction(1, 10**10)


def test_corollary_targets_match_closed_forms():
    from flipwait.closed_form import wait_alternating, wait_single_run, wait_two_runs

    for k in range(1, 9):
        assert corollary_family("id1", (k,))[1] == wait_single_run(k)
        assert corollary_family("id1bar", (k,))[1] == 2 ** (k + 1) == wait_two_runs(k, 1)
    for s in range(1, 13):
        assert corollary_family("alt", (s,))[1] == wait_alternating(s)
    assert corollary_family("id2", (2, 1))[1] == 18
    assert corollary_family("id3", (1, 1))[1] == 20


def test_corollary_parameter_validation():
    with pytest.raises(ValueError):
        verify_corollary("id2", (0, 1), 100)
    with pytest.raises(ValueError):
        verify_corollary("nope", (1,), 100)


def test_id1_with_unit_k_is_geometric_sum():
    check = verify_corollary("id1", (1,), 37)
    assert check.partial == 2 - Fraction(39, 2**37)
    assert check.target == 2


def test_id1_k2_gap_magnitude_at_n300():
    check = verify_corollary("id1", (2,), 300)
    assert Fraction(1, 10**26) < check.gap < Fraction(1, 10**25)


def test_corollaries_certified_at_default_truncation():
    # the certified claim: |partial - target| < tail bound, at any truncation
    cases = (
        [("id1", (k,)) for k in range(1, 9)]
        + [("id1bar", (k,)) for k in range(1, 9)]
        + [("id2", (k, m)) for k in range(1, 6) for m in range(1, 6)]
        + [("id3", (k, m)) for k in range(1, 6) for m in range(1, 6)]
        + [("alt", (s,)) for s in range(1, 13)]
    )
    for which, params in cases:
        check = verify_corollary(which, params, 400)
        assert check.gap <= check.bound, (which, params)
        assert check.certified


def test_corollaries_converge_at_sufficient_truncation():
    # truncation scaled to the target magnitude: past the mixing point the
    # partial sums land within 1e-9 of the closed-form limits
    cases = (
        [("id1", (k,)) for k in range(1, 9)]
        + [("id1bar", (k,)) for k in range(1, 7)]
        + [("id2", (k, m)) for k in range(1, 5) for m in range(1, 5) if k + m <= 6]
        + [("id3", (k, m)) for k in range(1, 5) for m in range(1, 5) if k + m <= 5]
        + [("alt", (s,)) for s in range(1, 9)]
    )
    for which, params in cases:
        _, target = corollary_family(which, params)
        N = max(400, 34 * int(target))
        check = verify_corollary(which, params, N)
        assert check.gap < EPS, (which, params, float(check.gap))
        assert check.gap <= check.bound


def test_default_truncation_floor():
    assert default_truncation("id1", (1,)) == 200
    assert default_truncation("id1", (8,)) == 400
    assert default_truncation("alt", (12,)) == 600


# The jump (the recurrence's last d terms) against the Horner pass, which
# _reference_series pins above, on both sides of the crossover N = cut.


def _cut(d: int) -> int:
    return identities._JUMP_PER_DEGREE * d


def _check_jump_on_words(words):
    for p in words:
        cut = _cut(len(p))
        counts = count_first_occurrence(p, 2 * cut).counts
        for N in (cut - 1, cut, cut + 1, 2 * cut):
            partial, bound = _series(list(counts[: N + 1]), p.alphabet_size, len(p), N)
            assert partial_expectation(p, N) == partial, (p.text(), p.alphabet_size, N)
            assert tail_bound(p, N) == bound, (p.text(), p.alphabet_size, N)


def test_jump_matches_horner_on_coin_words():
    _check_jump_on_words([p for s in range(1, 8) for p in enumerate_patterns(s, 2)])


def test_jump_matches_horner_on_die_words():
    words = [p for c in (3, 6) for s in range(1, 4) for p in enumerate_patterns(s, c)]
    # at c = 100 the faces 0, 1 and 99 give every border structure a word of length <= 3 has
    words += [parse(",".join(map(str, w)), 100) for s in range(1, 4) for w in product((0, 1, 99), repeat=s)]
    _check_jump_on_words(words)


def _degree(family) -> int:
    """deg Q of the family's recurrence: its max lag."""
    return len(_recurrence(family).denominator()) - 1


def _horner_family(family, Ns) -> dict:
    shift = series_shift(family)
    s = base_index(family) + shift
    masses = [value(family, n - shift) for n in range(max(Ns) + 1)]
    return {N: _series(masses[: N + 1], 2, s, N) for N in Ns}


CRITERION_8 = (
    [("id1", (k,)) for k in range(1, 9)]
    + [("id1bar", (k,)) for k in range(1, 9)]
    + [("id2", (k, m)) for k in range(1, 6) for m in range(1, 6)]
    + [("id3", (k, m)) for k in range(1, 6) for m in range(1, 6)]
    + [("alt", (s,)) for s in range(1, 13)]
)


def test_jump_matches_horner_on_criterion_8_grid():
    for which, params in CRITERION_8:
        family, _ = corollary_family(which, params)
        cut = _cut(_degree(family))
        for N, (partial, bound) in _horner_family(family, (cut - 1, cut + 1, 4000)).items():
            check = verify_corollary(which, params, N)
            assert (check.partial, check.bound) == (partial, bound), (which, params, N)
            assert tail_bound(family, N) == bound, (which, params, N)


def test_jump_matches_horner_on_degenerate_two_parameter_families():
    for make in (fib_two_param, fib_tilde):
        for k, m in ((0, 0), (0, 1), (0, 3), (2, 0), (3, 0)):
            family = make(k, m)
            cut = _cut(_degree(family))
            for N, (_, bound) in _horner_family(family, (cut - 1, cut, 3 * cut + 7)).items():
                assert tail_bound(family, N) == bound, (family.label(), N)


def test_series_makes_one_count_call_on_each_side_of_the_crossover(monkeypatch):
    # perfbench's tracer wraps identities' own binding of count_first_occurrence
    calls = []
    real = identities.count_first_occurrence

    def counted(p, N):
        calls.append(N)
        return real(p, N)

    monkeypatch.setattr(identities, "count_first_occurrence", counted)
    p = parse("HTTH")
    cut = _cut(len(p))
    for N, asked in ((cut - 1, cut - 1), (cut, 2 * len(p) - 1), (10 * cut, 2 * len(p) - 1)):
        calls.clear()
        partial_expectation(p, N)
        assert calls == [asked], N
        calls.clear()
        tail_bound(p, N)
        assert calls == [asked], N


def test_family_sums_leave_the_family_memo_alone(monkeypatch):
    # the memo is never evicted, so a sum that filled it would keep every
    # coefficient it stepped for the life of the process
    from flipwait import sequences

    monkeypatch.setattr(sequences, "_cache", {})
    for which, params in (("id3", (5, 5)), ("id1bar", (3,)), ("alt", (12,))):
        family, _ = corollary_family(which, params)
        for N in (50, _cut(_degree(family)) + 1):
            verify_corollary(which, params, N)
            tail_bound(family, N)
    assert sequences._cache == {}


# Large N, against closed forms that share nothing with either route.
BIG_N = 10**5


def test_single_face_partial_sum_at_large_n():
    assert partial_expectation(parse("H"), BIG_N) == 2 - Fraction(BIG_N + 2, 2**BIG_N)


def test_single_face_tail_bound_is_the_exact_tail_at_large_n():
    assert tail_bound(parse("H"), BIG_N) == Fraction(BIG_N + 2, 2**BIG_N)


def test_id1_with_unit_k_is_geometric_sum_at_large_n():
    check = verify_corollary("id1", (1,), BIG_N)
    assert check.partial == 2 - Fraction(BIG_N + 2, 2**BIG_N)
    assert check.gap == check.bound == Fraction(BIG_N + 2, 2**BIG_N)
    assert check.certified
