import itertools
import json
import random
from fractions import Fraction

import pytest

from flipwait import automaton, exact
from flipwait.automaton import build, feed
from flipwait.cli import main
from flipwait.exact import (
    absorption_times,
    conditional_wait,
    correlation_set,
    expected_wait_conway,
    expected_wait_markov,
)
from flipwait.pattern import Pattern, complement, enumerate_patterns, parse, runs

H, T = 0, 1


def _reference_absorption_times(p: Pattern) -> list[Fraction]:
    """Dense route: Gaussian elimination of c*E_q - sum_a E_delta(q,a) = c over rationals."""
    a = build(p)
    s = len(p)
    c = p.alphabet_size
    m = [[Fraction(0)] * (s + 1) for _ in range(s)]
    for q in range(s):
        m[q][q] += c
        for nxt in a.transitions[q]:
            if nxt < s:
                m[q][nxt] -= 1
        m[q][s] = Fraction(c)
    for col in range(s):
        pivot_row = next(r for r in range(col, s) if m[r][col] != 0)
        m[col], m[pivot_row] = m[pivot_row], m[col]
        for r in range(col + 1, s):
            if m[r][col] != 0:
                scale = m[r][col] / m[col][col]
                for j in range(col, s + 1):
                    m[r][j] -= scale * m[col][j]
    times = [Fraction(0)] * (s + 1)
    for r in range(s - 1, -1, -1):
        acc = m[r][s] - sum(m[r][j] * times[j] for j in range(r + 1, s))
        times[r] = acc / m[r][r]
    return times


def _reference_correlation_set(p: Pattern) -> set[int]:
    s = len(p)
    sym = p.symbols
    return {k for k in range(1, s + 1) if sym[:k] == sym[s - k:]}


def _exhaustive(ranges):
    for c, max_len in ranges:
        for s in range(1, max_len + 1):
            yield from enumerate_patterns(s, c)


@pytest.mark.parametrize(
    "text,expected",
    [("HH", 6), ("HT", 4), ("H", 2), ("HTH", 10), ("THT", 10), ("HHTHT", 32), ("HHTHH", 38)],
)
def test_markov_values(text, expected):
    assert expected_wait_markov(parse(text)) == expected


@pytest.mark.parametrize(
    "text,overlaps",
    [("HH", {1, 2}), ("HT", {2}), ("HTHT", {2, 4}), ("HTH", {1, 3}), ("HHTT", {4})],
)
def test_correlation_set(text, overlaps):
    assert correlation_set(parse(text)) == overlaps


def test_correlation_set_always_contains_full_length():
    for s in range(1, 9):
        for p in enumerate_patterns(s, 2):
            cs = correlation_set(p)
            assert s in cs
            assert all(1 <= k <= s for k in cs)


def test_correlation_set_matches_slicing_definition():
    for p in _exhaustive([(2, 12), (3, 6)]):
        assert correlation_set(p) == _reference_correlation_set(p)


def test_conway_values():
    assert expected_wait_conway(parse("HH")) == 6
    assert expected_wait_conway(parse("HTHT")) == 20
    assert expected_wait_conway(parse("0", 6)) == 6


def test_methods_agree_exhaustively_coin():
    for s in range(1, 11):
        for p in enumerate_patterns(s, 2):
            assert expected_wait_markov(p) == expected_wait_conway(p)


@pytest.mark.parametrize("alphabet", [3, 4, 5, 6])
def test_methods_agree_sampled_die(alphabet):
    rng = random.Random(alphabet)
    for s in range(1, 7):
        for _ in range(25):
            p = Pattern(tuple(rng.randrange(alphabet) for _ in range(s)), alphabet)
            assert expected_wait_markov(p) == expected_wait_conway(p)


def test_methods_and_dispatch_sampled_long_patterns():
    from flipwait.closed_form import dispatch

    rng = random.Random(14)
    for s in (13, 14):
        for _ in range(100):
            p = Pattern(tuple(rng.randrange(2) for _ in range(s)), 2)
            markov = expected_wait_markov(p)
            assert markov == expected_wait_conway(p)
            closed = dispatch(p)
            if closed is not None:
                assert closed == markov


def test_complement_symmetry():
    for s in range(1, 11):
        for p in enumerate_patterns(s, 2):
            assert expected_wait_conway(p) == expected_wait_conway(complement(p))


def test_absorption_times_shape():
    times = absorption_times(parse("HTH"))
    assert times[-1] == 0
    assert times[0] == 10
    assert all(t >= 0 for t in times)


def test_absorption_times_match_dense_elimination_exhaustively():
    for p in _exhaustive([(2, 10), (3, 5), (4, 5), (5, 4)]):
        assert absorption_times(p) == _reference_absorption_times(p), p


def test_absorption_times_match_dense_elimination_sampled():
    rng = random.Random(3)
    for _ in range(300):
        c = rng.choice([2, 3, 6, 10, 100])
        # half the draws stay on two symbols, so long patterns still self-overlap
        used = rng.choice([2, c])
        p = Pattern(tuple(rng.randrange(used) for _ in range(rng.randint(1, 30))), c)
        assert absorption_times(p) == _reference_absorption_times(p), p


def test_long_constant_pattern_chain_solve():
    assert expected_wait_markov(parse("H" * 200)) == 2**201 - 2


def test_large_alphabet_methods_agree_through_cli(capsys):
    assert main(["expect", "0,1,0", "--alphabet", "1000000", "--method", "all", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["agree"] is True
    assert payload["results"]["markov"] == payload["results"]["conway"] == str(10**18 + 10**6)


def test_chain_solve_never_builds_the_table(monkeypatch):
    def boom(p):
        raise AssertionError("dense transition table built")

    monkeypatch.setattr(automaton, "build", boom)
    monkeypatch.setattr(exact, "build", boom, raising=False)
    p = parse("HTHHTHTT")
    assert absorption_times(p)[0] == expected_wait_markov(p) == expected_wait_conway(p)


def test_conditional_wait_base_cases():
    hh = parse("HH")
    assert conditional_wait(hh, ()) == expected_wait_markov(hh)
    assert conditional_wait(hh, hh) == 2
    assert conditional_wait(parse("HHH"), parse("H")) == 13


def _reference_conditional_wait(p: Pattern, given, times: list[Fraction]) -> Fraction:
    """Table route: feed the given stream through the dense automaton."""
    return len(given) + times[feed(build(p), given)]


def test_conditional_wait_matches_table_route_exhaustively():
    cases = 0
    for c, max_s, max_r in ((2, 7, 6), (3, 4, 4)):
        givens = [g for r in range(max_r + 1) for g in itertools.product(range(c), repeat=r)]
        for s in range(1, max_s + 1):
            for p in enumerate_patterns(s, c):
                times = absorption_times(p)
                for given in givens:
                    assert conditional_wait(p, given) == _reference_conditional_wait(p, given, times), (
                        p.text(), given)
                    cases += 1
    assert cases == 46778


def test_conditional_wait_never_builds_the_table(monkeypatch):
    def boom(p):
        raise AssertionError("dense transition table built")

    monkeypatch.setattr(automaton, "build", boom)
    monkeypatch.setattr(exact, "build", boom, raising=False)
    assert conditional_wait(parse("0,1,0", 10**6), (0, 1)) == 999999000001000002


def test_conditional_wait_rejects_alphabet_mismatch():
    with pytest.raises(Exception):
        conditional_wait(parse("HH"), parse("0,1", 3))


def test_prefix_decomposition_identity():
    # E(S) = E(R) + E(S|R) - r for every proper prefix R, all S up to length 8
    for s in range(2, 9):
        for p in enumerate_patterns(s, 2):
            e = expected_wait_markov(p)
            for r in range(1, s):
                prefix = Pattern(p.symbols[:r], 2)
                assert e == expected_wait_markov(prefix) + conditional_wait(p, prefix) - r


def test_prefix_decomposition_identity_sampled_lengths_9_10():
    rng = random.Random(910)
    for s in (9, 10):
        for _ in range(50):
            p = Pattern(tuple(rng.randrange(2) for _ in range(s)), 2)
            e = expected_wait_markov(p)
            for r in range(1, s):
                prefix = Pattern(p.symbols[:r], 2)
                assert e == expected_wait_markov(prefix) + conditional_wait(p, prefix) - r


def test_head_run_conditioning_identities():
    # for S starting with a maximal run of k heads and E = E(S):
    #   i <  k: E(S|H^i T) = E+i+1        and E(S|H^i) = E+i+2-2^(i+1)
    #   i >= k: E(S|H^i T) = E+i+1-2^(k+1) and E(S|H^i) = E+i+2-2^(k+1)
    # the first i >= k form needs the game still open after H^i T, so it
    # only applies when S has at least two runs
    for s in range(1, 9):
        for p in enumerate_patterns(s, 2):
            if p.symbols[0] != H:
                continue
            k = runs(p).runs[0][1]
            e = expected_wait_markov(p)
            nruns = len(runs(p))
            for i in range(0, k + 3):
                given_heads = (H,) * i
                assert conditional_wait(p, given_heads) == (
                    e + i + 2 - 2 ** (i + 1) if i < k else e + i + 2 - 2 ** (k + 1)
                )
                given_tail = (H,) * i + (T,)
                if i < k:
                    assert conditional_wait(p, given_tail) == e + i + 1
                elif nruns >= 2:
                    assert conditional_wait(p, given_tail) == e + i + 1 - 2 ** (k + 1)


def test_results_are_exact_rationals():
    val = expected_wait_markov(parse("HTH"))
    assert isinstance(val, Fraction)
    assert val.denominator == 1
