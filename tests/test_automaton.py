import pytest

from flipwait.automaton import build, dump, failure_links, feed, step
from flipwait.pattern import enumerate_patterns, parse

H, T = 0, 1


def test_hand_traced_tables():
    hh = build(parse("HH"))
    assert hh.transitions == ((1, 0), (2, 0), (2, 2))

    ht = build(parse("HT"))
    # a trailing H is still a prefix, so state 1 stays on H
    assert ht.transitions == ((1, 0), (1, 2), (2, 2))

    hth = build(parse("HTH"))
    assert hth.transitions[2] == (3, 0)
    assert hth.transitions[3] == (3, 3)


def test_step_checks_ranges():
    a = build(parse("HH"))
    assert step(a, 1, T) == 0
    assert step(a, 2, H) == 2 and step(a, 2, T) == 2
    with pytest.raises(IndexError):
        step(a, 3, H)
    with pytest.raises(IndexError):
        step(a, 0, 2)


def test_htH_stay_state():
    a = build(parse("HTH"))
    assert step(a, 1, H) == 1


def test_feeding_pattern_reaches_accept():
    for s in range(1, 9):
        for p in enumerate_patterns(s, 2):
            a = build(p)
            assert feed(a, p.symbols) == s


def _longest_prefix_suffix(word, pattern_symbols):
    for k in range(min(len(word), len(pattern_symbols)), -1, -1):
        if k <= len(pattern_symbols) and tuple(word[len(word) - k:]) == pattern_symbols[:k]:
            return k
    return 0


@pytest.mark.parametrize("alphabet", [2, 3])
def test_transitions_match_brute_force_definition(alphabet):
    # delta(q, a) must be the longest suffix of prefix_q + a that is a prefix
    import random

    from flipwait.pattern import Pattern

    lengths = range(1, 13) if alphabet == 2 else range(1, 7)
    for s in lengths:
        rng = random.Random(s * 1000 + alphabet)
        for _ in range(20):
            symbols = tuple(rng.randrange(alphabet) for _ in range(s))
            a = build(Pattern(symbols, alphabet))
            for q in range(s):
                for sym in range(alphabet):
                    word = list(symbols[:q]) + [sym]
                    assert a.transitions[q][sym] == _longest_prefix_suffix(word, symbols)


def test_transitions_never_skip_ahead():
    for s in range(1, 10):
        for p in enumerate_patterns(s, 2):
            a = build(p)
            for q in range(s):
                for sym in range(2):
                    assert a.transitions[q][sym] <= q + 1
                assert a.transitions[q][p.symbols[q]] == q + 1


@pytest.mark.parametrize("alphabet,max_len", [(2, 10), (3, 6)])
def test_failure_links_are_longest_proper_borders(alphabet, max_len):
    for s in range(1, max_len + 1):
        for p in enumerate_patterns(s, alphabet):
            sym = p.symbols
            expected = [0] + [
                max(k for k in range(q) if sym[:k] == sym[q - k:q]) for q in range(1, s + 1)
            ]
            assert failure_links(p) == expected


def test_dump_is_aligned_text():
    text = dump(build(parse("HTH")))
    lines = text.splitlines()
    assert lines[0].startswith("state |")
    assert lines[-1].lstrip().startswith("*3")
