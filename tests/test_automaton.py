from itertools import product

import pytest

from flipwait.automaton import build, dump, failure_links, match
from flipwait.pattern import enumerate_patterns, parse

H, T = 0, 1


def _feed(a, symbols) -> int:
    """Run a symbol sequence through the table from the start state."""
    q = 0
    for sym in symbols:
        q = a.transitions[q][sym]
    return q


def test_hand_traced_tables():
    hh = build(parse("HH"))
    assert hh.transitions == ((1, 0), (2, 0), (2, 2))

    ht = build(parse("HT"))
    # a trailing H is still a prefix, so state 1 stays on H
    assert ht.transitions == ((1, 0), (1, 2), (2, 2))

    hth = build(parse("HTH"))
    assert hth.transitions[2] == (3, 0)
    assert hth.transitions[3] == (3, 3)


def test_table_has_one_row_per_state_and_one_column_per_symbol():
    a = build(parse("HH"))
    assert a.transitions[1][T] == 0
    assert a.transitions[2][H] == 2 and a.transitions[2][T] == 2
    assert len(a.transitions) == a.accept_state + 1 == 3
    assert all(len(row) == a.alphabet_size == 2 for row in a.transitions)


def test_htH_stay_state():
    a = build(parse("HTH"))
    assert a.transitions[1][H] == 1


def test_feeding_pattern_reaches_accept():
    for s in range(1, 9):
        for p in enumerate_patterns(s, 2):
            a = build(p)
            assert _feed(a, p.symbols) == s


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


def test_match_agrees_with_the_table():
    # the KMP walk reaches the table's state and stops on the first accept
    for c, max_s, max_r in ((2, 5, 7), (3, 3, 4)):
        for s in range(1, max_s + 1):
            for p in enumerate_patterns(s, c):
                a, fail = build(p), failure_links(p)
                for r in range(max_r + 1):
                    for stream in product(range(c), repeat=r):
                        states = [_feed(a, stream[:i]) for i in range(r + 1)]
                        end = next((i for i, q in enumerate(states) if q == s), r)
                        assert match(p, fail, stream) == (states[end], end), (p.text(), stream)


def test_dump_is_aligned_text():
    text = dump(build(parse("HTH")))
    lines = text.splitlines()
    assert lines[0].startswith("state |")
    assert lines[-1].lstrip().startswith("*3")
