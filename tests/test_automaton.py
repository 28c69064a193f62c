from itertools import product

import pytest

from flipwait.automaton import build, dump, failure_links, match
from flipwait.pattern import enumerate_patterns, parse

H, T = 0, 1


def _feed(table, symbols) -> int:
    """Run a symbol sequence through the table from the start state."""
    q = 0
    for sym in symbols:
        q = table[q][sym]
    return q


def test_hand_traced_tables():
    assert build(parse("HH")) == ((1, 0), (2, 0), (2, 2))

    # a trailing H is still a prefix, so state 1 stays on H
    assert build(parse("HT")) == ((1, 0), (1, 2), (2, 2))

    hth = build(parse("HTH"))
    assert hth[2] == (3, 0)
    assert hth[3] == (3, 3)


def test_table_has_one_row_per_state_and_one_column_per_symbol():
    table = build(parse("HH"))
    assert table[1][T] == 0
    assert table[2][H] == 2 and table[2][T] == 2
    assert len(table) == len("HH") + 1 == 3
    assert all(len(row) == 2 for row in table)


def test_htH_stay_state():
    assert build(parse("HTH"))[1][H] == 1


def test_feeding_pattern_reaches_accept():
    for s in range(1, 9):
        for p in enumerate_patterns(s, 2):
            assert _feed(build(p), p.symbols) == s


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
            table = build(Pattern(symbols, alphabet))
            for q in range(s):
                for sym in range(alphabet):
                    word = list(symbols[:q]) + [sym]
                    assert table[q][sym] == _longest_prefix_suffix(word, symbols)


def test_transitions_never_skip_ahead():
    for s in range(1, 10):
        for p in enumerate_patterns(s, 2):
            table = build(p)
            for q in range(s):
                for sym in range(2):
                    assert table[q][sym] <= q + 1
                assert table[q][p.symbols[q]] == q + 1


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
                table, fail = build(p), failure_links(p)
                for r in range(max_r + 1):
                    for stream in product(range(c), repeat=r):
                        states = [_feed(table, stream[:i]) for i in range(r + 1)]
                        end = next((i for i, q in enumerate(states) if q == s), r)
                        assert match(p, fail, stream) == (states[end], end), (p.text(), stream)


# (word, alphabet size) -> the full text `dump` prints for its table
DUMPS = {
    ("HTH", 2): "\n".join([
        "state |  H  T",
        "-------------",
        "    0 |  1  0",
        "    1 |  1  2",
        "    2 |  3  0",
        "   *3 |  3  3",
    ]),
    # two-digit headers: every cell stays 2 wide
    ("0,10,0", 11): "\n".join([
        "state |  0  1  2  3  4  5  6  7  8  9 10",
        "----------------------------------------",
        "    0 |  1  0  0  0  0  0  0  0  0  0  0",
        "    1 |  1  0  0  0  0  0  0  0  0  0  2",
        "    2 |  3  0  0  0  0  0  0  0  0  0  0",
        "   *3 |  3  3  3  3  3  3  3  3  3  3  3",
    ]),
    # three-digit headers widen every cell to 3
    ("0,100,0", 101): "\n".join([
        "state |" + "".join(f" {h:>3}" for h in range(101)),
        "-" * 411,
        "    0 |   1" + "   0" * 100,
        "    1 |   1" + "   0" * 99 + "   2",
        "    2 |   3" + "   0" * 100,
        "   *3 |" + "   3" * 101,
    ]),
}


def test_dump_is_aligned_text():
    for (text, c), expected in DUMPS.items():
        assert dump(build(parse(text, c))) == expected, (text, c)
    # the state column widens with the accept state's label
    assert dump(build(parse("H" * 10000))).splitlines()[-1] == "*10000 | 10000 10000"


@pytest.mark.parametrize("text, c", [("H" * 100, 2), ("H" * 10000, 2), ("0,100,0", 101)],
                         ids=["H*100", "H*10000", "0,100,0"])
def test_dump_lines_up_entries_and_labels_of_any_width(text, c):
    # 3-digit entries widen every cell, a 6-character accept label the header's state column
    lines = dump(build(parse(text, c))).splitlines()
    assert len({len(line) for line in lines}) == 1
    assert len({line.index("|") for line in lines if "|" in line}) == 1
