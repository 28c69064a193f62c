import sys

import pytest

from flipwait import pattern
from flipwait.pattern import (
    Pattern,
    PatternError,
    as_symbols,
    complement,
    enumerate_patterns,
    is_alternating,
    parse,
    reverse,
    runs,
)


def test_parse_coin():
    p = parse("HHT")
    assert p.symbols == (0, 0, 1)
    assert p.alphabet_size == 2
    assert runs(p) == ((0, 2), (1, 1))


def test_parse_is_case_insensitive():
    assert parse("hth") == parse("HTH")


def test_parse_die():
    p = parse("1,1,1", 6)
    assert p.symbols == (1, 1, 1)
    assert p.alphabet_size == 6
    assert p.text() == "1,1,1"


def test_parse_round_trips_through_text():
    for text in ("H", "HTH", "TTTTH"):
        assert parse(text).text() == text
    assert parse("0, 3 ,1", 4).text() == "0,3,1"


@pytest.mark.parametrize(
    "text,alphabet",
    [("", 2), ("HTX", 2), ("1,9", 6), ("1,,2", 6), ("a,b", 4), ("HT", 1)],
)
def test_parse_rejects_bad_input(text, alphabet):
    with pytest.raises(PatternError):
        parse(text, alphabet)


def test_coin_lookup_reads_every_character_whose_upper_case_is_a_coin_letter():
    # parse once compared ch.upper() with "H" and "T"; its lookup table must read the same characters
    letters = {chr(i) for i in range(sys.maxunicode + 1) if chr(i).upper() in ("H", "T")}
    assert set(pattern._COIN_SYMBOLS) == letters == {"H", "h", "T", "t"}
    assert all(pattern.COIN_LETTERS[sym] == ch.upper() for ch, sym in pattern._COIN_SYMBOLS.items())


@pytest.mark.parametrize("text, bad", [("HTX", "X"), ("h t", " "), ("\u0127H", "\u0127"), ("HTHq\u0130", "q")])
def test_parse_names_the_first_character_that_is_not_a_coin_letter(text, bad):
    with pytest.raises(PatternError) as err:
        parse(text)
    assert str(err.value) == f"unknown coin symbol {bad!r} (expected H or T)"


def test_pattern_invariants_enforced():
    with pytest.raises(PatternError):
        Pattern((), 2)
    with pytest.raises(PatternError):
        Pattern((2,), 2)
    with pytest.raises(PatternError):
        Pattern((0,), 1)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("HHTTTH", ((0, 2), (1, 3), (0, 1))),
        ("HHHH", ((0, 4),)),
        ("HTHT", ((0, 1), (1, 1), (0, 1), (1, 1))),
    ],
)
def test_runs(text, expected):
    assert runs(parse(text)) == expected


def test_runs_of_a_die_word():
    assert runs(parse("0,0,5,5,5,0", 6)) == ((0, 2), (5, 3), (0, 1))


def test_runs_lengths_sum_to_pattern_length():
    for s in range(1, 7):
        for p in enumerate_patterns(s, 2):
            decomposition = runs(p)
            assert sum(length for _, length in decomposition) == s
            adjacent_changes = sum(a != b for a, b in zip(p.symbols, p.symbols[1:]))
            assert len(decomposition) == 1 + adjacent_changes


@pytest.mark.parametrize("text,expected", [("HHT", "THH"), ("HTH", "HTH"), ("HHTHTT", "TTHTHH")])
def test_reverse(text, expected):
    assert reverse(parse(text)).text() == expected


@pytest.mark.parametrize("text,expected", [("HHT", "TTH"), ("HT", "TH"), ("H", "T")])
def test_complement(text, expected):
    assert complement(parse(text)).text() == expected


def test_complement_requires_coin():
    with pytest.raises(PatternError):
        complement(parse("0,1", 3))


def test_involutions_exhaustive():
    for s in range(1, 11):
        for p in enumerate_patterns(s, 2):
            assert reverse(reverse(p)) == p
            assert complement(complement(p)) == p


@pytest.mark.parametrize("text,expected", [("HTHT", True), ("HHT", False), ("H", True)])
def test_is_alternating(text, expected):
    assert is_alternating(parse(text)) is expected


def test_enumerate_small():
    assert [p.text() for p in enumerate_patterns(1, 2)] == ["H", "T"]
    assert [p.text() for p in enumerate_patterns(2, 2)] == ["HH", "HT", "TH", "TT"]
    assert len(list(enumerate_patterns(3, 2))) == 8


def test_enumerate_counts_and_distinctness():
    for s, c in ((4, 2), (3, 3), (2, 5)):
        seen = set(p.symbols for p in enumerate_patterns(s, c))
        assert len(seen) == c**s


def test_enumerate_rejects_zero_length():
    with pytest.raises(PatternError):
        next(enumerate_patterns(0, 2))


def test_patterns_are_hashable_values():
    assert parse("HT") == parse("HT")
    assert {parse("HT"): 1}[Pattern((0, 1), 2)] == 1


def test_as_symbols_accepts_empty_and_patterns():
    assert as_symbols((), 2) == ()
    assert as_symbols(parse("HT"), 2) == (0, 1)
    with pytest.raises(PatternError):
        as_symbols((3,), 2)
    with pytest.raises(PatternError):
        as_symbols(parse("0,1", 3), 2)
