"""Differential property suite: every exact route agrees on hypothesis-drawn words.

The routes share nothing but the failure links: the chain solve
(`expected_wait_markov`, `absorption_times`), the Conway walk of the
border chain, the closed forms, the series bracket of `identities` and the
first-occurrence counts against the brute-force oracle.  Coin words are
drawn up to length 40, die words up to length 10 at c = 3-12 and at one
large c; half the die words use only two faces, so they still overlap.
Runs are derandomized and keep no example database, so they repeat and
write nothing to the tree.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flipwait import identities
from flipwait.closed_form import dispatch
from flipwait.conjectures import scan
from flipwait.counting import count_brute, count_first_occurrence
from flipwait.exact import absorption_times, expected_wait_conway, expected_wait_markov
from flipwait.pattern import Pattern, parse

ROUTES = settings(derandomize=True, database=None, deadline=None)
LARGE_C = 10**6
BRUTE_STRINGS = 2**12  # the brute-force oracle enumerates at most this many strings per n


@st.composite
def coin_words(draw) -> Pattern:
    return Pattern(tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=40))), 2)


@st.composite
def die_words(draw) -> Pattern:
    c = draw(st.integers(3, 12) | st.just(LARGE_C))
    faces = draw(st.sampled_from([2, c]))
    return Pattern(tuple(draw(st.lists(st.integers(0, faces - 1), min_size=1, max_size=10))), c)


def _check_routes(p: Pattern):
    e = expected_wait_markov(p)
    assert e == expected_wait_conway(p) == absorption_times(p)[0], p
    closed = dispatch(p)
    assert closed is None or closed == e, p
    jump = identities._JUMP_PER_DEGREE * len(p)
    for N in (jump - 1, jump):  # the last Horner pass and the first jump
        partial, bound = identities.partial_expectation(p, N), identities.tail_bound(p, N)
        assert partial <= e <= partial + bound, (p, N)
    c = p.alphabet_size
    n = 0
    while c**n <= BRUTE_STRINGS:
        assert count_first_occurrence(p, n)[n] == count_brute(p, n), (p, n)
        n += 1


@ROUTES
@given(coin_words())
@example(Pattern((0,) * 40, 2))
@example(Pattern((0, 1) * 20, 2))
def test_routes_agree_on_coin_words(p):
    _check_routes(p)


@ROUTES
@given(die_words())
@example(Pattern((0,) * 10, LARGE_C))
@example(Pattern((1, 0, 1) * 3 + (1,), 3))
def test_routes_agree_on_die_words(p):
    _check_routes(p)


def test_scan_expected_waits_are_conway_sums():
    records = scan(10).records
    assert len(records) == 2**11 - 2
    for r in records:
        assert r.expected == expected_wait_conway(parse(r.pattern)), r.pattern
