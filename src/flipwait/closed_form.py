"""Closed-form expected waiting times and the dispatcher that applies them.

Coin patterns with at most four maximal runs, alternating coin patterns of
any length, and constant die patterns have closed forms; everything else
returns None from dispatch.  All arithmetic is big-integer, so run lengths
in the hundreds are fine.
"""

from __future__ import annotations

from flipwait.pattern import Pattern, is_alternating, runs


def wait_single_run(k: int) -> int:
    """E for a constant run of k equal coin faces: 2**(k+1) - 2."""
    if k < 1:
        raise ValueError(f"run length must be at least 1, got {k}")
    return 2 ** (k + 1) - 2


def wait_two_runs(k: int, l: int) -> int:
    """E for a k-run then an l-run of the other face: 2**(k+l)."""
    if k < 1 or l < 1:
        raise ValueError(f"run lengths must be at least 1, got {(k, l)}")
    return 2 ** (k + l)


def wait_three_runs(k: int, l: int, m: int) -> int:
    """E for run lengths (k, l, m): 2**(k+l+m) + 2**(min(k,m)+1) - 2."""
    if min(k, l, m) < 1:
        raise ValueError(f"run lengths must be at least 1, got {(k, l, m)}")
    return 2 ** (k + l + m) + 2 ** (min(k, m) + 1) - 2


def wait_four_runs(k: int, l: int, m: int, d: int) -> int:
    """E for run lengths (k, l, m, d); an extra 2**(k+d) appears iff m >= k and d <= l."""
    if min(k, l, m, d) < 1:
        raise ValueError(f"run lengths must be at least 1, got {(k, l, m, d)}")
    total = 2 ** (k + l + m + d)
    if m >= k and d <= l:
        total += 2 ** (k + d)
    return total


def wait_alternating(s: int) -> int:
    """E for an alternating coin pattern of length s.

    Equals sum(2**(2i)) for even s = 2k and sum(2**(2i-1)) for odd s = 2k-1,
    i = 1..k; in closed form (2**(s+2) - 4) / 3 and (2**(s+2) - 2) / 3.
    """
    if s < 1:
        raise ValueError(f"length must be at least 1, got {s}")
    if s % 2 == 0:
        return (2 ** (s + 2) - 4) // 3
    return (2 ** (s + 2) - 2) // 3


def wait_die_run(c: int, k: int) -> int:
    """E for k repeats of one fixed face of a c-faced die: (c**(k+1) - c) / (c - 1)."""
    if c < 2:
        raise ValueError(f"die needs at least 2 faces, got {c}")
    if k < 1:
        raise ValueError(f"run length must be at least 1, got {k}")
    num = c ** (k + 1) - c
    assert num % (c - 1) == 0
    return num // (c - 1)


def dispatch(p: Pattern) -> int | None:
    """Return the applicable closed form, or None when no formula covers the pattern.

    Coin patterns are matched by run count, with the alternating formula as
    the fallback; both depend only on the run lengths, not on which face
    starts, since swapping faces preserves the waiting time.  For larger
    alphabets only constant patterns are covered.
    """
    lengths = [length for _, length in runs(p)]
    if p.alphabet_size != 2:
        if len(lengths) == 1:
            return wait_die_run(p.alphabet_size, lengths[0])
        return None
    if len(lengths) == 1:
        return wait_single_run(lengths[0])
    if len(lengths) == 2:
        return wait_two_runs(*lengths)
    if len(lengths) == 3:
        return wait_three_runs(*lengths)
    if len(lengths) == 4:
        return wait_four_runs(*lengths)
    if is_alternating(p):
        return wait_alternating(len(p))
    return None
