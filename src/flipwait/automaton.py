"""Prefix automaton of a pattern, built from the classical failure function.

State q in {0..s} means: the longest suffix of the consumed stream that is a
proper prefix of the pattern has length q.  State s is an absorbing accept
state, because the game ends at the first occurrence.  Only `inspect`,
which prints it, uses this table.  The chain solve, the correlation sets,
the counts, the conditional waits and the simulator need only
`failure_links`, the O(s) border chain the table is built from, and walk a
given stream along it with `match`.
"""

from __future__ import annotations

from dataclasses import dataclass

from flipwait.pattern import Pattern


@dataclass(frozen=True)
class PrefixAutomaton:
    pattern: Pattern
    transitions: tuple[tuple[int, ...], ...]

    @property
    def accept_state(self) -> int:
        return len(self.pattern)

    @property
    def alphabet_size(self) -> int:
        return self.pattern.alphabet_size


def failure_links(p: Pattern) -> list[int]:
    """The KMP failure function f(q) for q = 0..s, in O(s) amortized.

    f(q) is the state reached by the length-q prefix with its first symbol
    dropped, i.e. the length of its longest proper border; f(0) = f(1) = 0.
    Row q of the transition table equals row f(q) except at symbol S[q], and
    f(q+1) = delta(f(q), S[q]).  Following f from s walks every border of
    the whole pattern.
    """
    s = len(p)
    sym = p.symbols
    fail = [0] * (s + 1)
    k = 0
    for q in range(1, s):
        while k and sym[k] != sym[q]:
            k = fail[k]
        if sym[k] == sym[q]:
            k += 1
        fail[q + 1] = k
    return fail


def match(p: Pattern, fail: list[int], symbols) -> tuple[int, int]:
    """KMP walk of a symbol sequence from state 0, in O(len(symbols)) whatever c is.

    Returns (state, symbols consumed); the walk stops at the accept state.
    """
    s = len(p)
    sym = p.symbols
    q = 0
    for i, x in enumerate(symbols):
        while q and sym[q] != x:
            q = fail[q]
        if sym[q] == x:
            q += 1
            if q == s:
                return q, i + 1
    return q, len(symbols)


def build(p: Pattern) -> PrefixAutomaton:
    """Construct the transition table in O(s*c) from the failure links."""
    s = len(p)
    c = p.alphabet_size
    sym = p.symbols
    fail = failure_links(p)
    table: list[tuple[int, ...]] = []

    row0 = [0] * c
    row0[sym[0]] = 1
    table.append(tuple(row0))

    for q in range(1, s):
        row = list(table[fail[q]])
        row[sym[q]] = q + 1
        table.append(tuple(row))

    table.append(tuple([s] * c))
    return PrefixAutomaton(p, tuple(table))


def dump(a: PrefixAutomaton) -> str:
    """Aligned text rendering of the transition table; the accept row is starred."""
    c = a.alphabet_size
    if c == 2:
        headers = ["H", "T"]
    else:
        headers = [str(i) for i in range(c)]
    width = max(5, len(str(a.accept_state)) + 1)
    cell = max(2, *(len(h) for h in headers))
    lines = ["state |" + "".join(f" {h:>{cell}}" for h in headers)]
    lines.append("-" * len(lines[0]))
    for q, row in enumerate(a.transitions):
        label = f"*{q}" if q == a.accept_state else str(q)
        lines.append(f"{label:>{width}} |" + "".join(f" {t:>{cell}}" for t in row))
    return "\n".join(lines)
