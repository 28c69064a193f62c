"""Patterns over a finite alphabet and their structural decompositions.

Symbols are stored as small integers in [0, c).  For the coin alphabet
(c = 2) symbol 0 renders as 'H' and symbol 1 as 'T'; text forms only exist
at the parse/render boundary so that coin and die share one code path.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from flipwait._record import Frozen

COIN_LETTERS = "HT"  # how the coin's symbols 0 and 1 are written
# what `parse` reads as each coin symbol: every character whose upper() is a
# coin letter, which for "H" and "T" is the letter and its lower case alone
_COIN_SYMBOLS = {ch: sym for sym, letter in enumerate(COIN_LETTERS) for ch in (letter, letter.lower())}


class PatternError(ValueError):
    """Unparseable text or out-of-range symbols."""


class Pattern(Frozen):
    """An ending string: a nonempty word over an alphabet of size >= 2."""

    _fields = ("symbols", "alphabet_size")

    def __init__(self, symbols: tuple[int, ...], alphabet_size: int = 2):
        if alphabet_size < 2:
            raise PatternError(f"alphabet size must be at least 2, got {alphabet_size}")
        if not symbols:
            raise PatternError("pattern must be nonempty")
        for sym in symbols:
            if not 0 <= sym < alphabet_size:
                raise PatternError(f"symbol {sym} out of range for alphabet of size {alphabet_size}")
        vars(self).update(symbols=symbols, alphabet_size=alphabet_size)

    def __len__(self) -> int:
        return len(self.symbols)

    def text(self) -> str:
        """Canonical rendering: 'HTH' for c=2, comma-separated indices otherwise."""
        if self.alphabet_size == 2:
            return "".join(COIN_LETTERS[s] for s in self.symbols)
        return ",".join(str(s) for s in self.symbols)

    def __str__(self) -> str:
        return self.text()


def symbol_text(sym: int, alphabet_size: int) -> str:
    """One symbol as text: its letter for the coin, its face index otherwise."""
    return COIN_LETTERS[sym] if alphabet_size == 2 else str(sym)


def parse(text: str, alphabet_size: int = 2) -> Pattern:
    """Parse 'HhTt...' (case-insensitive) for c=2, or '0,3,1' face indices for c>2.

    Raises PatternError on empty input, unknown characters, or face indices
    outside [0, c).
    """
    if alphabet_size < 2:
        raise PatternError(f"alphabet size must be at least 2, got {alphabet_size}")
    stripped = text.strip()
    if not stripped:
        raise PatternError("empty pattern")
    if alphabet_size == 2:
        try:
            symbols = tuple([_COIN_SYMBOLS[ch] for ch in stripped])
        except KeyError as exc:  # the first character that is not a coin letter
            raise PatternError(f"unknown coin symbol {exc.args[0]!r} (expected H or T)") from None
        return Pattern(symbols, 2)
    symbols = []
    for part in stripped.split(","):
        part = part.strip()
        if not part:
            raise PatternError(f"empty face index in {text!r}")
        try:
            face = int(part)
        except ValueError:
            raise PatternError(f"face index {part!r} is not an integer") from None
        if not 0 <= face < alphabet_size:
            raise PatternError(f"face index {face} out of range for {alphabet_size} faces")
        symbols.append(face)
    return Pattern(tuple(symbols), alphabet_size)


def runs(p: Pattern) -> tuple[tuple[int, int], ...]:
    """Factor a pattern into its maximal runs: (symbol, length) pairs, adjacent symbols distinct."""
    out: list[tuple[int, int]] = []
    current = p.symbols[0]
    length = 0
    for sym in p.symbols:
        if sym == current:
            length += 1
        else:
            out.append((current, length))
            current, length = sym, 1
    out.append((current, length))
    return tuple(out)


def reverse(p: Pattern) -> Pattern:
    """The same word read right to left."""
    return Pattern(p.symbols[::-1], p.alphabet_size)


def complement(p: Pattern) -> Pattern:
    """Swap heads and tails.  Only defined for the coin alphabet."""
    if p.alphabet_size != 2:
        raise PatternError("complement is only defined for the coin alphabet (c=2)")
    return Pattern(tuple(1 - s for s in p.symbols), 2)


def is_alternating(p: Pattern) -> bool:
    """True iff every adjacent pair of symbols differs (vacuously true at length 1)."""
    return all(a != b for a, b in zip(p.symbols, p.symbols[1:]))


def enumerate_patterns(length: int, alphabet_size: int = 2) -> Iterator[Pattern]:
    """Yield all c**length patterns of the given length in lexicographic order."""
    if length < 1:
        raise PatternError(f"length must be at least 1, got {length}")
    for symbols in product(range(alphabet_size), repeat=length):
        yield Pattern(symbols, alphabet_size)


def as_symbols(given, alphabet_size: int) -> tuple[int, ...]:
    """Coerce a Pattern or an iterable of symbol indices to a validated tuple.

    Unlike Pattern itself, the result may be empty; conditioning on nothing
    is meaningful.
    """
    if isinstance(given, Pattern):
        if given.alphabet_size != alphabet_size:
            raise PatternError(
                f"alphabet mismatch: stream has {given.alphabet_size} symbols, expected {alphabet_size}"
            )
        return given.symbols
    symbols = tuple(given)
    for sym in symbols:
        if not 0 <= sym < alphabet_size:
            raise PatternError(f"symbol {sym} out of range for alphabet of size {alphabet_size}")
    return symbols
