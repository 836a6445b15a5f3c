"""Reduced words in a free group, used to state and machine-check the moves
acting on cover monodromy data.

A word is a tuple of ``(symbol, exponent)`` letters with exponent +1 or -1,
free-reduced.  Moves on monodromy data are given by word formulas; before a
formula is admitted it is checked symbolically that it preserves the
surface relation and sends the branch letter to a conjugate of itself.
"""

from __future__ import annotations

Letter = tuple[str, int]
Word = tuple[Letter, ...]


def w(*letters) -> Word:
    """Build a reduced word from (symbol, exp) pairs or bare symbol names."""
    out = []
    for item in letters:
        if isinstance(item, str):
            item = (item, 1)
        sym, exp = item
        if exp not in (1, -1):
            raise ValueError("letters carry exponent +1 or -1")
        out.append((sym, exp))
    return reduce(tuple(out))


def reduce(word) -> Word:
    out: list[Letter] = []
    for sym, exp in word:
        if out and out[-1][0] == sym and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((sym, exp))
    return tuple(out)


def inv(word: Word) -> Word:
    return tuple((sym, -exp) for sym, exp in reversed(word))


def mul(*words: Word) -> Word:
    out: Word = ()
    for word in words:
        out = reduce(out + word)
    return out


def commutator(x: Word, y: Word) -> Word:
    return mul(x, y, inv(x), inv(y))


def cyclic_reduce(word: Word) -> Word:
    word = reduce(word)
    while len(word) >= 2 and word[0][0] == word[-1][0] and word[0][1] == -word[-1][1]:
        word = reduce(word[1:-1])
    return word


def conjugate_of(word: Word, sym: str) -> bool:
    """True when the word is conjugate to the single generator ``sym``."""
    return cyclic_reduce(word) == ((sym, 1),)


def evaluate(word: Word, values: dict, compose, identity, invert):
    """Evaluate a word in a group: ``compose(x, y)`` applies x then y, and
    juxtaposition in the word means exactly that."""
    acc = identity
    for sym, exp in word:
        val = values[sym]
        if exp == -1:
            val = invert(val)
        acc = compose(acc, val)
    return acc
