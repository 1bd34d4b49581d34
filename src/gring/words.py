"""Free-group words in run-length form, and parsing of presentations.

A word is stored as a tuple of syllables ``(generator_index, exponent)``
with 1-based generator indices, nonzero exponents and no two adjacent
syllables sharing an index (freely reduced).  The run-length form keeps
high powers like ``g1^50`` compact.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .errors import (
    DuplicateGenerator,
    MalformedSyntax,
    UnknownGenerator,
    ZeroExponentError,
)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"-?[0-9]+")


def _reduce(syllables):
    """Freely reduce a syllable sequence (merge runs, drop zero exponents)."""
    out = []
    for g, e in syllables:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            s = out[-1][1] + e
            if s == 0:
                out.pop()
            else:
                out[-1] = (g, s)
        else:
            out.append((g, e))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word in a free group."""

    syllables: tuple = ()

    @staticmethod
    def from_syllables(syllables) -> "Word":
        """Build a word from an arbitrary syllable sequence, reducing it."""
        return Word(_reduce(list(syllables)))

    @staticmethod
    def identity() -> "Word":
        return Word(())

    @staticmethod
    def generator(i: int, exponent: int = 1) -> "Word":
        if i < 1:
            raise ValueError("generator indices are 1-based")
        return Word.from_syllables([(i, exponent)])

    def __post_init__(self):
        for g, e in self.syllables:
            if e == 0:
                raise ValueError("zero exponent in word")
            if g < 1:
                raise ValueError("generator indices are 1-based")

    def is_identity(self) -> bool:
        return not self.syllables

    def __mul__(self, other: "Word") -> "Word":
        return Word(_reduce(list(self.syllables) + list(other.syllables)))

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word.identity()
        base = self if n > 0 else self.inverse()
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    def exponent_sum(self, i: int) -> int:
        """Total exponent of generator ``i`` across the word."""
        return sum(e for g, e in self.syllables if g == i)

    def max_generator(self) -> int:
        return max((g for g, _ in self.syllables), default=0)

    def length(self) -> int:
        """Letter count after free reduction."""
        return sum(abs(e) for _, e in self.syllables)

    def render(self, names=None) -> str:
        if not self.syllables:
            return "e"
        parts = []
        for g, e in self.syllables:
            name = names[g - 1] if names else f"g{g}"
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Word({self.render()!r})"


def random_word(rng: random.Random, n: int, max_len: int) -> Word:
    """Word of 0 to ``max_len`` random letters in generators 1..n, reduced."""
    length = rng.randint(0, max_len)
    sylls = [
        (rng.randint(1, n), rng.choice((1, -1))) for _ in range(length)
    ]
    return Word.from_syllables(sylls)


@dataclass(frozen=True)
class Presentation:
    """A finite group presentation: generator names plus relator words."""

    names: tuple
    relators: tuple = ()

    @property
    def generator_count(self) -> int:
        return len(self.names)

    def __post_init__(self):
        n = len(self.names)
        for r in self.relators:
            if r.max_generator() > n:
                raise ValueError("relator references generator beyond the list")

    def render(self) -> str:
        rels = ",".join(w.render(self.names) for w in self.relators)
        return f"<{','.join(self.names)}|{rels}>"

    def __str__(self):
        return self.render()


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            raise MalformedSyntax(f"expected {ch!r}", self.pos)
        self.pos += 1

    def match_re(self, pattern):
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if m:
            self.pos = m.end()
        return m

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_word_body(sc: _Scanner, names) -> Word:
    index = {name: i + 1 for i, name in enumerate(names)}
    first = sc.match_re(_IDENT)
    if not first:
        raise MalformedSyntax("expected a generator name or 'e'", sc.pos)
    if first.group() == "e" and "e" not in index:
        return Word.identity()
    syllables = []

    def take_term(m):
        name = m.group()
        if name not in index:
            raise UnknownGenerator(name)
        exp = 1
        if sc.peek() == "^":
            sc.expect("^")
            pos = sc.pos
            mi = sc.match_re(_INT)
            if not mi:
                raise MalformedSyntax("expected an integer exponent", sc.pos)
            exp = int(mi.group())
            if exp == 0:
                raise ZeroExponentError(pos)
        syllables.append((index[name], exp))

    take_term(first)
    while sc.peek() == "*":
        sc.expect("*")
        m = sc.match_re(_IDENT)
        if not m:
            raise MalformedSyntax("expected a generator name after '*'", sc.pos)
        take_term(m)
    return Word.from_syllables(syllables)


def parse_word(text: str, names) -> Word:
    """Parse ``"g1*g2^-1*g1^2"`` style text into a freely reduced word.

    ``names`` lists the generator names; ``e`` denotes the identity unless
    it is itself a generator name.  ``*`` is mandatory between terms and
    whitespace is ignored.
    """
    sc = _Scanner(text)
    w = _parse_word_body(sc, names)
    if not sc.at_end():
        raise MalformedSyntax("trailing input after word", sc.pos)
    return w


def parse_presentation(text: str) -> Presentation:
    """Parse ``"<g1,g2|g1^5,g2^7>"`` style text into a Presentation."""
    sc = _Scanner(text)
    sc.expect("<")
    names = []
    while True:
        m = sc.match_re(_IDENT)
        if not m:
            raise MalformedSyntax("expected a generator name", sc.pos)
        if m.group() in names:
            raise DuplicateGenerator(m.group())
        names.append(m.group())
        if sc.peek() == ",":
            sc.expect(",")
        else:
            break
    sc.expect("|")
    relators = []
    if sc.peek() != ">":
        while True:
            relators.append(_parse_word_body(sc, names))
            if sc.peek() == ",":
                sc.expect(",")
            else:
                break
    sc.expect(">")
    if not sc.at_end():
        raise MalformedSyntax("trailing input after presentation", sc.pos)
    return Presentation(tuple(names), tuple(relators))
