"""``embed_word`` against a frozen letter-by-letter reference.

``embed_word`` multiplies one syllable at a time by the closed form of
(lam_k +- v_k)^|e|.  The reference below is the product it replaced: one
generator image per letter through the general ``AElem.__mul__``.  Elements
are canonical, so the two must agree dictionary for dictionary, and with
the same coefficient types.
"""

import random

import pytest

from gring.agmod import AElem, embed_generator, embed_word
from gring.errors import ForeignVariable
from gring.ring import build_KF
from gring.words import Word


def reference_embed_word(ring, w):
    """Frozen: left-to-right product of one generator image per letter."""
    out = AElem.one(ring)
    for g, e in w.syllables:
        letter = embed_generator(ring, g, 1 if e > 0 else -1)
        for _ in range(abs(e)):
            out = out * letter
    return out


def typed(a):
    """The element's dictionaries with each coefficient's type beside it."""

    def terms(p):
        return {m: (c, type(c)) for m, c in p._t.items()}

    return (
        terms(a.scalar),
        {i: terms(p) for i, p in a.vec.items()},
        {ij: terms(p) for ij, p in a.brk.items()},
    )


def assert_matches_reference(ring, w):
    assert typed(embed_word(ring, w)) == typed(reference_embed_word(ring, w)), (
        ring.label,
        w.render(),
    )


def random_word(rng, n, syllables, max_exp):
    sylls = [
        (rng.randint(1, n), rng.choice((1, -1)) * rng.randint(1, max_exp))
        for _ in range(syllables)
    ]
    return Word.from_syllables(sylls)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_embed_word_matches_letter_by_letter_reference(n):
    ring = build_KF(n)
    rng = random.Random(1600 + n)
    assert_matches_reference(ring, Word.identity())
    for k in range(1, n + 1):
        for e in range(-9, 10):
            if e:
                assert_matches_reference(ring, Word.generator(k, e))
    for _ in range(25):
        w = random_word(rng, n, rng.randint(1, 4), rng.choice((2, 9)))
        assert_matches_reference(ring, w)


def unit_sum_word(rng, moduli, length):
    """A reduced word of ``length`` letters, then g_i^k appended so each
    exponent sum is 1 modulo the factor order: the words a Boyer
    certificate embeds."""
    sylls = []
    while len(sylls) < length:
        g, e = rng.randint(1, len(moduli)), rng.choice((1, -1))
        if sylls and sylls[-1] == (g, -e):
            continue
        sylls.append((g, e))
    w = Word.from_syllables(sylls)
    for i, mod in enumerate(moduli, start=1):
        need = (1 - w.exponent_sum(i)) % mod
        if need:
            w = w * Word.generator(i, need)
    return w


def test_embed_word_matches_reference_on_certificate_words():
    ring = build_KF(2)
    rng = random.Random(31)
    for s, t in ((3, 4), (3, 7), (5, 4), (5, 7)):
        for _ in range(6):
            assert_matches_reference(ring, unit_sum_word(rng, (s, t), 4))


@pytest.mark.parametrize("n", [2, 3])
def test_syllable_times_its_inverse_is_one(n):
    ring = build_KF(n)
    one = AElem.one(ring)
    for k in range(1, n + 1):
        for e in range(1, 7):
            up = embed_word(ring, Word.generator(k, e))
            down = embed_word(ring, Word.generator(k, -e))
            assert up * down == one


def test_out_of_range_generator_is_foreign():
    ring = build_KF(2)
    for e in (1, -1, 3):
        with pytest.raises(ForeignVariable, match="generator index 3"):
            embed_word(ring, Word.generator(3, e))
    with pytest.raises(ForeignVariable):
        embed_word(ring, Word.from_syllables([(1, 2), (3, -1)]))
