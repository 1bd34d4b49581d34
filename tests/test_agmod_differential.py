"""The module layer against its ``Poly``-level predecessor.

``AElem.__mul__``, ``bar_product``, ``dot``, ``bracket`` and the
canonicalization in ``AElem.__init__`` accumulate each output coordinate
in one coefficient dict through ``kernel.poly_addmul``.  The functions
below are frozen copies of them as they were before: every row of the
product table builds its product as a ``Poly`` and adds it to the running
coefficient with ``+``, and the canonicalization takes every vector
coefficient through a second normal form.  Elements are canonical, so on
every input both must agree dictionary for dictionary, with the same
coefficient types.  ``reference_embed_word`` is the embedding that began
with ``AElem.one`` and multiplied by the first syllable too.
"""

import random
from itertools import combinations

import pytest

from gring.agmod import (
    AElem,
    _syllable,
    bar_product,
    bracket,
    dot,
    embed_word,
)
from gring.poly import Poly
from gring.ring import build_KF
from gring.words import Word


def _acc(d, key, p):
    if p.is_zero():
        return
    prev = d.get(key)
    d[key] = p if prev is None else prev + p


def _acc_b(d, i, j, p):
    if i < j:
        _acc(d, (i, j), p)
    elif i > j:
        _acc(d, (j, i), -p)


def reference_canonical(ring, scalar=None, vec=None, brk=None):
    """Frozen: ``AElem.__init__``'s normal forms and syzygy rewrites."""
    nf = ring.nf
    s = scalar if scalar is not None else Poly.zero()
    out_s = nf(s)
    vec_nf = {}
    for i, p in (vec or {}).items():
        q = nf(p)
        if not q.is_zero():
            vec_nf[i] = q
    brk_acc = {}
    for (i, j), p in (brk or {}).items():
        if not p.is_zero():
            _acc(brk_acc, (i, j), p)

    def gram(a, b, c, d):
        return ring.m(a, c) * ring.m(b, d) - ring.m(a, d) * ring.m(b, c)

    vec_plain = {}
    for l, q in vec_nf.items():
        plain, by_triple = ring.split_w(q)
        if not plain.is_zero():
            vec_plain[l] = plain
        for (i, j, k), c in by_triple.items():
            _acc(brk_acc, (j, k), c * ring.m(i, l))
            _acc(brk_acc, (i, k), -(c * ring.m(j, l)))
            _acc(brk_acc, (i, j), c * ring.m(k, l))
    out_b = {}
    for (a, b), p in brk_acc.items():
        plain, by_triple = ring.split_w(nf(p))
        if not plain.is_zero():
            out_b[(a, b)] = plain
        for (i, j, k), c in by_triple.items():
            _acc(vec_plain, i, c * gram(a, b, j, k))
            _acc(vec_plain, j, -(c * gram(a, b, i, k)))
            _acc(vec_plain, k, c * gram(a, b, i, j))
    out_v = {}
    for l, p in vec_plain.items():
        q = nf(p)
        if not q.is_zero():
            out_v[l] = q
    return AElem._raw(ring, out_s, out_v, out_b)


def reference_mul(x, y):
    """Frozen: ``AElem.__mul__`` of two elements."""
    ring = x.ring
    out_s = x.scalar * y.scalar
    out_v = {}
    out_b = {}
    if not x.scalar.is_zero():
        for i, p in y.vec.items():
            _acc(out_v, i, x.scalar * p)
        for (i, j), p in y.brk.items():
            _acc_b(out_b, i, j, x.scalar * p)
    if not y.scalar.is_zero():
        for i, p in x.vec.items():
            _acc(out_v, i, y.scalar * p)
        for (i, j), p in x.brk.items():
            _acc_b(out_b, i, j, y.scalar * p)
    for i, a in x.vec.items():
        for j, b in y.vec.items():
            c = a * b
            out_s = out_s - c * ring.m(i, j)
            _acc_b(out_b, i, j, c)
    for (i, j), a in x.brk.items():
        for k, b in y.vec.items():
            c = a * b
            out_s = out_s - c * ring.w(i, j, k)
            _acc(out_v, j, c * ring.m(i, k))
            _acc(out_v, i, -(c * ring.m(j, k)))
    for k, a in x.vec.items():
        for (i, j), b in y.brk.items():
            c = a * b
            out_s = out_s - c * ring.w(i, j, k)
            _acc(out_v, j, -(c * ring.m(i, k)))
            _acc(out_v, i, c * ring.m(j, k))
    for (i, j), a in x.brk.items():
        for (k, l), b in y.brk.items():
            c = a * b
            out_s = out_s + c * (
                ring.m(i, l) * ring.m(j, k) - ring.m(i, k) * ring.m(j, l)
            )
            _acc(out_v, l, -(c * ring.w(i, j, k)))
            _acc(out_v, k, c * ring.w(i, j, l))
    return reference_canonical(ring, out_s, out_v, out_b)


def reference_dot(a, b):
    """Frozen: ``dot`` of two elements with zero scalar part."""
    ring = a.ring
    out = Poly.zero()
    for i, p in a.vec.items():
        for j, q in b.vec.items():
            out = out + p * q * ring.m(i, j)
    for i, p in a.vec.items():
        for (j, k), q in b.brk.items():
            out = out + p * q * ring.w(j, k, i)
    for (j, k), p in a.brk.items():
        for i, q in b.vec.items():
            out = out + p * q * ring.w(j, k, i)
    for (i, j), p in a.brk.items():
        for (k, l), q in b.brk.items():
            out = out + p * q * (
                ring.m(i, k) * ring.m(j, l) - ring.m(i, l) * ring.m(j, k)
            )
    return ring.nf(out)


def reference_bar_product(x, y):
    """Frozen: ``bar_product``."""
    ring = x.ring
    m, w = ring.m, ring.w
    out = x.scalar * y.scalar
    for i, a in x.vec.items():
        for j, b in y.vec.items():
            out = out - a * b * m(i, j)
    for (i, j), a in x.brk.items():
        for k, b in y.vec.items():
            out = out - a * b * w(i, j, k)
    for k, a in x.vec.items():
        for (i, j), b in y.brk.items():
            out = out - a * b * w(i, j, k)
    for (i, j), a in x.brk.items():
        for (k, l), b in y.brk.items():
            out = out + a * b * (m(i, l) * m(j, k) - m(i, k) * m(j, l))
    return ring.nf(out)


def reference_bracket(a, b):
    """Frozen: ``bracket`` of two elements with zero scalar part."""
    ring = a.ring
    out_v = {}
    out_b = {}
    for i, p in a.vec.items():
        for j, q in b.vec.items():
            _acc_b(out_b, i, j, p * q)
    for i, p in a.vec.items():
        for (j, k), q in b.brk.items():
            c = p * q
            _acc(out_v, j, c * ring.m(i, k))
            _acc(out_v, k, -(c * ring.m(i, j)))
    for (i, j), p in a.brk.items():
        for k, q in b.vec.items():
            c = p * q
            _acc(out_v, j, c * ring.m(i, k))
            _acc(out_v, i, -(c * ring.m(j, k)))
    for (i, j), p in a.brk.items():
        for (k, l), q in b.brk.items():
            c = p * q
            _acc_b(out_b, j, l, c * ring.m(i, k))
            _acc_b(out_b, i, k, c * ring.m(j, l))
            _acc_b(out_b, j, k, -(c * ring.m(i, l)))
            _acc_b(out_b, i, l, -(c * ring.m(j, k)))
    return reference_canonical(ring, None, out_v, out_b)


def reference_embed_word(ring, w):
    """Frozen: ``AElem.one`` times each syllable in turn."""
    out = AElem.one(ring)
    for k, e in w.syllables:
        out = reference_mul(out, _syllable(ring, k, e))
    return out


def terms(p):
    return {m: (c, type(c)) for m, c in p._t.items()}


def typed(a):
    """An element's or polynomial's dictionaries with each coefficient's
    type beside it."""
    if isinstance(a, Poly):
        return terms(a)
    return (
        terms(a.scalar),
        {i: terms(p) for i, p in a.vec.items()},
        {ij: terms(p) for ij, p in a.brk.items()},
    )


def seeded_words(rng, n, count):
    out = []
    for _ in range(count):
        sylls = [
            (rng.randint(1, n), rng.choice((1, -1, 2, -2, 3)))
            for _ in range(rng.randint(1, 4))
        ]
        out.append(Word.from_syllables(sylls))
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_module_products_match_the_poly_level_reference(n):
    ring = build_KF(n)
    rng = random.Random(2400 + n)
    elems = []
    for w in seeded_words(rng, n, 8):
        x = embed_word(ring, w)
        assert typed(x) == typed(reference_embed_word(ring, w)), w.render()
        elems += [x, x.vector_part()]
    for x in elems:
        for y in rng.sample(elems, 4):
            assert typed(x * y) == typed(reference_mul(x, y))
            assert typed(bar_product(x, y)) == typed(reference_bar_product(x, y))
            a, b = x.vector_part(), y.vector_part()
            assert typed(dot(a, b)) == typed(reference_dot(a, b))
            assert typed(bracket(a, b)) == typed(reference_bracket(a, b))


@pytest.mark.parametrize("n", [3, 4])
def test_canonicalization_matches_the_poly_level_reference(n):
    # coordinates full of w symbols take both syzygy rewrites
    ring = build_KF(n)
    rng = random.Random(2500 + n)
    idx = range(1, n + 1)
    symbols = [ring.lam(i) for i in idx]
    symbols += [ring.m(i, j) for i, j in combinations(idx, 2)]
    ws = [ring.w(*t) for t in combinations(idx, 3)]

    def coeff():
        p = Poly.const(rng.choice((1, -1, 2)))
        for _ in range(rng.randint(0, 2)):
            p = p * rng.choice(symbols)
        if rng.random() < 0.7:
            p = p * rng.choice(ws) + rng.choice(symbols)
        return p

    for _ in range(12):
        s = coeff()
        vec = {i: coeff() for i in rng.sample(idx, rng.randint(1, n))}
        pairs = rng.sample(list(combinations(idx, 2)), 2)
        brk = {ij: coeff() for ij in pairs}
        got = AElem(ring, s, vec, brk)
        assert got.vec or got.brk
        assert typed(got) == typed(reference_canonical(ring, s, vec, brk))


@pytest.mark.parametrize("n", [2, 3])
def test_one_syllable_word_is_its_syllable(n):
    ring = build_KF(n)
    for k in range(1, n + 1):
        for e in (1, -1, 2, -3, 5):
            got = embed_word(ring, Word.generator(k, e))
            want = AElem.one(ring) * _syllable(ring, k, e)
            assert typed(got) == typed(want)
