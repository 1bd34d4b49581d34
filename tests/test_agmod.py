import random

import pytest

from gring.agmod import (
    AElem,
    bar,
    bar_product,
    basis_pairings,
    bracket,
    dot,
    embed_bar,
    embed_generator,
    embed_word,
    power_bar,
    triple,
    vec,
)
from gring.errors import GringError, InvalidInstance
from gring.identities import run_identity_suite
from gring.poly import Poly
from gring.ring import build_KF
from gring.words import Word, parse_word

NAMES = ["g1", "g2", "g3"]


def W(text):
    return parse_word(text, NAMES)


@pytest.fixture(scope="module")
def r2():
    return build_KF(2)


@pytest.fixture(scope="module")
def r3():
    return build_KF(3)


def test_embed_generator(r2):
    g = embed_generator(r2, 1, +1)
    assert g.bar() == r2.lam(1)
    assert g.vec == {1: Poly.one()}
    gi = embed_generator(r2, 1, -1)
    assert gi.bar() == r2.lam(1)
    assert gi.vec == {1: Poly.const(-1)}


def test_embed_generator_out_of_range(r2):
    with pytest.raises(GringError):
        AElem.basis_v(r2, 3)


def test_group_inverse_collapses(r2):
    assert embed_word(r2, W("g1*g1^-1")) == AElem.one(r2)


def test_bar_of_two_letter_product(r2):
    a = embed_word(r2, W("g1*g2"))
    assert a.bar() == r2.lam(1) * r2.lam(2) - r2.m(1, 2)
    # both orders share the scalar part
    b = embed_word(r2, W("g2*g1"))
    assert b.bar() == a.bar()


def test_square_of_generator(r2):
    a = embed_word(r2, W("g1^2"))
    lam1 = r2.lam(1)
    assert a.bar() == 2 * lam1 * lam1 - 1
    assert a.vec == {1: 2 * lam1}
    assert not a.brk


def test_commutator_scalar_part(r2):
    c = embed_word(r2, W("g1*g2*g1^-1*g2^-1"))
    lam1, lam2, m12 = r2.lam(1), r2.lam(2), r2.m(1, 2)
    ab = lam1 * lam2 - m12
    expected = 2 * ab * ab - 4 * lam1 * lam2 * ab + 2 * lam1 ** 2 + 2 * lam2 ** 2 - 1
    assert c.bar() == expected


def test_bar_vec_decomposition(r3):
    a = embed_word(r3, W("g1*g2^-1*g3"))
    assert bar(AElem.one(r3)) == Poly.one()
    assert vec(AElem.one(r3)).is_zero()
    assert bar(AElem.basis_v(r3, 1)).is_zero()
    recomposed = AElem.from_scalar(r3, bar(a)) + vec(a)
    assert recomposed == a


def test_bar_invariant_under_inverse(r3):
    for text in ("g1*g2", "g3^2*g1^-1*g2", "g2^-1*g1^3"):
        w = W(text)
        assert bar(embed_word(r3, w)) == bar(embed_word(r3, w.inverse()))


def test_dot_examples(r3):
    v1 = AElem.basis_v(r3, 1)
    v2 = AElem.basis_v(r3, 2)
    lam1, lam2 = r3.lam(1), r3.lam(2)
    assert dot(v1, v1) == 1 - lam1 * lam1
    b12 = bracket(v1, v2)
    assert dot(v1, b12).is_zero()
    assert dot(b12, b12) == r3.nf(
        (1 - lam1 * lam1) * (1 - lam2 * lam2) - r3.m(1, 2) ** 2
    )


def test_dot_requires_lambda(r3):
    with pytest.raises(GringError):
        dot(AElem.one(r3), AElem.basis_v(r3, 1))


def test_bracket_examples(r3):
    v1, v2, v3 = (AElem.basis_v(r3, i) for i in (1, 2, 3))
    b12 = bracket(v1, v2)
    assert b12 == AElem.basis_b(r3, 1, 2)
    assert bracket(v2, v1) == -b12
    # bracket with a vector generator stays w-free
    lhs = bracket(b12, v3)
    rhs = v2.scale(r3.m(1, 3)) - v1.scale(r3.m(2, 3))
    assert lhs == rhs


def test_bracket_skew_on_word_elements(r3):
    rng = random.Random(3)
    for _ in range(10):
        sylls = [(rng.randint(1, 3), rng.choice((1, -1))) for _ in range(5)]
        x = embed_word(r3, Word.from_syllables(sylls)).vector_part()
        assert bracket(x, x).is_zero()


def test_triple_examples(r3):
    v1, v2, v3 = (AElem.basis_v(r3, i) for i in (1, 2, 3))
    assert triple(v1, v2, v3) == r3.w(1, 2, 3)
    assert triple(v1, v2, v1).is_zero()
    assert triple(v2, v1, v3) == -r3.w(1, 2, 3)


def test_mul_table_closure_sample(r3):
    # products of generating elements stay in the module span and agree
    # with the scalar/vector/bracket decomposition
    a = embed_word(r3, W("g1*g3"))
    b = embed_word(r3, W("g2^-1*g1"))
    prod = a * b
    expected = (
        AElem.from_scalar(r3, bar(a) * bar(b) - dot(vec(a), vec(b)))
        + vec(b).scale(bar(a))
        + vec(a).scale(bar(b))
        + bracket(vec(a), vec(b))
    )
    assert prod == expected


def test_power_bar_examples(r3):
    e = Word.identity()
    g1 = W("g1")
    assert power_bar(r3, e, g1, e, 0) == Poly.one()
    lam1 = r3.lam(1)
    assert power_bar(r3, e, g1, e, 2) == 2 * lam1 * lam1 - 1
    g2 = W("g2")
    expected = r3.nf(
        bar(embed_word(r3, W("g2*g1"))) * (4 * lam1 * lam1 - 1)
        - bar(embed_word(r3, g2)) * (2 * lam1)
    )
    assert power_bar(r3, g2, g1, e, 3) == expected


def test_power_bar_matches_direct_expansion(r3):
    rng = random.Random(11)
    for _ in range(6):
        mk = lambda: Word.from_syllables(
            [(rng.randint(1, 3), rng.choice((1, -1))) for _ in range(rng.randint(0, 4))]
        )
        g, h, k = mk(), mk(), mk()
        n = rng.randint(-8, 8)
        assert power_bar(r3, g, h, k, n) == bar(embed_word(r3, g * (h ** n) * k))


def _random_elements(ring, rng, count):
    """Embedded words, their vector parts, brackets and sums of them."""
    out = [AElem.one(ring)]
    if ring.n > 1:
        out.append(AElem.basis_b(ring, 2, 1))
    for _ in range(count):
        sylls = [
            (rng.randint(1, ring.n), rng.choice((1, -1, 2, -3)))
            for _ in range(rng.randint(0, 4))
        ]
        a = embed_word(ring, Word.from_syllables(sylls))
        out += [a, a.vector_part(), a + AElem.basis_v(ring, ring.n)]
        if ring.n > 1:
            out.append(bracket(a.vector_part(), AElem.basis_v(ring, 1)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scalar_rows_match_the_full_product(n):
    ring = build_KF(n)
    rng = random.Random(50 + n)
    elems = _random_elements(ring, rng, 6)
    for x in elems:
        for y in rng.sample(elems, 6):
            assert bar_product(x, y) == (x * y).bar()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_pairings_match_dot(n):
    ring = build_KF(n)
    basis = [AElem.basis_v(ring, i) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        basis += [AElem.basis_b(ring, i, j) for j in range(i + 1, n + 1)]
    for x in _random_elements(ring, random.Random(60 + n), 8):
        v = x.vector_part()
        assert basis_pairings(x) == [dot(beta, v) for beta in basis]


def test_embed_bar_is_the_scalar_part(r3):
    rng = random.Random(7)
    words = [Word.identity(), W("g2^-4")]
    for _ in range(30):
        sylls = [
            (rng.randint(1, 3), rng.choice((1, -1, 3, -2)))
            for _ in range(rng.randint(1, 5))
        ]
        words.append(Word.from_syllables(sylls))
    for w in words:
        assert embed_bar(r3, w) == embed_word(r3, w).bar()


def test_vector_part_copies_the_canonical_coordinates(r3):
    a = embed_word(r3, W("g1*g2^2*g3^-1*g1"))
    v = a.vector_part()
    assert v == AElem(r3, None, a.vec, a.brk)
    assert v.vec is not a.vec and v.brk is not a.brk
    v.vec[1] = Poly.zero()
    assert a.vec[1] != Poly.zero()


def test_syzygy_rewrites_keep_coefficients_w_free(r3):
    # a w-heavy product: coefficients must come out w-free on the
    # degree-one part by construction
    v1, v2, v3 = (AElem.basis_v(r3, i) for i in (1, 2, 3))
    elem = AElem(r3, vec={1: r3.w(1, 2, 3)})
    assert not elem.vec  # rewritten entirely into brackets
    assert elem.brk == {
        (2, 3): r3.nf(r3.m(1, 1)),
        (1, 3): r3.nf(-r3.m(2, 1)),
        (1, 2): r3.nf(r3.m(3, 1)),
    }
    elem2 = AElem(r3, brk={(1, 2): r3.w(1, 2, 3)})
    assert not elem2.brk  # rewritten entirely into vectors
    assert set(elem2.vec) <= {1, 2, 3}


def test_rank2_has_no_bracket_coefficient_growth(r2):
    a = embed_word(r2, W("g1*g2*g1^-1*g2^-1"))
    assert set(a.brk) <= {(1, 2)}


def test_render(r3):
    one = AElem.one(r3)
    assert one.render() == "(1)"
    v1 = AElem.basis_v(r3, 1)
    assert "v1" in v1.render()
    assert AElem.zero(r3).render() == "0"


@pytest.mark.parametrize(
    "kwargs", [{"pool_size": 0}, {"n": 0}, {"max_len": -1}]
)
def test_identity_suite_rejects_out_of_range(kwargs):
    with pytest.raises(InvalidInstance):
        run_identity_suite(**kwargs)
