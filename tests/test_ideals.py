import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from gring import agmod, ideals
from gring.agmod import AElem, dot, embed_word
from gring.errors import GroebnerTimeout
from gring.ideals import (
    Verdict,
    abelianization_kernel_generators,
    bullet_generators,
    hash_generators,
    hashhash_generators,
    normally_generates_check,
    quotient_ring_of_presentation,
)
from gring.ring import build_KF, ideal_equal
from gring.words import Word, parse_presentation, parse_word, random_word

NAMES = ["g1", "g2", "g3"]


def W(text):
    return parse_word(text, NAMES)


def _orbit_count(n):
    """Independent count of negation orbits on Z/n."""
    return len({frozenset({k % n, (-k) % n}) for k in range(n)})


def test_hash_empty_is_zero_ideal():
    spec = hash_generators([], 2)
    assert spec.generators == ()


def test_hash_identity_relator_is_zero_ideal():
    spec = hash_generators([Word.identity()], 2)
    assert spec.generators == ()


def test_hash_generators_two_cyclic_factors():
    # relators g1^s, g2^t over the canonical module basis {1, v1, v2, b12}:
    # the classical word-family elements bar(g1^s)-1, bar(g2 g1^s)-bar(g2)
    # all lie in (and generate) the same ideal
    s, t = 2, 3
    ring = build_KF(2)
    spec = hash_generators([W(f"g1^{s}"), W(f"g2^{t}")], 2)
    gens = set(spec.generators)
    e1 = ring.order.monic(embed_word(ring, W("g1^2")).bar() - 1)
    assert e1 in gens
    assert len(spec.generators) <= 8
    gb = spec.gb()
    for pre, body in (("e", "g1^2"), ("g2", "g1^2"), ("e", "g2^3"), ("g1", "g2^3")):
        w = W(pre) * W(body)
        elem = embed_word(ring, w).bar() - embed_word(ring, W(pre)).bar()
        assert gb.contains(elem), (pre, body)


def test_hashhash_power_contained_in_family_ideal():
    ring = build_KF(2)
    spec = hashhash_generators([W("g1^2")], 2)
    lam1 = ring.lam(1)
    gb = ring.ideal_gb([lam1])  # the degree-2 member generates <lam1>
    for g in spec.generators:
        assert gb.contains(g)


def test_hashhash_contains_self_pairing():
    spec = hashhash_generators([W("g1")], 2)
    ring = build_KF(2)
    lam1 = ring.lam(1)
    target = ring.order.monic(1 - lam1 * lam1)
    assert target in set(spec.generators)


def test_hashhash_identity_is_zero():
    assert hashhash_generators([Word.identity()], 2).generators == ()


def test_bullet_generators():
    assert bullet_generators([Word.identity()], 2).generators == ()
    ring = build_KF(2)
    spec = bullet_generators([W("g1")], 2)
    assert spec.generators == (ring.order.monic(1 - ring.lam(1)),)
    spec = bullet_generators([W("g1*g2")], 2)
    expect = ring.order.monic(1 - (ring.lam(1) * ring.lam(2) - ring.m(1, 2)))
    assert spec.generators == (expect,)


def test_abelianization_kernel_rank2():
    ring = build_KF(2)
    spec = abelianization_kernel_generators(2)
    lam1, lam2, m12 = ring.lam(1), ring.lam(2), ring.m(1, 2)
    expect = ring.order.monic(
        (1 - lam1 * lam1) * (1 - lam2 * lam2) - m12 * m12
    )
    assert spec.generators == (expect,)


def test_abelianization_kernel_rank1_and_rank3():
    assert abelianization_kernel_generators(1).generators == ()
    spec = abelianization_kernel_generators(3)
    assert len(spec.generators) == 7


def test_quotient_ring_of_free_presentation():
    qr = quotient_ring_of_presentation(parse_presentation("<g1|>"))
    assert qr.gb.polys == ()
    assert qr.vdim() is None


@pytest.mark.parametrize("n", range(2, 9))
def test_cyclic_group_dimension(n):
    qr = quotient_ring_of_presentation(parse_presentation(f"<g1|g1^{n}>"))
    assert qr.vdim() == n // 2 + 1 == _orbit_count(n)


def test_two_cyclic_factors_ring_shape():
    qr = quotient_ring_of_presentation(parse_presentation("<g1,g2|g1^2,g2^3>"))
    assert qr.var_names() == ["lam1", "lam2", "m12"]
    assert len(qr.gb.polys) >= 2


def test_normally_generates_boyer_instance():
    pres = parse_presentation("<g1,g2|g1^2,g2^3>")
    w = W("g1*g2") ** 2
    assert normally_generates_check(pres, [w]) is Verdict.CERTIFIED_NO


def test_normally_generates_full_generator_inconclusive():
    pres = parse_presentation("<g1|>")
    assert (
        normally_generates_check(pres, [parse_word("g1", ["g1"])])
        is Verdict.INCONCLUSIVE
    )


def test_normally_generates_honours_deadline():
    pres = parse_presentation("<g1,g2|g1^2,g2^3>")
    with pytest.raises(GroebnerTimeout):
        normally_generates_check(
            pres, [W("g1*g2") ** 2], deadline=time.monotonic() - 1
        )


def test_normally_generates_partial_generators():
    pres = parse_presentation("<g1,g2|>")
    assert normally_generates_check(pres, [W("g1")]) is Verdict.CERTIFIED_NO
    # witness: the second generator's self-pairing is outside the ideal
    ring = build_KF(2)
    spec = hashhash_generators([W("g1")], 2)
    gb = ring.ideal_gb(spec.generators)
    lam2 = ring.lam(2)
    assert not gb.contains(1 - lam2 * lam2)


# relators of rank 1, 2 and 3, with torsion, commutators and a triangle group
CONTAINMENT_PRESENTATIONS = [
    "<g1|g1^4>",
    "<g1,g2|g1^2,g2^3>",
    "<g1,g2|g1^3,g2^4>",
    "<g1,g2|g1*g2*g1^-1*g2^-1>",
    "<g1,g2|g1^2,g2^5,g1*g2*g1*g2>",
    "<g1,g2,g3|g1^2,g2^3,g3^5,g1*g2*g3>",
    "<g1,g2,g3|g1^2,g2^2,g3^2>",
]


@pytest.mark.parametrize("kind", ["hash", "hashhash"])
@pytest.mark.parametrize("idx", range(len(CONTAINMENT_PRESENTATIONS)))
def test_relators_and_words_lie_in_the_generator_ideal(idx, kind):
    # normally_generates_check compares lhs = ideal(relators + L) with
    # rhs = ideal(all generators); lhs always lies in rhs.  GB(rhs) is
    # <lam_i - 1, m_ij, w_ijk> for hash and <m(i,j) for i <= j, w_ijk>
    # for hashhash (m(i,i) = 1 - lam_i^2), and every lhs generator
    # vanishes there
    pres = parse_presentation(CONTAINMENT_PRESENTATIONS[idx])
    n = pres.generator_count
    ring = build_KF(n)
    make = hash_generators if kind == "hash" else hashhash_generators
    rhs = make([Word.generator(i) for i in range(1, n + 1)], n).gb()
    idx1 = range(1, n + 1)
    if kind == "hash":
        want = [ring.lam(i) - 1 for i in idx1]
        want += [ring.m(i, j) for i, j in combinations(idx1, 2)]
    else:
        want = [ring.m(i, j) for i, j in combinations_with_replacement(idx1, 2)]
    want += [ring.w(*t) for t in combinations(idx1, 3)]
    assert rhs.polys == ring.ideal_gb(want).polys
    rng = random.Random(2026 + idx)
    for _ in range(3):
        word = random_word(rng, n, 6)
        lhs = make(list(pres.relators) + [word], n)
        assert lhs.generators
        for g in lhs.generators:
            assert rhs.normal_form(g).is_zero(), g.render()


def test_hash_via_alternative_generating_family():
    # the two-sided family {1, g1, g2, g2g1} generates the same ideal for
    # the relator g1^s as the canonical module basis
    ring = build_KF(2)
    s = 3
    rel = W(f"g1^{s}")
    std = hash_generators([rel], 2)
    alt_words = [Word.identity(), W("g1"), W("g2"), W("g2*g1")]
    alt = hash_generators(
        [rel], 2, bases=[[embed_word(ring, b) for b in alt_words]]
    )
    assert ideal_equal(std.generators, alt.generators, ring)


def test_sum_decomposition_hash_equals_hashhash_plus_bullet():
    rng = random.Random(2)
    for n in (2, 3):
        ring = build_KF(n)
        for _ in range(4):
            sylls = [
                (rng.randint(1, n), rng.choice((1, -1)))
                for _ in range(rng.randint(1, 5))
            ]
            L = [Word.from_syllables(sylls)]
            full = hash_generators(L, n)
            parts = hashhash_generators(L, n).generators + bullet_generators(
                L, n
            ).generators
            assert ideal_equal(full.generators, parts, ring)


def test_conjugation_and_inversion_invariance_sample():
    rng = random.Random(4)
    for n in (2, 3):
        ring = build_KF(n)
        for _ in range(3):
            mk = lambda k: Word.from_syllables(
                [(rng.randint(1, n), rng.choice((1, -1))) for _ in range(k)]
            )
            l, h = mk(rng.randint(1, 4)), mk(rng.randint(1, 3))
            conj = h * l * h.inverse()
            a = hashhash_generators([l], n).generators
            b = hashhash_generators([conj], n).generators
            assert ideal_equal(a, b, ring)
            c = hashhash_generators([l.inverse()], n).generators
            assert ideal_equal(a, c, ring)


def test_ideal_spec_serialization():
    spec = bullet_generators([W("g1")], 2)
    d = spec.to_dict()
    assert d["provenance"] == "bullet"
    assert d["generators"] == ["lam1 - 1"]
    assert "order" in d["ambient"]


# -- differential: generators against a frozen copy of the old path --------
#
# The old path built every generator through whole module elements: the
# canonicalized basis {1, v_i, b_ij} as AElems, full AElem products for
# hash, ``dot`` over a re-canonicalized vector part for hashhash, the whole
# embedded word for bullet, and a second normal form plus a Fraction monic
# in the pruning.  The generator tuples must agree, order and values.


def _old_module_basis(ring, include_one):
    basis = [AElem.one(ring)] if include_one else []
    basis += [AElem.basis_v(ring, i) for i in range(1, ring.n + 1)]
    for i, j in combinations(range(1, ring.n + 1), 2):
        basis.append(AElem.basis_b(ring, i, j))
    return basis


def _old_prune(ring, gens):
    out = []
    seen = set()
    for p in gens:
        q = ring.nf(p)
        if q.is_zero():
            continue
        _, c = ring.order.leading(q)
        q = q * Fraction(1, c)
        if q not in seen:
            seen.add(q)
            out.append(q)
    return tuple(out)


def _old_hash(L, n, bases=None):
    ring = build_KF(n)
    gens = []
    for idx, l in enumerate(L):
        le = embed_word(ring, l)
        betas = bases[idx] if bases is not None else _old_module_basis(ring, True)
        for beta in betas:
            gens.append((beta * le).bar() - beta.bar())
    return _old_prune(ring, gens)


def _old_hashhash(L, n):
    ring = build_KF(n)
    gens = []
    for l in L:
        le = embed_word(ring, l)
        lv = AElem(ring, None, le.vec, le.brk)
        for beta in _old_module_basis(ring, False):
            gens.append(dot(beta, lv))
    return _old_prune(ring, gens)


def _old_bullet(L, n):
    ring = build_KF(n)
    return _old_prune(ring, [1 - embed_word(ring, l).bar() for l in L])


RELATORS = {
    1: ["g1^3", "g1^-5"],
    2: ["g1^2", "g2^3", "g1*g2*g1^-1*g2^-1", "g1*g2*g1*g2*g1*g2"],
    3: ["g1^2", "g1*g2*g3", "g1*g2*g1^-1*g2^-1*g3^2", "g3^-1*g1*g3^-1*g1"],
}


def _seeded_words(n, seed):
    rng = random.Random(seed)
    words = [Word.identity()] + [W(r) for r in RELATORS[n]]
    for length in range(7):
        sylls = [
            (rng.randint(1, n), rng.choice((1, -1))) for _ in range(length)
        ]
        l = Word.from_syllables(sylls)
        h = Word.from_syllables([(rng.randint(1, n), rng.choice((1, -1)))])
        words += [l, h * l * h.inverse(), l ** 2, l ** 3]
    return words


def _assert_strict(gens):
    for g in gens:
        for _, c in g.terms():
            assert type(c) is int or c.denominator > 1, (g.render(), c)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generators_match_the_frozen_module_path(n):
    for l in _seeded_words(n, 1000 + n):
        for new, old in (
            (hash_generators, _old_hash),
            (hashhash_generators, _old_hashhash),
            (bullet_generators, _old_bullet),
        ):
            got = new([l], n).generators
            assert got == old([l], n), (new.__name__, l.render())
            _assert_strict(got)
    # a word set, generated together
    L = [W(r) for r in RELATORS[n]]
    assert hash_generators(L, n).generators == _old_hash(L, n)
    assert hashhash_generators(L, n).generators == _old_hashhash(L, n)
    assert bullet_generators(L, n).generators == _old_bullet(L, n)


def test_hash_bases_family_matches_the_frozen_module_path():
    ring = build_KF(2)
    family = [embed_word(ring, W(t)) for t in ("e", "g1", "g2", "g2*g1", "g1^-2")]
    family.append(AElem.basis_b(ring, 2, 1) + AElem.basis_v(ring, 2))
    L = [W("g1^3"), W("g1*g2^-1*g1")]
    bases = [family, family[1:]]
    got = hash_generators(L, 2, bases=bases).generators
    assert got == _old_hash(L, 2, bases=bases)
    _assert_strict(got)


def test_hash_takes_the_product_table_not_the_pairing(monkeypatch):
    # criterion 8 compares hash with hashhash + bullet: hash must not be
    # derived from the pairings that hashhash uses
    def forbidden(*args):
        raise AssertionError("hash_generators used the pairing")

    want = hash_generators([W("g1*g2^2*g3^-1")], 3).generators
    monkeypatch.setattr(ideals, "basis_pairings", forbidden)
    monkeypatch.setattr(agmod, "basis_pairings", forbidden)
    monkeypatch.setattr(agmod, "dot", forbidden)
    assert hash_generators([W("g1*g2^2*g3^-1")], 3).generators == want
