import random
from fractions import Fraction

import pytest

from gring.agmod import bracket, dot, embed_word
from gring.errors import ForeignVariable, GringError, InvalidInstance
from gring.oracle import (
    EvalPoint,
    Quaternion,
    cayley_point,
    eval_ring_elem,
    eval_word,
    fuzz_bar,
    random_point,
    random_word,
)
from gring.poly import Poly
from gring.ring import build_KF
from gring.words import Word, parse_word

NAMES = ["g1", "g2", "g3"]


def W(text):
    return parse_word(text, NAMES)


def F(a, b=1):
    return Fraction(a, b)


def _quat(mu, a, b, c):
    return Quaternion(F(mu[0], mu[1]), F(a[0], a[1]), F(b[0], b[1]), F(c[0], c[1]))


def test_basis_products():
    e1 = Quaternion(F(0), F(1), F(0), F(0))
    e2 = Quaternion(F(0), F(0), F(1), F(0))
    e3 = Quaternion(F(0), F(0), F(0), F(1))
    assert e1 * e2 == e3
    assert e2 * e1 == Quaternion(F(0), F(0), F(0), F(-1))
    minus_one = Quaternion(F(-1), F(0), F(0), F(0))
    assert e1 * e1 == minus_one
    assert e1 * e2 * e3 == minus_one


def test_conjugation():
    p = Quaternion(F(1, 2), F(1, 3), F(-2, 5), F(1))
    assert p.conj().conj() == p
    n = p.norm()
    assert p * p.conj() == Quaternion(n, F(0), F(0), F(0))


def test_conj_antihomomorphism():
    rng = random.Random(0)
    for _ in range(20):
        p = cayley_point(F(rng.randint(-4, 4), 3), F(1, 2), F(rng.randint(0, 3), 5))
        q = cayley_point(F(2, 7), F(rng.randint(-3, 3), 2), F(1))
        assert (p * q).conj() == q.conj() * p.conj()


def test_cayley_point_basics():
    assert cayley_point(0, 0, 0) == Quaternion(F(1), F(0), F(0), F(0))
    assert cayley_point(1, 0, 0) == Quaternion(F(0), F(-1), F(0), F(0))


def test_cayley_point_unit_norm_random():
    rng = random.Random(5)
    for _ in range(50):
        q = cayley_point(
            F(rng.randint(-9, 9), rng.randint(1, 9)),
            F(rng.randint(-9, 9), rng.randint(1, 9)),
            F(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        assert q.norm() == 1


def test_eval_point_validates_norm():
    with pytest.raises(GringError):
        EvalPoint((Quaternion(F(1), F(1), F(0), F(0)),))


def test_eval_word_identity_and_inverse():
    pt = EvalPoint((cayley_point(F(1, 2), F(1, 3), F(0)),))
    assert eval_word(Word.identity(), pt) == Quaternion.one()
    assert eval_word(parse_word("g1*g1^-1", ["g1"]), pt) == Quaternion.one()


def test_eval_word_multiplicative():
    rng = random.Random(9)
    pt = random_point(rng, 3)
    for _ in range(15):
        u = random_word(rng, 3, 6)
        v = random_word(rng, 3, 6)
        assert eval_word(u * v, pt) == eval_word(u, pt) * eval_word(v, pt)


def test_eval_word_respects_inverse_conjugation():
    rng = random.Random(10)
    pt = random_point(rng, 3)
    for _ in range(15):
        u = random_word(rng, 3, 8)
        assert eval_word(u.inverse(), pt) == eval_word(u, pt).conj()


def test_eval_ring_elem_symbols():
    ring = build_KF(3)
    # vector parts along -x, -y, -z axes
    pt = EvalPoint(
        (cayley_point(1, 0, 0), cayley_point(0, 1, 0), cayley_point(0, 0, 1))
    )
    assert eval_ring_elem(ring, ring.lam(1), pt) == 0
    assert eval_ring_elem(ring, ring.m(1, 2), pt) == 0
    # determinant of diag(-1,-1,-1)
    assert eval_ring_elem(ring, ring.w(1, 2, 3), pt) == -1


def test_eval_ring_elem_lambda_at_identity_point():
    ring = build_KF(2)
    pt = EvalPoint((cayley_point(0, 0, 0), cayley_point(0, 0, 0)))
    assert eval_ring_elem(ring, ring.lam(1), pt) == 1
    a = embed_word(ring, W("g1*g2"))
    assert eval_ring_elem(ring, a.bar(), pt) == 1


def test_eval_ring_elem_rejects_foreign_variable():
    ring = build_KF(2)
    pt = EvalPoint((cayley_point(0, 0, 0), cayley_point(0, 0, 0)))
    with pytest.raises(ForeignVariable):
        eval_ring_elem(ring, Poly.variable("zz9"), pt)


def test_bar_matches_quaternion_scalar_specific():
    ring = build_KF(2)
    rng = random.Random(3)
    pt = random_point(rng, 2)
    w = W("g1*g2")
    lhs = eval_word(w, pt).mu
    rhs = eval_ring_elem(ring, embed_word(ring, w).bar(), pt)
    assert lhs == rhs
    q1, q2 = pt[1], pt[2]
    direct = q1.mu * q2.mu - (
        q1.a * q2.a + q1.b * q2.b + q1.c * q2.c
    )
    assert lhs == direct


def test_dot_bracket_triple_against_vector_algebra():
    ring = build_KF(3)
    rng = random.Random(8)
    pt = random_point(rng, 3)

    def vec3(q):
        return q.vector()

    def cross(p, q):
        return (
            p[1] * q[2] - p[2] * q[1],
            p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0],
        )

    def dot3(p, q):
        return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]

    for _ in range(10):
        u = random_word(rng, 3, 5)
        v = random_word(rng, 3, 5)
        uu = embed_word(ring, u).vector_part()
        vv = embed_word(ring, v).vector_part()
        pu = vec3(eval_word(u, pt))
        pv = vec3(eval_word(v, pt))
        # scalar pairing evaluates to the Euclidean dot of vector parts
        assert eval_ring_elem(ring, dot(uu, vv), pt) == dot3(pu, pv)
        # the bracket evaluates to the cross product componentwise
        br = bracket(uu, vv)
        crossv = cross(pu, pv)
        for axis in range(3):
            comp = Fraction(0)
            for i, coeff in br.vec.items():
                comp += eval_ring_elem(ring, coeff, pt) * vec3(eval_word(Word.generator(i), pt))[axis]
            for (i, j), coeff in br.brk.items():
                bij = cross(
                    vec3(eval_word(Word.generator(i), pt)),
                    vec3(eval_word(Word.generator(j), pt)),
                )
                comp += eval_ring_elem(ring, coeff, pt) * bij[axis]
            assert comp == crossv[axis]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_relations_vanish_at_points(n):
    ring = build_KF(n)
    rng = random.Random(100 + n)
    for _ in range(50):
        pt = random_point(rng, n)
        for rel in ring.gb.polys:
            assert eval_ring_elem(ring, rel, pt) == 0


def test_fuzz_bar_small_run():
    rep = fuzz_bar(trials=40, max_word_length=8, n=3, seed=123)
    assert rep.ok, rep.mismatches[:1]
    assert rep.seed == 123
    d = rep.to_dict()
    assert d["ok"] and d["trials"] == 40


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 0},
        {"height": 0},
        {"height": -3},
        {"max_word_length": -1},
        {"trials": -1},
    ],
)
def test_fuzz_bar_rejects_out_of_range(kwargs):
    with pytest.raises(InvalidInstance):
        fuzz_bar(**{"trials": 1, **kwargs})


def test_fuzz_report_shape():
    rep = fuzz_bar(trials=3, max_word_length=4, n=2, seed=1)
    js = rep.to_json()
    assert '"seed": 1' in js
