"""Bases checked by Buchberger's criterion, without a reference engine.

A finite set G is a Groebner basis of the ideal it generates exactly when
every S-polynomial of two elements of G leaves remainder 0 on division by
G (Buchberger's criterion; Cox, Little & O'Shea, *Ideals, Varieties, and
Algorithms*, section 2.6).  If every input generator also leaves remainder
0, the input ideal lies in <G>; the engine only adds reduced combinations
of the generators, so <G> lies in the input ideal.  The check below forms
each S-polynomial with ``Poly`` arithmetic and divides through
``GroebnerBasis.normal_form``, which runs the kernel's division on the
returned set and none of the engine's pair bookkeeping.  A chain-criterion
skip that no settled pairs justify drops an S-polynomial that does not
reduce to zero, and shows up here as a missing element.
"""

import random

import pytest

from gring import ring
from gring.casestudies import SWInstance, SWRings, make_E, sw_elements
from gring.groebner import GroebnerBasis, buchberger
from gring.ideals import bullet_generators, hash_generators, hashhash_generators
from gring.poly import REGISTRY, Poly, block_order, degrevlex
from test_engine_differential import PROPERNESS_ORDERS, _word, properness_word


def _s_polynomial(p, q, order):
    """S-polynomial of the monic p and q."""
    (mp, cp), (mq, cq) = order.leading(p), order.leading(q)
    assert cp == cq == 1
    ep, eq = dict(mp), dict(mq)
    lcm = {v: max(ep.get(v, 0), eq.get(v, 0)) for v in ep.keys() | eq.keys()}
    up = Poly({tuple((v, e - ep.get(v, 0)) for v, e in lcm.items()): 1})
    uq = Poly({tuple((v, e - eq.get(v, 0)) for v, e in lcm.items()): 1})
    return up * p - uq * q


def assert_groebner_basis(gens, gb):
    """Every generator and every S-polynomial of two elements of ``gb``
    leaves remainder 0 modulo ``gb``."""
    order = gb.order
    divide = GroebnerBasis(gb.polys, order)  # a fresh set: no engine state
    for g in gens:
        assert divide.normal_form(g).is_zero(), g.render()
    polys = gb.polys
    for a in range(len(polys)):
        for b in range(a):
            s = _s_polynomial(polys[a], polys[b], order)
            assert divide.normal_form(s).is_zero(), (
                polys[a].render(),
                polys[b].render(),
            )


@pytest.fixture
def bases(monkeypatch):
    """Record every basis computed through ``gring.ring`` as (gens, gb)."""
    records = []

    def recording_buchberger(gens, order, deadline=None):
        gens = list(gens)
        gb = buchberger(gens, order, deadline=deadline)
        records.append((gens, gb))
        return gb

    monkeypatch.setattr(ring, "buchberger", recording_buchberger)
    return records


def _assert_all(records):
    assert records
    for gens, gb in records:
        assert_groebner_basis(gens, gb)


def test_properness_bases(bases):
    rng = random.Random(20261021)
    for r, s, t in PROPERNESS_ORDERS:
        word = properness_word(rng, (r, s, t))
        # built uncached, so the E' and A relation bases are checked too
        rings = SWRings(r, s, t)
        rings.A.ideal_gb(sw_elements(SWInstance(r, s, t, word), rings))
    _assert_all(bases)


def test_E_relation_bases(bases):
    for s in (3, 5):
        for t in (4, 7):
            make_E(s, t)
    _assert_all(bases)


def test_criterion8_bases(bases):
    rng = random.Random(20261021)
    for n, length, count in ((2, 5, 6), (3, 2, 4), (3, 3, 6)):
        kf = ring.build_KF(n)
        for _ in range(count):
            l = _word(rng, n, length)
            base = hashhash_generators([l], n).generators
            kf.ideal_gb(base)
            kf.ideal_gb(hash_generators([l], n).generators)
            kf.ideal_gb(base + bullet_generators([l], n).generators)
            if length < 3:
                h = _word(rng, n, 1)
                conj = h * l * h.inverse()
                kf.ideal_gb(hashhash_generators([conj], n).generators)
    _assert_all(bases)


def _random_poly(rng, xs, top):
    """Three terms of degree at most ``top``, small integer coefficients."""
    terms = {}
    while len(terms) < 3:
        mono = tuple((v, e) for v in xs if (e := rng.randint(0, 2)))
        if sum(e for _, e in mono) <= top:
            terms[mono] = rng.choice((-3, -2, -1, 1, 2, 3))
    return Poly(terms)


def test_random_block_order_bases():
    names = ("bx", "by", "bz", "bw")
    for name in names:
        Poly.variable(name)
    a, b, c, d = (REGISTRY.lookup(n) for n in names)
    # (order, top degree): elimination with cubic generators can run for
    # minutes, so only the degrevlex ones are cubic
    orders = (
        (degrevlex([a, b, c]), 3),
        (block_order([a], [b, c]), 2),
        (block_order([a, b], [c]), 2),
        (degrevlex([a, b, c, d]), 2),
        (block_order([a, b], [c, d]), 2),
    )
    rng = random.Random(20261021)
    for order, top in orders:
        xs = [v for blk in order.blocks for v in blk]
        for _ in range(12):
            gens = [_random_poly(rng, xs, top) for _ in range(3)]
            assert_groebner_basis(gens, buchberger(gens, order))
