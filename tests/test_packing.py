"""Packed-integer monomials against the tuple-monomial operations.

For a single-block degrevlex order and KF3's two-block order, seeded random
monomials check that packing round-trips, that ``<`` on packed ints is
the order of the frozen tuple key ``mono_key``, that ``+`` is ``mono_mul``,
that the guard-bit test and ``m - l`` are ``mono_div``, and that
``Packing.lcm`` is ``mono_lcm``; a field passing its guard bit must be
detected, never wrap.  Seeded random polynomials check that
``MonomialOrder.leading`` picks the term with the largest tuple key, and
that ``lead_monomial``, which keeps only the largest packed key, agrees
with a frozen copy that packs every term, foreign variables and widening
included.
The overflow tests run the engine past the initial field width, and from
the narrowest width on one- and two-block orders, and compare bases with
the tuple-monomial reference engine and an inverse with the reference
inversion; a result whose exponent passes the ``Poly`` limit must raise on
the way out of the engine.
"""

import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from gring import kernel, poly, ring
from gring.casestudies import make_E
from gring.errors import ExponentOverflow
from gring.groebner import buchberger
from gring.ideals import hashhash_generators
from gring.poly import (
    REGISTRY,
    MonomialOrder,
    Poly,
    block_order,
    degrevlex,
    parse_poly,
)
from gring.words import Word

from test_engine_differential import (
    mono_deg,
    mono_div,
    mono_key,
    mono_lcm,
    mono_mul,
    nd_from_frac,
    nd_to_frac,
    order_slots,
    reference_buchberger,
    reference_reduce_nd,
)
from test_invert_differential import reference_invert

SINGLE = degrevlex([REGISTRY.var(f"a{i}") for i in range(5)])


def _kf3_order():
    return ring.build_KF(3).order


ORDERS = {"single": lambda: SINGLE, "kf3": _kf3_order}


def _pack(order, mono):
    (x,) = order.pack_nd(Poly({mono: 1})._t)[0]
    return x


def _unpack(order, x):
    """Tuple monomial of the packed ``x``, through ``Packing.to_frac``."""
    ((mono, _),) = Poly._raw(order.packing.to_frac({x: (1, 1)})).terms()
    return mono


def _block_degrees(order, mono):
    exps = dict(mono)
    return [sum(exps.get(v, 0) for v in b) for b in order.blocks]


@st.composite
def monomials(draw, order):
    """Monomials whose total degree fits the order's fields."""
    vids = sorted(v for b in order.blocks for v in b)
    half = 1 << (order.packing.bits - 1)
    cap = (half - 1) // len(vids)
    exps = draw(st.lists(st.integers(0, cap), min_size=len(vids), max_size=len(vids)))
    return tuple((v, e) for v, e in zip(vids, exps) if e)


def _sparse(mono, keep):
    return tuple(ve for ve, k in zip(mono, keep) if k)


@pytest.mark.parametrize("name", sorted(ORDERS))
@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_packed_ops_match_tuple_ops(name, data):
    order = ORDERS[name]()
    pk = order.packing
    g = pk.guard
    half = 1 << (pk.bits - 1)
    a = data.draw(monomials(order))
    b = data.draw(monomials(order))
    # sparse variants make divisibility and coprimality likely
    b = _sparse(b, data.draw(st.lists(st.booleans(), min_size=len(b), max_size=len(b))))
    pa, pb = _pack(order, a), _pack(order, b)

    assert _unpack(order, pa) == a and _unpack(order, pb) == b
    slots, width = order_slots(order)
    assert pk.degree(pa) == mono_deg(a)
    assert (pa < pb) == (mono_key(a, slots, width) < mono_key(b, slots, width))
    assert (pa == pb) == (a == b)

    prod = mono_mul(a, b)
    fits = all(d < half for d in _block_degrees(order, prod))
    assert ((pa + pb) & g == 0) == fits
    if fits:
        assert pa + pb == _pack(order, prod)

    q = mono_div(a, b)
    assert (((pa | g) - pb) & g == g) == (q is not None)
    if q is not None:
        assert pa - pb == _pack(order, q)

    lcm = mono_lcm(a, b)
    if all(d < half for d in _block_degrees(order, lcm)):
        assert pk.lcm(pa, pb) == _pack(order, lcm)
    else:
        with pytest.raises(kernel.FieldOverflow):
            pk.lcm(pa, pb)


@pytest.mark.parametrize("name", sorted(ORDERS))
@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_leading_is_largest_tuple_key(name, data):
    order = ORDERS[name]()
    slots, width = order_slots(order)
    monos = data.draw(st.lists(monomials(order), min_size=1, max_size=8, unique=True))
    coeffs = data.draw(
        st.lists(st.integers(1, 9), min_size=len(monos), max_size=len(monos))
    )
    p = Poly(dict(zip(monos, coeffs)))
    want = max(monos, key=lambda m: mono_key(m, slots, width))
    assert order.leading(p) == (want, dict(p.terms())[want])


def test_leading_widens_the_packing():
    kf = ring.KFRing(3)  # a fresh order, at the initial width
    bits = kf.order.packing.bits
    lam1 = kf.lam(1)
    lead, c = kf.order.leading(lam1**200 + kf.lam(2) * kf.lam(3))
    assert Poly({lead: c}) == lam1**200
    assert kf.order.packing.bits > bits


def reference_lead_monomial(order, p):
    """``MonomialOrder.lead_monomial`` as it was before it kept only the
    largest key: every term packed through ``pack_nd``, then the largest."""
    nd, known = order.repacking(lambda _: order.pack_nd(p._t))
    return known[max(nd)]


def _outcome(lead, order, p):
    try:
        return lead(order, p)
    except Exception as exc:
        return type(exc), str(exc)


def test_lead_monomial_matches_the_reference():
    rng = random.Random(20261022)
    foreign = REGISTRY.var("lead_foreign")
    for order in (SINGLE, _kf3_order()):
        vids = [v for b in order.blocks for v in b]
        polys = []
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(1, 12)):
                mono = tuple((v, rng.randint(1, 6)) for v in vids if rng.random() < 0.4)
                terms[mono] = rng.randint(-5, 5) or 1
            p = Poly(terms)
            if p.is_zero():
                continue
            polys.append(p)
            if rng.random() < 0.2:  # a foreign variable in some term
                polys.append(p + Poly({((foreign, 1), (vids[0], 1)): 1}))
        foreign_seen = 0
        for p in polys:
            want = _outcome(reference_lead_monomial, order, p)
            assert _outcome(MonomialOrder.lead_monomial, order, p) == want
            foreign_seen += type(want) is tuple
        assert foreign_seen
    kf = ring.build_KF(3)
    for length in range(7):
        for _ in range(4):
            w = Word.from_syllables(
                (rng.randint(1, 3), rng.choice((1, -1))) for _ in range(length)
            )
            for g in hashhash_generators([w], 3).generators:
                if not g.is_zero():
                    want = reference_lead_monomial(kf.order, g)
                    assert kf.order.lead_monomial(g) == want


def test_lead_monomial_widens_like_the_reference():
    a, b = ring.KFRing(3), ring.KFRing(3)  # fresh orders at the initial width
    bits = a.order.packing.bits
    p = a.lam(1) ** 200 + a.lam(2) ** 150 * a.lam(3) ** 49 + a.lam(3)
    assert a.order.lead_monomial(p) == reference_lead_monomial(b.order, p)
    assert a.order.packing.bits == b.order.packing.bits > bits


def test_pack_rejects_too_big_degree():
    pk = SINGLE.packing
    half = 1 << (pk.bits - 1)
    v = SINGLE.blocks[0][0]
    with pytest.raises(kernel.FieldOverflow):
        SINGLE.pack_nd(Poly({((v, half),): 1})._t)


def test_exponents_past_initial_width():
    x, y = Poly.variable("x"), Poly.variable("y")
    half = 1 << (poly._FIELD_BITS - 1)
    # a fresh order, at the initial width
    order = degrevlex([REGISTRY.lookup("x"), REGISTRY.lookup("y")])
    # the inputs fit the fields; their lcm and S-polynomial do not
    gens = [x ** (half - 28) * y - 1, x * y ** (half - 28) - 1]
    polys = buchberger(gens, order).polys
    assert order.packing.bits > poly._FIELD_BITS
    assert polys == reference_buchberger(gens, order).polys
    # an input past the fields repacks too
    big = [x ** (4 * half) - y, y ** 3 - x * y]
    assert buchberger(big, order).polys == reference_buchberger(big, order).polys


def test_narrowest_width_gives_reference_bases(monkeypatch):
    monkeypatch.setattr(poly, "_FIELD_BITS", 2)
    records = []
    real = ring.buchberger

    def recording(gens, order, deadline=None):
        gb = real(gens, order, deadline=deadline)
        records.append((list(gens), order, gb.polys))
        return gb

    monkeypatch.setattr(ring, "buchberger", recording)
    E = make_E(3, 4)
    kf = ring.KFRing(3)
    # KF2 has no relations; an ideal of it takes the engine through one
    # degrevlex block
    kf2 = ring.KFRing(2)
    assert len(kf2.order.blocks) == 1
    word = Word.from_syllables([(1, 1), (2, 1), (1, -1), (2, 1), (1, 1)])
    kf2.ideal_gb(hashhash_generators([word], 2).generators)
    for r in (E, kf, kf2):
        assert r.order.packing.bits > 2
    assert records
    for gens, order, polys in records:
        assert polys == reference_buchberger(gens, order).polys

    # a cofactor run, through a fresh ring at the narrowest width
    E = make_E(3, 4)
    elem = E.nf(parse_poly("s1*s2 + mu1 - 2"))
    assert ring.invert(elem, E) == reference_invert(elem, E)

    # a normal form past the width the basis was packed with repacks the
    # basis too; the w123^2 factor makes the input reducible, so it is
    # packed at all
    p = kf.lam(1) ** 200 * kf.w(1, 2, 3) ** 2 + kf.lam(2) * kf.lam(3)
    bits = kf.order.packing.bits
    got = kf.nf(p)
    assert kf.order.packing.bits > bits
    reducers = []
    for b in kf.gb.polys:
        lm, _ = kf.order.leading(b)
        tail = nd_from_frac(dict(b.terms()))
        del tail[lm]
        reducers.append((lm, tail))
    want = reference_reduce_nd(
        nd_from_frac(dict(p.terms())), reducers, *order_slots(kf.order)
    )
    assert dict(got.terms()) == nd_to_frac(want)


def test_result_past_the_exponent_limit_raises():
    a, b = Poly.variable("a"), Poly.variable("b")
    order = block_order((REGISTRY.lookup("b"),), (REGISTRY.lookup("a"),))
    gb = buchberger([b - a**200], order)
    assert gb.normal_form(b**100) == a**20000
    # b^200 reduces to a^40000: the engine widens its fields to hold it,
    # and leaving the engine raises
    with pytest.raises(ExponentOverflow):
        gb.normal_form(b**200)
    with pytest.raises(ExponentOverflow):
        buchberger([b - a**200, b**200], order)
    assert order.packing.bits > kernel.EXP_BITS
