import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from gring.errors import (
    ExponentOverflow,
    ForeignVariable,
    GringError,
)
from gring.kernel import EXP_MAX, FieldOverflow
from gring.poly import (
    NEG_INF,
    REGISTRY,
    Poly,
    block_order,
    chebyshev_like,
    degrevlex,
    parse_poly,
)

from test_engine_differential import mono_key, order_slots, poly_mul

x = Poly.variable("x")
y = Poly.variable("y")


def test_basic_arithmetic():
    assert (x + 1) * (x - 1) == x * x - 1
    p = 3 * x * y - Fraction(1, 2)
    assert p + 0 == p
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y


def test_zero_and_one():
    assert Poly.zero().is_zero()
    assert (x - x).is_zero()
    assert Poly.one() == 1
    assert x * 0 == Poly.zero()


def test_substitute_numeric():
    p = x * x + 1
    assert p.substitute({"x": 2}) == 5


def test_substitute_poly():
    assert x.substitute({"x": y + 1}) == y + 1
    p = (x + y) ** 2
    q = p.substitute({"x": y})
    assert q == 4 * y * y


def test_substitute_is_homomorphism():
    p, q = x * y + 1, x - 2 * y
    sub = {"x": y + 1, "y": x * x}
    assert (p * q).substitute(sub) == p.substitute(sub) * q.substitute(sub)
    assert (p + q).substitute(sub) == p.substitute(sub) + q.substitute(sub)


def test_degree_in():
    assert (x * x * y + x).degree_in("x") == 2
    assert Poly.zero().degree_in("x") == NEG_INF
    assert y.degree_in("x") == 0


def test_coefficient_in():
    p = 3 * x * x * y + x - 5
    assert p.coefficient_in("x", 2) == 3 * y
    assert p.coefficient_in("x", 1) == Poly.one()
    assert p.coefficient_in("x", 0) == Poly.const(-5)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: p.degree_in("nosuch"),
        lambda p: p.coefficient_in("nosuch", 1),
        lambda p: p.substitute({"nosuch": 1}),
    ],
    ids=["degree_in", "coefficient_in", "substitute"],
)
def test_unknown_variable_name_is_foreign(call):
    with pytest.raises(ForeignVariable, match="nosuch"):
        call(x * y + 1)


def test_render_and_parse_round_trip():
    p = Fraction(3, 2) * x * x * y - 1
    assert p.render() == "3/2*x^2*y - 1"
    assert parse_poly(p.render()) == p
    assert parse_poly("0") == Poly.zero()
    for q in (x, -x, x - y, 2 * x * y - Fraction(7, 3)):
        assert parse_poly(q.render()) == q


def test_order_degrevlex():
    xv, yv = REGISTRY.lookup("x"), REGISTRY.lookup("y")
    order = degrevlex([xv, yv])
    # total degree dominates; ties broken so that earlier variables win
    assert order.leading(x * y + x * x) == (((xv, 2),), 1)
    assert order.leading(y * y + 2 * x * y) == (((xv, 1), (yv, 1)), 2)
    assert order.leading(y**3 + x * x) == (((yv, 3),), 1)
    lead, c = order.leading((x + y) ** 2 + x)
    assert lead == ((xv, 2),)


def test_block_order_isolates_top_variable():
    xv, yv = REGISTRY.lookup("x"), REGISTRY.lookup("y")
    order = block_order((xv,), (yv,))
    # any power of x beats any power of y
    assert order.leading(y**9 + 3 * x) == (((xv, 1),), 3)
    lead, _ = order.leading(x + y ** 5)
    assert lead == ((xv, 1),)


# -- the recurrence family ------------------------------------------------


def test_family_base_cases():
    assert chebyshev_like(0).is_zero()
    assert chebyshev_like(1) == Poly.one()
    assert chebyshev_like(-1) == Poly.const(-1)


def test_family_small_members():
    assert chebyshev_like(2) == 2 * x
    assert chebyshev_like(3) == 4 * x * x - 1


def test_family_recurrence_holds():
    for n in range(-12, 12):
        lhs = 2 * x * chebyshev_like(n)
        rhs = chebyshev_like(n - 1) + chebyshev_like(n + 1)
        assert lhs == rhs, n


def test_family_degree_and_values():
    for n in range(1, 51):
        p = chebyshev_like(n)
        assert p.degree_in("x") == n - 1
        assert p.substitute({"x": 1}) == n
        assert p.substitute({"x": -1}) == Poly.const((-1) ** (n + 1) * n)
        assert chebyshev_like(-n) == -p


coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
monos = st.lists(
    st.tuples(st.sampled_from(["x", "y"]), st.integers(1, 3)), max_size=2
)


@st.composite
def polys(draw):
    n = draw(st.integers(0, 4))
    p = Poly.zero()
    for _ in range(n):
        c = draw(coeffs)
        term = Poly.const(c)
        for name, e in draw(monos):
            term = term * Poly.variable(name) ** e
        p = p + term
    return p


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def test_kernel_backend_is_python():
    # The benchmark records the backend name with each run.
    import gring

    assert gring.kernel_backend() == "python"


# -- packed monomials: canonical keys and the exponent limit ---------------


def test_tuple_keys_are_canonical():
    xv, yv = REGISTRY.lookup("x"), REGISTRY.lookup("y")
    p = Poly({((yv, 2), (xv, 1)): 1})
    assert p == x * y**2
    assert p.render() == (x * y**2).render()
    c = Poly({((xv, 0),): 3})
    assert c.is_constant() and c == 3 and c.render() == "3"
    # keys naming the same monomial add up
    assert Poly({((xv, 1), (yv, 1)): 2, ((yv, 1), (xv, 1)): 3}) == 5 * x * y
    assert Poly({((xv, 1),): 1, ((xv, 1), (yv, 0)): -1}).is_zero()
    with pytest.raises(ValueError):
        Poly({((xv, -1),): 1})


def test_exponent_limit_is_reachable():
    xv = REGISTRY.lookup("x")
    top = x**EXP_MAX
    assert top.degree_in("x") == EXP_MAX and top.degree_in("y") == 0
    assert Poly({((xv, EXP_MAX),): 1}) == top
    assert (top * y).variables() == sorted([xv, REGISTRY.lookup("y")])
    assert issubclass(ExponentOverflow, GringError)
    assert not issubclass(ExponentOverflow, FieldOverflow)


@pytest.mark.parametrize(
    "make",
    [
        lambda xv: Poly({((xv, EXP_MAX + 1),): 1}),
        lambda xv: Poly({((xv, EXP_MAX), (xv, 1)): 1}),
        lambda xv: x**EXP_MAX * (x + y),
        lambda xv: x ** (EXP_MAX + 1),
        lambda xv: (x**2).substitute({"x": x**20000}),
        lambda xv: (x**20000 * y).substitute({"y": x**20000}),
    ],
    ids=["constructor", "repeated-key", "product", "power", "substitute-power",
         "substitute-product"],
)
def test_exponent_overflow_raises(make):
    with pytest.raises(ExponentOverflow):
        make(REGISTRY.lookup("x"))


# -- packed against tuple monomials ----------------------------------------
#
# The reference operations are the tuple-monomial ``Poly`` methods as they
# were before ``Poly`` stored packed ints (frozen copies), with the frozen
# ``poly_mul`` of the engine differential test.


def ref_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_pow(p, k):
    out = {(): 1}
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def ref_substitute(p, amap):
    out = {}
    for m, c in p.items():
        term = {tuple((v, e) for v, e in m if v not in amap): c}
        for v, e in m:
            if v in amap:
                term = poly_mul(term, ref_pow(amap[v], e))
        out = ref_add(out, term)
    return out


def ref_coefficient_in(p, vid, k):
    return {
        tuple((v, e) for v, e in m if v != vid): c
        for m, c in p.items()
        if dict(m).get(vid, 0) == k
    }


def ref_degree_in(p, vid):
    return max((dict(m).get(vid, 0) for m in p), default=NEG_INF)


def ref_variables(p):
    return sorted({v for m in p for v, _ in m})


# ids registered out of block order: pc, pa, pd, pb in turn, and the
# order's blocks are (pb, pd) over (pc, pa); strategy index i is PROP[i]
PROP = tuple(REGISTRY.var(n) for n in ("pc", "pa", "pd", "pb"))
PC, PA, PD, PB = PROP
PROP_ORDER = block_order((PB, PD), (PC, PA))

tuple_monos = st.dictionaries(st.integers(0, 3), st.integers(1, 4), max_size=3).map(
    lambda d: tuple(sorted((PROP[i], e) for i, e in d.items()))
)
tuple_polys = st.dictionaries(tuple_monos, coeffs.filter(bool), max_size=4)


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(
    tuple_polys, tuple_polys, st.integers(0, 3), st.integers(0, 3), st.integers(0, 4)
)
def test_poly_ops_match_tuple_ops(tp, tq, i, k, e):
    v, w = PROP[i], PROP[(i + 1) % 4]
    p, q = Poly(tp), Poly(tq)
    assert dict(p.terms()) == tp
    assert Poly(p.terms()) == p
    assert dict((p + q).terms()) == ref_add(tp, tq)
    assert dict((p * q).terms()) == poly_mul(tp, tq)
    assert dict((p**k).terms()) == ref_pow(tp, k)
    got = p.substitute({v: q, REGISTRY.name(w): 2})
    assert dict(got.terms()) == ref_substitute(tp, {v: tq, w: {(): 2}})
    assert dict(p.coefficient_in(v, e).terms()) == ref_coefficient_in(tp, v, e)
    assert p.degree_in(v) == ref_degree_in(tp, v)
    assert p.variables() == ref_variables(tp)
    if tp:
        slots, width = order_slots(PROP_ORDER)
        lead = max(tp, key=lambda m: mono_key(m, slots, width))
        assert PROP_ORDER.leading(p) == (lead, tp[lead])


def term_by_term_substitute(p, amap):
    """Frozen: the image of each term with every assigned power taken anew."""
    out = Poly.zero()
    for mono, c in p.terms():
        term = Poly.const(c)
        for v, e in mono:
            factor = amap[v] ** e if v in amap else Poly({((v, e),): 1})
            term = term * factor
        out = out + term
    return out


def test_substitute_matches_term_by_term_powers():
    # many terms over few exponents, so one power serves several terms
    rng = random.Random(2030)
    a, b, c, d = PA, PB, PC, PD
    for _ in range(40):
        tp = {}
        for _ in range(12):
            mono = tuple(sorted((v, rng.randint(1, 3)) for v in rng.sample((a, b, c, d), 2)))
            tp[mono] = rng.choice((1, -2, Fraction(3, 4)))
        p = Poly(tp)
        amap = {
            a: Poly({((b, 1),): 1, (): Fraction(-1, 2)}),
            c: Poly({((d, 2), (b, 1)): 3}),
        }
        got = p.substitute(amap)
        want = term_by_term_substitute(p, amap)
        assert got == want
        assert {m: type(v) for m, v in got._t.items()} == {
            m: type(v) for m, v in want._t.items()
        }
