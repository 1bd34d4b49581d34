"""The coefficient contract: an exact rational, stored as an ``int`` when
integral and as a ``Fraction`` only for a true fraction, never a float.

Constructors and kernel outputs hold it strictly.  Plain ``Fraction``
arithmetic may still leave an integral ``Fraction`` inside a sum or
product; that compares, hashes and renders like the ``int``, which the
differential test at the end checks against all-``Fraction`` inputs.
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from gring.casestudies import build_E
from gring.poly import REGISTRY, Poly, chebyshev_like, degrevlex, parse_poly
from gring.ring import build_KF, invert

KF3 = build_KF(3)
KF3_NAMES = ("lam1", "lam2", "lam3", "m12", "m13", "m23", "w123")


def _strict(p: Poly):
    """Every coefficient is an int, or a Fraction with denominator > 1."""
    for _, c in p.terms():
        if type(c) is int:
            continue
        assert type(c) is Fraction and c.denominator > 1, (p.render(), c)


def _exact(p: Poly):
    for _, c in p.terms():
        assert type(c) in (int, Fraction), (p.render(), c)


def test_constants():
    for c in (3, Fraction(6, 2), Fraction(-4, 1), True):
        p = Poly.const(c)
        _strict(p)
        assert p.constant_term() == c
    half = Poly.const(Fraction(1, 2)).constant_term()
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert type(Poly.zero().constant_term()) is int


def test_parsed_and_built_polys():
    p = parse_poly("3*x - 1/2")
    _strict(p)
    assert dict(p.terms()) == {
        ((REGISTRY.lookup("x"), 1),): 3,
        (): Fraction(-1, 2),
    }
    _strict(Poly({(): Fraction(8, 4), ((0, 1),): 5}))
    _strict(Poly.variable("x"))
    for n in (-6, -1, 0, 1, 5, 12):
        _strict(chebyshev_like(n))


def test_ring_symbols():
    for i in (1, 2, 3):
        _strict(KF3.lam(i))
        for j in (1, 2, 3):
            _strict(KF3.m(i, j))
    for ijk in ((1, 2, 3), (3, 2, 1), (1, 1, 2)):
        _strict(KF3.w(*ijk))
        _strict(KF3.w_signed(*ijk)[1])


def test_kernel_outputs():
    lam1, m12, w123 = KF3.lam(1), KF3.m(1, 2), KF3.w(1, 2, 3)
    _strict(KF3.nf(w123 * w123 - 3 * lam1 * m12))
    _strict(KF3.gb.normal_form(Poly.const(Fraction(1, 3)) * w123 * w123))
    for p in KF3.gb.polys:
        _strict(p)
    E = build_E(3, 4)
    for text in ("s1", "mu2 + 2", "s1*s2 + 3*mu1"):
        inv = invert(E.nf(parse_poly(text)), E)
        _strict(inv)
        assert E.nf(parse_poly(text) * inv) == 1


@pytest.mark.parametrize("label", ["KF2", "KF3", "E(3,4)"])
def test_nf_stores_integral_coefficients_as_int(label):
    R = {
        "KF2": lambda: build_KF(2),
        "KF3": lambda: KF3,
        "E(3,4)": lambda: build_E(3, 4),
    }[label]()
    one = Poly.const(Fraction(1, 2)) * 2  # holds Fraction(1, 1)
    assert type(one.constant_term()) is Fraction
    v = Poly.variable(REGISTRY.name(R.vids[-1]))
    inputs = [one * v, one * v * v + Fraction(3, 2) * v - one]  # normal
    for b in R.gb.polys[:2]:  # reducible
        inputs.append(one * b * v + one * v)
    for p in inputs:
        got = R.nf(p)
        _strict(got)
        assert R.nf(got) == got


def test_monic_is_exact_not_float():
    x = Poly.variable("x")
    order = degrevlex([REGISTRY.lookup("x")])
    xm = ((REGISTRY.lookup("x"), 1),)
    p = order.monic(2 * x + 1)
    _strict(p)
    assert dict(p.terms()) == {xm: 1, (): Fraction(1, 2)}
    assert type(dict(p.terms())[xm]) is int
    assert type(p.constant_term()) is Fraction
    q = order.monic(Fraction(2, 3) * x - 4)
    _strict(q)
    assert q == x - 6 and q.render() == "x - 6"
    # a lead of -1 negates; an integer lead divides exactly
    for p, want in (
        (1 - x * x, x * x - 1),
        (-2 * x * x + 4 * x - 3, x * x - 2 * x + Fraction(3, 2)),
        (6 * x - 4, x - Fraction(2, 3)),
        (-3 * x + 6, x - 2),
        (x * x + Fraction(1, 2) + Fraction(1, 2), x * x + 1),
    ):
        got = order.monic(p)
        _strict(got)
        assert got == want, (p.render(), got.render())


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Poly({(): 0.5})
    with pytest.raises(TypeError):
        Poly.const(1.0)


# -- differential: int-or-Fraction inputs against all-Fraction inputs --------

coeffs = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
monos = st.dictionaries(
    st.sampled_from(KF3_NAMES), st.integers(1, 2), max_size=2
)
terms = st.lists(st.tuples(monos, coeffs), max_size=3)


def _pair(term_list):
    """The same polynomial twice: as the constructors store it, and with
    every coefficient forced to a ``Fraction``."""
    p = Poly.zero()
    for mono, c in term_list:
        t = Poly.const(c)
        for name, e in mono.items():
            t = t * Poly.variable(name) ** e
        p = p + t
    # the stored dict: the constructors would turn an integral Fraction
    # back into an int
    forced = Poly._raw({m: Fraction(c) for m, c in p._t.items()})
    return p, forced


def _results(p, q, k):
    return [
        p + q,
        p - q,
        p * q,
        p ** k,
        p.substitute({"lam1": q, "m23": 2}),
        KF3.order.monic(p),
        KF3.nf(p * q + q),
    ]


@seed(20261019)
@settings(max_examples=80, deadline=None)
@given(terms, terms, st.integers(0, 3))
def test_int_storage_matches_all_fraction_inputs(tp, tq, k):
    p, pf = _pair(tp)
    q, qf = _pair(tq)
    for got, ref in zip(_results(p, q, k), _results(pf, qf, k)):
        _exact(got)
        assert got == ref
        assert got.render() == ref.render()
    _strict(KF3.nf(p * q + q))
    _strict(KF3.nf(pf * qf + qf))
