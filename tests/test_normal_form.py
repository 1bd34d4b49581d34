"""Normal forms against the full reduction, around the no-reduction check.

``GroebnerBasis.normal_form`` returns an input none of whose terms a lead
divides without packing or reducing it.  Seeded random inputs over KF3,
E(3,4) and A(2,3,5) must still give exactly the remainder of the frozen
tuple-monomial reduction ``reference_reduce_nd``, coefficient types
included: inputs that are already normal, inputs with one reducible term
at any position of the term dict, and inputs holding integral
``Fraction`` coefficients.  A variable outside the order raises the same
``ForeignVariable`` as the packing path, naming the first foreign term
in dict order, and an already normal input never reaches
``kernel.reduce_nd``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from gring import kernel
from gring.casestudies import build_E, sw_build
from gring.errors import ForeignVariable
from gring.poly import REGISTRY, Poly
from gring.ring import build_KF

from test_engine_differential import (
    mono_div,
    mono_key,
    mono_mul,
    nd_from_frac,
    nd_to_frac,
    order_slots,
    reference_reduce_nd,
)

RINGS = {
    "KF3": build_KF(3),
    "E(3,4)": build_E(3, 4),
    "A(2,3,5)": sw_build(2, 3, 5).A,
}


def _reference_nf(R, p):
    """Remainder of p by R's basis through ``reference_reduce_nd``, as a
    tuple-monomial coefficient dict."""
    slots, width = order_slots(R.order)
    reducers = []
    for b in R.gb.polys:
        lm, _ = R.order.leading(b)
        tail = nd_from_frac(dict(b.terms()))
        del tail[lm]
        reducers.append((lm, tail))
    reducers.sort(key=lambda r: mono_key(r[0], slots, width))
    p = nd_from_frac(dict(p.terms()))
    return nd_to_frac(reference_reduce_nd(p, reducers, slots, width))


def _typed(terms):
    """Coefficient dict with each coefficient's type next to it."""
    return {m: (c, type(c)) for m, c in dict(terms).items()}


def _reducible(R, m):
    leads = (R.order.leading(b)[0] for b in R.gb.polys)
    return any(mono_div(m, lead) is not None for lead in leads)


coeffs = st.one_of(
    st.integers(-5, 5).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
)


@st.composite
def inputs(draw):
    """(ring label, polynomial, whether a term is reducible)."""
    label = draw(st.sampled_from(sorted(RINGS)))
    R = RINGS[label]

    def mono():
        exps = st.dictionaries(
            st.sampled_from(R.vids), st.integers(1, 3), max_size=3
        )
        return tuple(sorted(draw(exps).items()))

    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        m = mono()
        if not _reducible(R, m):
            terms[m] = draw(coeffs)
    items = list(terms.items())
    reducible = draw(st.booleans())
    if reducible:  # one term that a lead divides, at any position
        b = draw(st.sampled_from(R.gb.polys))
        m = mono_mul(R.order.leading(b)[0], mono())
        terms.pop(m, None)
        items = list(terms.items())
        items.insert(draw(st.integers(0, len(items))), (m, draw(coeffs)))
    p = Poly(items)
    # integral Fraction coefficients, which the constructors never store
    forced = draw(st.lists(st.booleans(), min_size=len(p._t), max_size=len(p._t)))
    p = Poly._raw(
        {m: Fraction(c) if f else c for (m, c), f in zip(p._t.items(), forced)}
    )
    return label, p, reducible


@seed(20261019)
@settings(max_examples=150, deadline=None)
@given(inputs())
def test_normal_form_is_the_full_reduction(case):
    label, p, reducible = case
    R = RINGS[label]
    got = R.gb.normal_form(p)
    assert _typed(got.terms()) == _typed(_reference_nf(R, p))
    assert R.nf(p) == got
    if not reducible:
        assert got == p


FOREIGN_A = Poly.variable("nf_foreign_a")
FOREIGN_B = Poly.variable("nf_foreign_b")


@pytest.mark.parametrize("where", ["none", "before", "after"])
@pytest.mark.parametrize("label", sorted(RINGS))
def test_foreign_variable_of_the_first_foreign_term(label, where):
    R = RINGS[label]
    assert REGISTRY.lookup("nf_foreign_a") < REGISTRY.lookup("nf_foreign_b")
    v = Poly.variable(REGISTRY.name(R.vids[0]))
    lead, _ = R.order.leading(R.gb.polys[-1])
    (red,) = Poly({lead: 1})._t.items()
    # b comes first in dict order, a has the lower id: the packing path
    # names b, a check of all terms together would name a
    items = [*(v * FOREIGN_B)._t.items(), *FOREIGN_A._t.items()]
    if where == "before":
        items.insert(0, red)
    elif where == "after":
        items.append(red)
    p = Poly._raw(dict(items))
    for nf in (R.nf, R.gb.normal_form):
        with pytest.raises(ForeignVariable, match="'nf_foreign_b'"):
            nf(p)


def test_normal_input_is_neither_reduced_nor_converted(monkeypatch):
    KF3 = RINGS["KF3"]
    KF3.gb.leading_monomials()  # the leads are found once, by packing

    def fail(*args, **kwargs):
        raise AssertionError("the normal input was packed or reduced")

    monkeypatch.setattr(kernel, "reduce_nd", fail)
    monkeypatch.setattr(kernel.Packing, "pack_nd", fail)
    monkeypatch.setattr(kernel.Packing, "to_frac", fail)
    lam1, m12, w123 = KF3.lam(1), KF3.m(1, 2), KF3.w(1, 2, 3)
    p = lam1**200 * w123 + Fraction(1, 3) * m12 - 5
    assert KF3.nf(p) == p
    with pytest.raises(AssertionError, match="packed or reduced"):
        KF3.nf(w123 * w123)
