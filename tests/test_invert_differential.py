"""Differential test of ``ring.invert`` against the engine it replaced.

``reference_invert`` below is a frozen copy of ``ring.invert`` as it was
when it ran a second Buchberger engine of its own: ``Fraction``
coefficients, cofactors over every generator, no chain criterion, no sugar.
Inverses are normal forms modulo the ambient relations, so they are
canonical: on every input both must return the same inverse, or both must
raise NotAUnit.

Inputs: every ``invert`` call ``boyer_certificate`` makes over the
benchmark's certify grid for seeded words, the three sine inverses of the
five properness rings, and seeded sparse elements of E(s,t).  The engine
now works on packed-integer monomials; the reference keeps tuple monomials,
with the frozen tuple-monomial helpers of ``test_engine_differential``.
"""

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush

import pytest

from gring import casestudies, kernel, ring
from gring.casestudies import BoyerInstance, build_E, sw_build
from gring.errors import NotAUnit
from gring.poly import Poly
from gring.words import Word

from test_engine_differential import (
    mono_coprime,
    mono_deg,
    mono_div,
    mono_key,
    mono_lcm,
    mono_mul,
    mono_neg_key,
    order_slots,
)


def _mul_mono(p, mono, coeff):
    return {mono_mul(m, mono): v * coeff for m, v in p.items()}


def _cof_reduce(p, rep, basis, order):
    slots, width = order_slots(order)
    work = dict(p)
    out = {}
    rep = [dict(r) for r in rep]
    cache = {}
    heap = []
    for m in work:
        k = mono_neg_key(m, slots, width)
        cache[m] = k
        heap.append((k, m))
    heapify(heap)
    while heap:
        _, m = heappop(heap)
        c = work.get(m)
        if not c:
            continue
        hit = None
        for lm, lc, d, brep in basis:
            q = mono_div(m, lm)
            if q is not None:
                hit = (q, lm, lc, d, brep)
                break
        del work[m]
        if hit is None:
            out[m] = c
            continue
        q, lm, lc, d, brep = hit
        factor = c / lc
        for tm, tc in d.items():
            if tm == lm:
                continue
            nm = mono_mul(tm, q)
            prev = work.get(nm)
            if prev is None:
                v = -factor * tc
                if v:
                    work[nm] = v
                    k = cache.get(nm)
                    if k is None:
                        k = mono_neg_key(nm, slots, width)
                        cache[nm] = k
                    heappush(heap, (k, nm))
            else:
                v = prev - factor * tc
                if v:
                    work[nm] = v
                else:
                    del work[nm]
        for gi, gr in enumerate(brep):
            if gr:
                rep[gi] = kernel.poly_add(rep[gi], _mul_mono(gr, q, -factor))
    return out, rep


def _cof_finish(basis):
    polys = []
    reps = []
    for lm, lc, d, rep in basis:
        inv = Fraction(1) / Fraction(lc)
        polys.append(Poly({m: c * inv for m, c in d.items()}))
        reps.append([Poly({m: c * inv for m, c in r.items()}) for r in rep])
    return polys, reps


def reference_groebner_with_cofactors(gens, order):
    """The cofactor engine before it was folded into buchberger."""
    slots, width = order_slots(order)
    n = len(gens)
    basis = []  # (lead, lead_coeff, dict, rep)
    pairs = []
    pending = set()

    def add(d, rep):
        lm = max(d, key=lambda m: mono_key(m, slots, width))
        basis.append((lm, d[lm], d, rep))
        k = len(basis) - 1
        for i in range(k):
            lmi = basis[i][0]
            if mono_coprime(lmi, lm):
                continue
            lcm = mono_lcm(lmi, lm)
            heappush(
                pairs,
                (mono_deg(lcm), mono_key(lcm, slots, width), i, k),
            )
            pending.add((i, k))

    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        rep = [{} for _ in range(n)]
        rep[i] = {(): Fraction(1)}
        r, rrep = _cof_reduce(dict(g.terms()), rep, basis, order)
        if r:
            add(r, rrep)
            if len(r) == 1 and () in r:
                return _cof_finish(basis)

    while pairs:
        _, _, i, j = heappop(pairs)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        lmi, lci, di, repi = basis[i]
        lmj, lcj, dj, repj = basis[j]
        lcm = mono_lcm(lmi, lmj)
        qi = mono_div(lcm, lmi)
        qj = mono_div(lcm, lmj)
        s = kernel.poly_add(
            _mul_mono(di, qi, Fraction(1) / lci),
            _mul_mono(dj, qj, Fraction(-1) / lcj),
        )
        rep = [
            kernel.poly_add(
                _mul_mono(repi[t], qi, Fraction(1) / lci),
                _mul_mono(repj[t], qj, Fraction(-1) / lcj),
            )
            for t in range(n)
        ]
        if not s:
            continue
        r, rrep = _cof_reduce(s, rep, basis, order)
        if r:
            add(r, rrep)
            if len(r) == 1 and () in r:
                return _cof_finish(basis)

    return _cof_finish(basis)


def reference_invert(elem, ambient):
    """``ring.invert`` on the old cofactor engine (frozen copy)."""
    gens = list(ambient.gb.polys) + [elem]
    basis, reps = reference_groebner_with_cofactors(gens, ambient.order)
    for b, rep in zip(basis, reps):
        if b.is_constant() and not b.is_zero():
            inv = ambient.nf(rep[-1] * (Fraction(1) / b.constant_term()))
            residue = ambient.nf(elem * inv - Poly.one())
            assert residue.is_zero()
            return inv
    raise NotAUnit(elem.render())


def _outcome(invert, elem, ambient):
    try:
        return invert(elem, ambient).render()
    except NotAUnit:
        return NotAUnit


def _assert_same_as_reference(cases):
    """Equal outcomes on every case; returns how many were not units."""
    assert cases
    non_units = 0
    for elem, ambient in cases:
        got = _outcome(ring.invert, elem, ambient)
        assert got == _outcome(reference_invert, elem, ambient), (
            elem.render(),
            ambient.label,
        )
        non_units += got is NotAUnit
    return non_units


def _unit_sum_word(rng, moduli, length):
    """A freely reduced word of ``length`` letters, then g_i^k appended so
    each exponent sum is 1 modulo the factor order."""
    sylls = []
    while len(sylls) < length:
        g, e = rng.randint(1, len(moduli)), rng.choice((1, -1))
        if not (sylls and sylls[-1] == (g, -e)):
            sylls.append((g, e))
    w = Word.from_syllables(sylls)
    for i, mod in enumerate(moduli, start=1):
        need = (1 - w.exponent_sum(i)) % mod
        if need:
            w = w * Word.generator(i, need)
    return w


CERTIFY_GRID = tuple((s, t, r) for s in (3, 5) for t in (4, 7) for r in (2, 3, 4))


def test_boyer_certificate_inverses(monkeypatch):
    cases = []
    real_invert = casestudies.invert

    def recording_invert(elem, ambient, deadline=None):
        cases.append((elem, ambient))
        return real_invert(elem, ambient, deadline=deadline)

    monkeypatch.setattr(casestudies, "invert", recording_invert)
    rng = random.Random(20261018)
    for _ in range(8):
        for s, t, r in CERTIFY_GRID:
            w = _unit_sum_word(rng, (s, t), 4)
            casestudies.boyer_certificate(BoyerInstance(s, t, r, w))
    monkeypatch.undo()
    # zero-divisor coefficients are skipped on the way down: both
    # decisions occur
    assert 0 < _assert_same_as_reference(cases) < len(cases)


PROPERNESS_ORDERS = ((2, 3, 5), (2, 3, 7), (2, 3, 9), (2, 4, 5), (2, 5, 7))


def test_sine_inverses():
    cases = []
    for r, s, t in PROPERNESS_ORDERS:
        eprime = sw_build(r, s, t).eprime
        for i in (1, 2, 3):
            cases.append((Poly.variable(f"s{i}"), eprime))
    _assert_same_as_reference(cases)


def _sparse_element(rng, E):
    """Shape rule: at most four terms in mu1, mu2, s1, s2, each of total
    degree at most 4, coefficients in -3..3.  With five terms of degree at
    most 5, single E(3,7) elements kept the reference busy for over 10 s."""
    names = ("mu1", "mu2", "s1", "s2")
    p = Poly.zero()
    for _ in range(rng.randint(1, 4)):
        term = Poly.const(rng.choice((-3, -2, -1, 1, 2, 3)))
        for _ in range(rng.randint(0, 4)):
            term = term * Poly.variable(rng.choice(names))
        p = p + term
    return E.nf(p)


@pytest.mark.parametrize("s,t", [(3, 4), (3, 7), (5, 4), (5, 7)])
def test_seeded_E_elements(s, t):
    E = build_E(s, t)
    rng = random.Random(1000 * s + t)
    cases = [(_sparse_element(rng, E), E) for _ in range(20)]
    _assert_same_as_reference([c for c in cases if not c[0].is_zero()])
