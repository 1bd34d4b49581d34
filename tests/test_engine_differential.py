"""Differential test of the Buchberger engine against its predecessor.

``reference_buchberger`` below is a frozen copy of ``groebner.buchberger``
as it was before the chain criterion got its support-bitmask and degree
prefilter: it tests every lead with ``mono_div``, and it finishes the basis
by interreducing until nothing changes.  The prefilter only skips
divisibility tests that would fail, so on every input both engines must
return the same reduced basis.  The engine also leaves virtual the pairs
with a retired element that the reference pushes and pops: the relation
bases of E and KF still reduce the same pairs, while the properness and
criterion-8 ideals must reduce in all no more pairs than the reference.
Every record's basis is compared before any count.  Pairs reduced
are counted as calls of ``kernel.reduce_nd`` before the finish: the
engine's one-pass finish makes one call per element after the first, and
the reference's fixpoint loop makes at least two passes.  The engine now
works on packed-integer monomials; the reference keeps tuple monomials,
with frozen copies of the tuple-monomial kernel that ``Poly`` used before
it stored packed ints (``mono_mul``, ``mono_div``, ``mono_lcm``,
``poly_mul``) and of the reduction the engine no longer uses
(``reference_reduce_nd`` and its helpers), and its reductions count on the
same counter as the engine's ``kernel.reduce_nd`` calls.  It reads its
inputs through ``Poly.terms()`` and builds its results with ``Poly(terms)``.
The order comparisons of the reference use a frozen copy of the tuple
key that ``MonomialOrder`` once kept next to its packing (``order_slots``,
``mono_key``, ``mono_deg``); the other differential, packing and
``Poly`` tests import these copies from here.

Inputs are recorded from the ring constructions and ideal bases gring
builds: the properness ideals of ``sw_elements`` in A(r,s,t), the relation
bases of E(s,t), KF2 and KF3, and seeded criterion-8 ideals.
"""

import random
from bisect import insort
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

import pytest

from gring import kernel, ring
from gring.casestudies import SWInstance, SWRings, make_E, sw_elements
from gring.groebner import GroebnerBasis, buchberger
from gring.ideals import bullet_generators, hash_generators, hashhash_generators
from gring.poly import Poly
from gring.words import Word


def order_slots(order):
    """Layout of ``order``'s tuple key: a map from variable id to its
    (degree slot, exponent slot), and the key width."""
    slots = {}
    base = 0
    for b in order.blocks:
        n = len(b)
        for i, vid in enumerate(b):
            slots[vid] = (base, base + 1 + (n - 1 - i))
        base += 1 + n
    return slots, base


def mono_key(m, slots, width):
    """Flat comparison key; lexicographically bigger = bigger monomial."""
    k = [0] * width
    for vid, e in m:
        ds, es = slots[vid]
        k[ds] += e
        k[es] = -e
    return tuple(k)


def mono_deg(a):
    d = 0
    for _, e in a:
        d += e
    return d


def mono_neg_key(m, slots, width):
    k = [0] * width
    for vid, e in m:
        ds, es = slots[vid]
        k[ds] -= e
        k[es] = e
    return tuple(k)


def mono_coprime(a, b):
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va = a[i][0]
        vb = b[j][0]
        if va == vb:
            return False
        if va < vb:
            i += 1
        else:
            j += 1
    return True


def mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_div(a, b):
    """Return a/b as a monomial, or None when b does not divide a."""
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while j < lb:
        if i >= la:
            return None
        va, ea = a[i]
        vb, eb = b[j]
        if va < vb:
            out.append(a[i])
            i += 1
        elif va > vb:
            return None
        else:
            if ea < eb:
                return None
            if ea > eb:
                out.append((va, ea - eb))
            i += 1
            j += 1
    out.extend(a[i:])
    return tuple(out)


def mono_lcm(a, b):
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea if ea >= eb else eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def poly_mul(p, q):
    if len(p) > len(q):
        p, q = q, p
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            nm = mono_mul(m1, m2)
            prev = out.get(nm)
            if prev is None:
                out[nm] = c1 * c2
            else:
                s = prev + c1 * c2
                if s:
                    out[nm] = s
                else:
                    del out[nm]
    return out


def nd_from_frac(p):
    return {m: (c.numerator, c.denominator) for m, c in p.items()}


def nd_to_frac(p):
    return {m: n if d == 1 else Fraction(n, d) for m, (n, d) in p.items()}


def reference_reduce_nd(p, reducers, slots, width):
    """``kernel.reduce_nd`` on tuple monomials (frozen copy)."""
    work = dict(p)
    out = {}
    if not work:
        return out
    red_neg_keys = [mono_neg_key(lm, slots, width) for lm, _ in reducers]
    cache = {}
    heap = []
    for m in work:
        k = mono_neg_key(m, slots, width)
        cache[m] = k
        heap.append((k, m))
    heapify(heap)
    while heap:
        nk, m = heappop(heap)
        c = work.get(m)
        if c is None:
            continue
        quotient = None
        tail = None
        for idx, (lm, t) in enumerate(reducers):
            if red_neg_keys[idx] < nk:
                break  # this and all later leads are bigger than m
            q = mono_div(m, lm)
            if q is not None:
                quotient = q
                tail = t
                break
        del work[m]
        if quotient is None:
            out[m] = c
            continue
        cn, cd = c
        for tm, tc in tail.items():
            nm = mono_mul(tm, quotient)
            tn, td = tc
            g1 = gcd(cn, td)
            g2 = gcd(tn, cd)
            dn = (cn // g1) * (tn // g2)  # delta = c*t; subtracted below
            dd = (cd // g2) * (td // g1)
            prev = work.get(nm)
            if prev is None:
                work[nm] = (-dn, dd)
                k = cache.get(nm)
                if k is None:
                    k = mono_neg_key(nm, slots, width)
                    cache[nm] = k
                heappush(heap, (k, nm))
            else:
                pn, pd = prev
                g = gcd(pd, dd)
                num = pn * (dd // g) - dn * (pd // g)
                if num == 0:
                    del work[nm]
                    continue
                den = pd * (dd // g)
                g2 = gcd(num, den)
                if g2 > 1:
                    num //= g2
                    den //= g2
                work[nm] = (num, den)
    return out


def reference_buchberger(gens, order, finish_started=lambda: None):
    """The engine before the support-bitmask prefilter (frozen copy);
    ``finish_started`` is called where the interreduction begins."""
    slots, width = order_slots(order)

    def lead_key(p):
        return max(mono_key(m, slots, width) for m, _ in p.terms())

    basis = []  # append-only: (lead_mono, monic dict, sugar, lead_key)
    reducers = []  # sorted [(lead_key, lead_mono, tail)], leads pairwise
    # non-divisible: new elements are normal forms, old leads divisible by
    # a new lead get pruned
    pairs = []  # heap of (sugar, lcm_key, i, j); stale entries skipped
    pending = set()

    def reduce_full(d):
        if not reducers:
            return d
        return reference_reduce_nd(
            d, [(lm, tail) for _, lm, tail in reducers], slots, width
        )

    def add_element(d):
        """Monic-normalize, install as basis element, update pair queue."""
        lm = max(d, key=lambda m: mono_key(m, slots, width))
        d = kernel.nd_monic(d, lm)
        k = len(basis)
        key_k = mono_key(lm, slots, width)
        sugar_k = max(mono_deg(m) for m in d)
        basis.append((lm, d, sugar_k, key_k))
        for i in range(k):
            lmi, _, sugar_i, _ = basis[i]
            if mono_coprime(lmi, lm):
                continue  # product criterion: the S-pair reduces to zero
            lcm = mono_lcm(lmi, lm)
            dl = mono_deg(lcm)
            sug = max(
                sugar_i + dl - mono_deg(lmi),
                sugar_k + dl - mono_deg(lm),
            )
            heappush(pairs, (sug, mono_key(lcm, slots, width), i, k))
            pending.add((i, k))
        # the new lead retires any reducer it divides (stale entries keep
        # serving the pair bookkeeping, just not reductions)
        keep = [e for e in reducers if mono_div(e[1], lm) is None]
        if len(keep) != len(reducers):
            reducers[:] = keep
        insort(
            reducers,
            (key_k, lm, {m: c for m, c in d.items() if m != lm}),
        )

    seeds = sorted(
        (g for g in gens if not g.is_zero()),
        key=lead_key,
    )
    for g in seeds:
        r = reduce_full(nd_from_frac(dict(g.terms())))
        if r:
            add_element(r)

    while pairs:
        _, _, i, j = heappop(pairs)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        lmi, di, _, _ = basis[i]
        lmj, dj, _, _ = basis[j]
        lcm = mono_lcm(lmi, lmj)
        skip = False
        for t in range(len(basis)):
            if t == i or t == j:
                continue
            if mono_div(lcm, basis[t][0]) is None:
                continue
            a, b = (i, t) if i < t else (t, i)
            c, e = (j, t) if j < t else (t, j)
            if (a, b) not in pending and (c, e) not in pending:
                skip = True  # chain criterion
                break
        if skip:
            continue
        qi = mono_div(lcm, lmi)
        qj = mono_div(lcm, lmj)
        s = kernel.nd_sub(
            {mono_mul(m, qi): c for m, c in di.items()},
            {mono_mul(m, qj): c for m, c in dj.items()},
        )
        if not s:
            continue
        r = reduce_full(s)
        if r:
            add_element(r)

    # The surviving reducers are a minimal basis; tail-reduce to make the
    # result canonical.  Leads are pairwise non-divisible, so reduction
    # never touches a lead and the elements stay monic and nonzero.
    finish_started()
    final = []
    for _, lm, tail in reducers:
        d = dict(tail)
        d[lm] = (1, 1)
        final.append((lm, d))
    changed = True
    while changed:
        changed = False
        for i in range(len(final)):
            others = [
                (lm, {m: c for m, c in d.items() if m != lm})
                for j, (lm, d) in enumerate(final)
                if j != i
            ]
            r = reference_reduce_nd(final[i][1], others, slots, width)
            if r != final[i][1]:
                changed = True
                final[i] = (final[i][0], r)
    polys = [Poly(nd_to_frac(d)) for _, d in final]
    polys.sort(key=lead_key)
    return GroebnerBasis(polys, order)


@pytest.fixture
def recorded(monkeypatch):
    """Count ``kernel.reduce_nd`` and ``reference_reduce_nd`` calls and
    record every basis computed through ``gring.ring`` as (gens, order,
    polys, reduce_nd calls)."""
    counter = [0]

    def counting(reduce):
        def counting_reduce(*args):
            counter[0] += 1
            return reduce(*args)

        return counting_reduce

    records = []

    def recording_buchberger(gens, order, deadline=None):
        gens = list(gens)
        before = counter[0]
        polys = buchberger(gens, order).polys
        records.append((gens, order, polys, counter[0] - before))
        return GroebnerBasis(polys, order)

    monkeypatch.setattr(kernel, "reduce_nd", counting(kernel.reduce_nd))
    monkeypatch.setitem(
        globals(), "reference_reduce_nd", counting(reference_reduce_nd)
    )
    monkeypatch.setattr(ring, "buchberger", recording_buchberger)
    return records, counter


def _reduced_pairs(records, counter):
    """Pairs reduced by the engine and by the reference on each record,
    after every basis has been compared with the reference's."""
    assert records
    counts = []
    for gens, order, polys, calls in records:
        before = counter[0]
        finish = []
        ref_polys = reference_buchberger(
            gens, order, lambda: finish.append(counter[0])
        ).polys
        assert polys == ref_polys
        # pairs reduced: the calls before the finish
        counts.append((calls - max(len(polys) - 1, 0), finish[0] - before))
    return counts


def _assert_same_as_reference(records, counter):
    """Equal bases, and equal pairs reduced on every record."""
    for engine, reference in _reduced_pairs(records, counter):
        assert engine == reference


def _assert_no_more_reduced_than_reference(records, counter):
    """Equal bases, and in all no more pairs reduced than the reference.

    The engine leaves a pair with a retired element virtual, where the
    reference pushes every pair, so the two reduce different pairs: one
    run may reduce more than the reference and another fewer."""
    counts = _reduced_pairs(records, counter)
    assert sum(e for e, _ in counts) <= sum(r for _, r in counts)


def _word(rng, n, length):
    """Freely reduced word of exactly ``length`` letters."""
    sylls = []
    while len(sylls) < length:
        g, e = rng.randint(1, n), rng.choice((1, -1))
        if not (sylls and sylls[-1] == (g, -e)):
            sylls.append((g, e))
    return Word.from_syllables(sylls)


PROPERNESS_ORDERS = ((2, 3, 5), (2, 3, 7), (2, 3, 9), (2, 4, 5), (2, 5, 7))


def properness_word(rng, orders):
    """Each generator once, in a seeded order; a factor of order 2 or 3
    may get the exponent 1 - order instead of 1."""
    gens = [1, 2, 3]
    rng.shuffle(gens)
    return Word.from_syllables(
        (g, rng.choice((1, 1 - orders[g - 1])) if orders[g - 1] <= 3 else 1)
        for g in gens
    )


def test_properness_ideals(recorded):
    rng = random.Random(20261018)
    for r, s, t in PROPERNESS_ORDERS:
        word = properness_word(rng, (r, s, t))
        # built uncached, so the E' and A relation bases are recorded too
        rings = SWRings(r, s, t)
        rings.A.ideal_gb(sw_elements(SWInstance(r, s, t, word), rings))
    _assert_no_more_reduced_than_reference(*recorded)


def test_E_relation_bases(recorded):
    for s in (3, 5):
        for t in (4, 7):
            make_E(s, t)  # uncached: build_E may hand back an earlier ring
    _assert_same_as_reference(*recorded)


def test_KF_relation_bases(recorded):
    ring.KFRing(2)
    ring.KFRing(3)
    _assert_same_as_reference(*recorded)


def test_criterion8_ideals(recorded):
    # Conjugates of 3-letter F3 words are left out: some take minutes.
    rng = random.Random(20261018)
    for n, length, count in ((2, 5, 12), (3, 2, 8), (3, 3, 16)):
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
    _assert_no_more_reduced_than_reference(*recorded)
