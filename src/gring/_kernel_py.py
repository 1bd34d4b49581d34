"""Pure-Python kernel for the hot polynomial loops.

Monomials are tuples of ``(variable_id, exponent)`` pairs sorted by id with
strictly positive exponents; polynomials at this level are plain dicts
mapping monomial to coefficient.

Order data comes in as ``slots`` (dict: variable id -> (degree_slot,
exponent_slot) in a flat key vector) plus the key ``width``.  Keys compare
so that bigger key = bigger monomial; the heap-based reduction loops use
negated keys with ``heapq``.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd


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


def mono_deg(a):
    d = 0
    for _, e in a:
        d += e
    return d


def mono_key(m, slots, width):
    """Flat comparison key; lexicographically bigger = bigger monomial."""
    k = [0] * width
    for vid, e in m:
        ds, es = slots[vid]
        k[ds] += e
        k[es] = -e
    return tuple(k)


def mono_neg_key(m, slots, width):
    k = [0] * width
    for vid, e in m:
        ds, es = slots[vid]
        k[ds] -= e
        k[es] = e
    return tuple(k)


def poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        prev = out.get(m)
        if prev is None:
            out[m] = c
        else:
            s = prev + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


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


def poly_scale(p, c):
    if not c:
        return {}
    return {m: v * c for m, v in p.items()}


def nd_from_frac(p):
    """Exact-rational coefficient dict -> normalized (num, den) pair dict."""
    return {m: (c.numerator, c.denominator) for m, c in p.items()}


def nd_to_frac(p):
    """(num, den) pair dict -> coefficient dict: ``int`` when den is 1."""
    return {m: n if d == 1 else Fraction(n, d) for m, (n, d) in p.items()}


def nd_scale(p, sn, sd):
    """p * (sn/sd) on (num, den) pair dicts, sn and sd nonzero; den stays > 0."""
    if sn == 1 and sd == 1:
        return p
    out = {}
    for m, (n, d) in p.items():
        g1 = gcd(n, sd)
        g2 = gcd(sn, d)
        num = (n // g1) * (sn // g2)
        den = (d // g2) * (sd // g1)
        if den < 0:
            num, den = -num, -den
        out[m] = (num, den)
    return out


def nd_monic(p, lead_mono):
    """Divide through by the coefficient of ``lead_mono``; den stays > 0."""
    ln, ld = p[lead_mono]
    return nd_scale(p, ld, ln)


def nd_sub(p, q):
    """p - q on (num, den) pair dicts."""
    out = dict(p)
    _nd_isub(out, q)
    return out


def _nd_isub(acc, q):
    """acc -= q in place, on (num, den) pair dicts."""
    for m, (bn, bd) in q.items():
        prev = acc.get(m)
        if prev is None:
            acc[m] = (-bn, bd)
            continue
        an, ad = prev
        g = gcd(ad, bd)
        num = an * (bd // g) - bn * (ad // g)
        if num == 0:
            del acc[m]
            continue
        den = ad * (bd // g)
        g2 = gcd(num, den)
        if g2 > 1:
            num //= g2
            den //= g2
        acc[m] = (num, den)


def _nd_term_mul(p, mono, cn, cd):
    """(cn/cd) * mono * p on (num, den) pair dicts."""
    out = {}
    for m, (tn, td) in p.items():
        g1 = gcd(cn, td)
        g2 = gcd(tn, cd)
        out[mono_mul(m, mono)] = ((cn // g1) * (tn // g2), (cd // g2) * (td // g1))
    return out


def reduce_nd(p, reducers, slots, width, cofactor=None):
    """Full normal form over normalized (num, den) integer pairs.

    ``reducers`` is a list of ``(lead_monomial, tail_dict)`` pairs with
    leading coefficient 1 (the lead excluded from the tail), sorted by
    ascending lead; the first divisor in list order wins, making the
    reduction deterministic.  A divisor's lead never exceeds the term it
    divides, so the scan stops at the first reducer ordered above the
    current term.

    ``cofactor``, when given, is a pair ``(cof, reducer_cofs)``: the
    cofactor dict of ``p`` and one cofactor dict per reducer.  Each step
    that subtracts ``c * x^q`` times a reducer subtracts the same multiple
    of its cofactor from ``cof``, in place.
    """
    work = dict(p)
    out = {}
    if not work:
        return out
    cof, reducer_cofs = cofactor if cofactor is not None else (None, None)
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
        if cof is not None:
            _nd_isub(cof, _nd_term_mul(reducer_cofs[idx], quotient, cn, cd))
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
