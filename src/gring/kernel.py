"""The hot polynomial loops.

A monomial is one Python int throughout.  ``Poly`` stores a coefficient
dict keyed by monomials in the registry layout: variable ``vid`` owns the
``EXP_BITS``-wide field at bit ``vid * EXP_BITS``, whose top bit is a
guard bit that a valid monomial leaves clear, so an exponent is at most
``EXP_MAX``.  The constant monomial is ``0``.  The product of two
monomials is their sum: fields of at most ``EXP_MAX`` never carry into
the next one, and a guard bit that comes on is an exponent overflow.

Reduction works on a second layout, a ``Packing`` made for one block
order.  The int is a row of ``bits``-wide fields, two per variable; the
top bit of each field is again a guard bit.  The low half holds the
exponents: each block ``v_1..v_k`` has ``k`` adjacent fields with ``e_1``
lowest, and the leftmost block lies highest.  The high half holds the
order key in the same block layout: the prefix sums ``P_i = e_1 + ... +
e_i``, so that ``P_k``, the block degree, is each block's most
significant field.  Degrevlex in a block compares the degree, then
prefers the smaller ``e_k``, then the smaller ``e_{k-1}``..., which is
comparing ``P_k, P_{k-1}, ...`` in turn; so ``<`` on the ints is the
block order.  Every field is linear in the exponents, hence:

* the product of ``a`` and ``b`` is ``a + b``; a field passing its guard
  bit raises ``FieldOverflow`` and the caller repacks wider;
* with ``G`` the mask of all guard bits, ``l`` divides ``m`` exactly when
  ``((m | G) - l) & G == G`` (no field of ``m`` is below ``l``'s, and the
  prefix sums follow the exponents), and then ``m / l`` is ``m - l``;
* the lcm takes the fieldwise maximum of the exponent fields with the same
  guard-bit trick, and rebuilds each block's key with one multiplication
  by ``1 + 2^bits + 2^(2 bits) + ...``, which sums the prefixes.

``Packing.pack_nd`` and ``Packing.to_frac`` convert between the two
layouts on the way into and out of the engine: for every ``buchberger``
run, and for a normal form only when a lead divides one of the input's
terms (an input already in normal form is never converted).
Coefficients in the reduction loops are normalized ``(num, den)`` pairs.

No function here calls ``reduce_nd``, so a run-time tracer that wraps that
name sees only the calls from outside.
"""

import time
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .errors import ExponentOverflow, GroebnerTimeout

#: Width in bits, guard bit included, of a variable's field in a ``Poly``
#: monomial, the mask of one field, and the largest exponent it holds.
EXP_BITS = 16
EXP_MASK = (1 << EXP_BITS) - 1
EXP_MAX = (1 << (EXP_BITS - 1)) - 1
_OVERFLOW = f"an exponent exceeds {EXP_MAX}"
#: Reduction steps, or terms of a cofactor update, between two reads of
#: the clock in ``reduce_nd``.
CLOCK_STEPS = 64


def backend() -> str:
    """Name of the kernel implementation."""
    return "python"


class FieldOverflow(ArithmeticError):
    """A packed field passed its guard bit; the packing must get wider."""


class Packing:
    """Packed-integer monomials of one block order at one field width."""

    __slots__ = (
        "bits",
        "guard",
        "outside",
        "_fmask",
        "_unit",
        "exp_shifts",
        "_fields",
        "_blocks",
        "_degs",
        "_exp_mask",
        "_exp_guard",
    )

    def __init__(self, blocks, bits):
        n = sum(len(b) for b in blocks)
        ebits = n * bits
        self.bits = bits
        self._fmask = (1 << bits) - 1
        ones = sum(1 << (f * bits) for f in range(2 * n))
        self.guard = (1 << (bits - 1)) * ones
        self._exp_mask = (1 << ebits) - 1
        self._exp_guard = self.guard & self._exp_mask
        self._blocks = []  # (shift, mask, prefix-sum multiplier, key shift)
        self._degs = []  # bit offset of each block's degree field
        fields = []  # (vid, bit offset of its exponent field), ascending
        shift = 0
        for b in reversed(blocks):  # the leftmost block ends up on top
            size = len(b)
            rep = sum(1 << (i * bits) for i in range(size))
            mask = (1 << (size * bits)) - 1
            self._blocks.append((shift, mask, rep, shift + ebits))
            self._degs.append(shift + ebits + (size - 1) * bits)
            fields.extend((vid, shift + i * bits) for i, vid in enumerate(b))
            shift += size * bits
        # (bit offset of the variable's Poly field, of its exponent field)
        self._fields = [(vid * EXP_BITS, s) for vid, s in fields]
        #: bit offset of each exponent field, one per variable of the order
        self.exp_shifts = [s for _, s in fields]
        # by variable id: the packed monomial of the variable, 0 outside
        # the order
        self._unit = [0] * (max(vid for vid, _ in fields) + 1)
        for vid, s in fields:
            self._unit[vid] = self._with_key(1 << s)
        #: the Poly monomial bits of variables outside the order
        self.outside = ~sum(EXP_MASK << (vid * EXP_BITS) for vid, _ in fields)

    def _with_key(self, e):
        """Exponent fields ``e`` plus the order key they determine."""
        for shift, mask, rep, kshift in self._blocks:
            e |= ((e >> shift & mask) * rep & mask) << kshift
        return e

    def pack_nd(self, terms):
        """Packed (num, den) pair dict of a ``Poly`` coefficient dict, and a
        map from each packed monomial back to its ``Poly`` monomial.

        Raises KeyError with a monomial that has a variable outside the
        order, and FieldOverflow when a block degree does not fit.  The
        guard bits tell that exactly while no field carries into the next,
        which holds below a total degree of ``2^bits``.
        """
        unit, guard, outside = self._unit, self.guard, self.outside
        limit = self._fmask + 1
        nd = {}
        known = {}
        for m, c in terms.items():
            if m & outside:
                raise KeyError(m)
            x = d = 0
            r = m
            while r:  # one step per variable of m
                s = (r & -r).bit_length() - 1
                s -= s % EXP_BITS  # the lowest nonzero field of r
                e = r >> s & EXP_MASK
                r -= e << s
                x += e * unit[s // EXP_BITS]
                d += e
            if d >= limit or x & guard:
                raise FieldOverflow
            nd[x] = (c.numerator, c.denominator)
            known[x] = m
        return nd, known

    def leading(self, monos):
        """The ``Poly`` monomial of ``monos`` with the largest packed int,
        the leading one in the order.  Each is packed as ``pack_nd`` packs
        it, with the same errors, but only the largest is kept; ValueError
        when there are none.  It repeats ``pack_nd``'s loop because one
        generator shared by both made ``pack_nd`` about 9% slower."""
        unit, guard, outside = self._unit, self.guard, self.outside
        limit = self._fmask + 1
        top = lead = -1
        for m in monos:
            if m & outside:
                raise KeyError(m)
            x = d = 0
            r = m
            while r:
                s = (r & -r).bit_length() - 1
                s -= s % EXP_BITS
                e = r >> s & EXP_MASK
                r -= e << s
                x += e * unit[s // EXP_BITS]
                d += e
            if d >= limit or x & guard:
                raise FieldOverflow
            if x > top:
                top, lead = x, m
        if top < 0:
            raise ValueError("no monomials")
        return lead

    def to_frac(self, nd, known=None):
        """``Poly`` coefficient dict (``int`` when den is 1) of a packed
        (num, den) dict; monomials found in ``known`` are reused.  Raises
        ExponentOverflow for an exponent past ``EXP_MAX``, which the
        packing's fields can hold once they are wider than ``EXP_BITS``."""
        known = known or {}
        fields, fmask = self._fields, self._fmask
        out = {}
        for x, (n, d) in nd.items():
            m = known.get(x)
            if m is None:
                m = 0
                for ps, s in fields:
                    e = x >> s & fmask
                    if e > EXP_MAX:
                        raise ExponentOverflow(_OVERFLOW)
                    m += e << ps
            out[m] = n if d == 1 else Fraction(n, d)
        return out

    def lcm(self, a, b):
        """lcm of the packed ``a`` and ``b``; FieldOverflow if it does not
        fit."""
        em, g = self._exp_mask, self._exp_guard
        ea = a & em
        eb = b & em
        ge = ((ea | g) - eb) & g  # guard bits of the fields where ea >= eb
        sel = ge - (ge >> (self.bits - 1))
        x = self._with_key((ea & sel) | (eb & ~sel))
        if x & self.guard:
            raise FieldOverflow
        return x

    def degree(self, x):
        """Total degree of the packed ``x``."""
        fmask = self._fmask
        d = 0
        for s in self._degs:
            d += x >> s & fmask
        return d


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


def poly_mul(p, q, guard):
    """Product of two ``Poly`` coefficient dicts; ``guard`` holds the guard
    bits of every field in use.  Raises ExponentOverflow past ``EXP_MAX``."""
    if len(p) > len(q):
        p, q = q, p
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            nm = m1 + m2
            prev = out.get(nm)
            if prev is None:
                # an overflowed product has a guard bit set, so it is
                # never already present: checking new terms is enough
                if nm & guard:
                    raise ExponentOverflow(_OVERFLOW)
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


def nd_shift(p, q, guard):
    """x^q * p on a packed (num, den) pair dict."""
    out = {}
    for m, c in p.items():
        m += q
        if m & guard:
            raise FieldOverflow
        out[m] = c
    return out


def _check(deadline):
    if time.monotonic() > deadline:
        raise GroebnerTimeout("reduction exceeded its deadline")


def reduce_nd(p, reducers, guard, cofactor=None, deadline=None):
    """Full normal form of a packed (num, den) pair dict.

    ``reducers`` is a list of ``(lead, tail_dict)`` pairs of packed
    monomials with leading coefficient 1 (the lead excluded from the tail),
    sorted by ascending lead; the first divisor in list order wins, making
    the reduction deterministic.  A divisor's lead never exceeds the term it
    divides, so the scan stops at the first reducer ordered above the
    current term.  ``guard`` is the packing's guard mask.

    ``cofactor``, when given, is a pair ``(cof, reducer_cofs)``: the
    cofactor dict of ``p`` and a dict from each reducer's lead to its
    cofactor dict.  Each step that subtracts ``c * x^q`` times a reducer
    subtracts the same multiple of its cofactor from ``cof``, in place.

    ``deadline``, when given, is a ``time.monotonic()`` value, read once
    every ``CLOCK_STEPS`` reduction steps and, in a cofactor update, once
    every ``CLOCK_STEPS`` cofactor terms; past it the call raises
    GroebnerTimeout.
    """
    work = dict(p)
    out = {}
    if not work:
        return out
    cof, reducer_cofs = cofactor if cofactor is not None else (None, None)
    heap = [-m for m in work]  # heapq is a min-heap: negated monomials
    heapify(heap)
    steps = 0
    while heap:
        m = -heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        tail = None
        mg = m | guard
        for lm, t in reducers:
            if lm > m:
                break  # this and all later leads are bigger than m
            if (mg - lm) & guard == guard:
                tail = t
                break
        if tail is None:
            out[m] = c
            continue
        if deadline is not None:
            steps += 1
            if not steps % CLOCK_STEPS:
                _check(deadline)
        q = m - lm
        cn, cd = c
        if cof is not None:
            # a cofactor's coefficients grow long, so a single update can
            # take seconds: it goes CLOCK_STEPS terms at a time
            terms = list(nd_shift(reducer_cofs[lm], q, guard).items())
            for at in range(0, len(terms), CLOCK_STEPS):
                _nd_isub(cof, nd_scale(dict(terms[at : at + CLOCK_STEPS]), cn, cd))
                if deadline is not None:
                    _check(deadline)
        for tm, (tn, td) in tail.items():
            nm = tm + q
            g1 = gcd(cn, td)
            g2 = gcd(tn, cd)
            dn = (cn // g1) * (tn // g2)  # delta = c*t; subtracted below
            dd = (cd // g2) * (td // g1)
            prev = work.get(nm)
            if prev is None:
                # an overflowed product has a guard bit set, so it is
                # never already present: checking new terms is enough
                if nm & guard:
                    raise FieldOverflow
                work[nm] = (-dn, dd)
                heappush(heap, -nm)
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
