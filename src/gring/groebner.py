"""Buchberger's algorithm with sugar selection, and normal-form queries.

Basis elements are kept monic over the rationals throughout; reducers are
pruned and sorted by leading monomial, and candidate pairs are filtered by
the product and chain criteria.  Coefficients stay exact, so equality of
ideals and normal forms are exact statements.

Inside the engine every monomial is one Python int in the order's own
``kernel.Packing`` layout (described in ``kernel``): a product is
``a + b``, the monomial order is ``<`` on the ints, a lead ``l`` divides
``m`` exactly when ``((m | G) - l) & G == G`` for the packing's guard
mask ``G``, and the quotient is then ``m - l``.  ``Poly`` monomials, also
ints but in the registry layout, are converted on entry and on exit.  A
product whose degree outgrows the packing's fields raises
``kernel.FieldOverflow``; the order then repacks wider and the computation
starts over, so an overflow never gives a wrong result.

``GroebnerBasis.normal_form`` first tests each term of its input against
the basis's leads, kept once as ``Poly`` monomials, with the same guard-bit
test on the registry layout: every field there is at most ``EXP_MAX``, so
no borrow crosses a field and the test is exact.  An input that no lead
divides is already its own remainder (Cox, Little & O'Shea, *Ideals,
Varieties, and Algorithms*, section 2.3) and comes back without being
packed; only an input with a reducible term is converted and reduced.

The pair queue is a heap of ints.  A pair (i, j), i < j, is one int that
holds, from the top, its sugar, its packed lcm (``Packing.lcm`` of the two
leads), i and j; so pairs pop by sugar, then lcm, then index.  The sugar is
``deg(lcm) + max(sugar_i - deg_i, sugar_j - deg_j)``, and ``sugar - deg``
is an element's excess.  A new element k pairs only with the leads that
share a variable with its own (the product criterion), read off one bitset
per variable.  Each element keeps the bitset of the partners of its
pending pairs, those pushed but not popped.

A partner i that a later lead has already retired from the reducers is
paired *virtually* instead of pushed, as in Gebauer and Moeller's update
(J. Symb. Comp. 6, 1988), when the excess never grows along i's chain of
retirers i -> r_1 -> ... -> a live element.  The lead of r_1 divides
lcm(i, k), so S(i, k) has a standard representation once S(i, r_1) and
S(r_1, k) have one; (r_1, k) is virtual in turn when r_1 is retired.  The
excess guard keeps those pairs from popping later than (i, k) would:
their sugar is at most its sugar.  Without it the reduction path in a
block order can change and grow far longer (Giovini et al., ISSAC 1991,
on sugar).  Virtual pairs are kept as a second set of partner bitsets and
count as chain-criterion skips.  A virtual pair is settled once its
chain's real pairs have all popped, which one loop over the retirers
checks.

The chain criterion skips a popped pair (i, j) when the lead of some other
element t divides its lcm and both (i, t) and (j, t) are settled: popped,
never formed, or virtual and settled.  The pair under test still counts as
pending, so that no pair vouches for itself.  The candidates t with two
real settled pairs are one bitset expression of the pending and virtual
sets.  The element whose lead retired i's or j's from the reducers divides
the lcm outright, so when it is such a candidate the pair is skipped at
once.  Otherwise a few candidates are scanned with the guard-bit test, and
more are cut down field by field, with one bitset per field and exponent
``e`` of the leads whose exponent there is at most ``e``.  Only when none
of them divides the lcm are the candidates with a virtual pair tested.

Unit certificates come from the same engine.  With ``cofactor=True`` each
element also carries its cofactor of the last generator, the only one an
inverse needs: an S-pair combines the cofactors with the pair's monomial
multipliers, and ``kernel.reduce_nd`` applies every reduction step to the
cofactor too.  The run stops at the first nonzero constant; its cofactor,
scaled with it to 1, inverts the last generator modulo the others.
"""

from __future__ import annotations

import time
from bisect import insort
from heapq import heappop, heappush

from . import kernel
from .errors import GroebnerTimeout
from .poly import REGISTRY, MonomialOrder, Poly, _unpack

#: Counters of one ``buchberger`` run, in ``GroebnerBasis.stats``: pairs
#: formed (each element with each earlier one), pairs dropped by the
#: product criterion and by the chain criterion (virtual pairs, whose
#: witness is the retirer, and popped pairs with a witness), generators
#: and S-polynomials reduced by ``kernel.reduce_nd`` and those that
#: reduced to zero, elements added (retired ones included), and the final
#: interreduction's reductions.
STATS = (
    "pairs",
    "product_skipped",
    "chain_skipped",
    "reduced",
    "reduced_to_zero",
    "elements_added",
    "finish_reductions",
)

#: Width of each element index in a pair's heap key.  No run comes near
#: 2^32 elements: adding one such element lists 2^32 pair keys (32 GiB).
_INDEX_BITS = 32
#: Chain-test candidates up to which the guard-bit scan runs instead of the
#: per-field cut.  A scan is cheap for a few candidates, and the cut must
#: first build its tables; in paired runs a bound of 8 or 16 timed alike,
#: while cutting always cost small bases 1-3% and scanning always cost
#: ``properness`` 10%.
_SCAN_MAX = 8


class GroebnerBasis:
    """A reduced Groebner basis: monic, pairwise tail-reduced, sorted."""

    __slots__ = ("polys", "order", "cofactor", "stats", "_leads", "_packed")

    def __init__(self, polys, order: MonomialOrder, stats=None):
        self.polys = tuple(polys)
        self.order = order
        self.cofactor = None  # set by buchberger(..., cofactor=True)
        self.stats = dict(stats or {})  # buchberger's counters, see STATS
        self._leads = None  # the Poly monomials of the leads
        self._packed = None  # (packing, reducers packed with it)

    def _lead_monomials(self):
        """The leads as ``Poly`` monomials, found once."""
        if self._leads is None:
            self._leads = tuple(map(self.order.lead_monomial, self.polys))
        return self._leads

    def _reducers(self, packing):
        """The basis as ``kernel.reduce_nd`` reducers in ``packing``."""
        if self._packed is None or self._packed[0] is not packing:
            reds = []
            for p in self.polys:
                d, _ = packing.pack_nd(p._t)
                lm = max(d)
                assert d[lm] == (1, 1)
                del d[lm]
                reds.append((lm, d))
            self._packed = (packing, reds)
        return self._packed[1]

    def normal_form(self, p: Poly) -> Poly:
        """Unique remainder of p; zero iff p lies in the ideal.

        A p none of whose terms a lead divides is its own remainder: it
        comes back without being packed or reduced.  Either way an
        integral coefficient comes back as an ``int``.  Raises
        ForeignVariable, naming a variable of the first term that has
        one, when p has a variable outside the order and the basis is not
        empty; the zero ideal checks no variable.
        """
        if p.is_zero():
            return p
        if self.polys:
            # the guard-bit divisibility test of ``kernel``, on Poly
            # monomials: every field is at most EXP_MAX, so none borrows
            guard = REGISTRY.guard
            outside = self.order.packing.outside
            leads = self._lead_monomials()
            for m in p._t:
                if m & outside:  # named as packing would name it
                    raise self.order._foreign(m)
                mg = m | guard
                for lead in leads:
                    if (mg - lead) & guard == guard:
                        return self.order.repacking(lambda pk: self._reduce(p, pk))
        return p._strict()

    def _reduce(self, p, packing):
        """Normal form of p through ``kernel.reduce_nd`` in ``packing``."""
        d, known = self.order.pack_nd(p._t)
        r = kernel.reduce_nd(d, self._reducers(packing), packing.guard)
        # terms the reduction left alone keep their Poly monomials
        return Poly._raw(packing.to_frac(r, known))

    def contains(self, p: Poly) -> bool:
        return self.normal_form(p).is_zero()

    def is_unit_ideal(self) -> bool:
        return len(self.polys) == 1 and self.polys[0].is_constant() and not (
            self.polys[0].is_zero()
        )

    def leading_monomials(self):
        return tuple(map(_unpack, self._lead_monomials()))

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.order == other.order
            and self.polys == other.polys
        )

    def __len__(self):
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def descriptor(self) -> dict:
        return {
            "order": self.order.descriptor(),
            "generators": [p.render() for p in self.polys],
        }


def buchberger(
    gens, order: MonomialOrder, deadline=None, cofactor=False
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    ``deadline`` is an optional ``time.monotonic()`` value, read before
    each reduction and inside each one (see ``kernel.reduce_nd``);
    exceeding it raises GroebnerTimeout, which carries the counters so
    far.  The zero ideal yields an empty basis.  The basis's ``stats``
    holds the run's counters (see ``STATS``).

    With ``cofactor`` set, every element also carries its cofactor of the
    last generator: a polynomial c with element = c * gens[-1] modulo the
    other generators.  The run stops at the first nonzero constant and
    returns the basis [1], whose ``cofactor`` c has c * gens[-1] = 1
    modulo the other generators.  Without a constant it returns the
    reduced basis with ``cofactor`` None.
    """
    gens = list(gens)
    return order.repacking(
        lambda packing: _buchberger(gens, order, packing, deadline, cofactor)
    )


def _buchberger(gens, order, packing, deadline, cofactor):
    """One run of ``buchberger`` with monomials packed by ``packing``."""
    guard, lcm_of, degree = packing.guard, packing.lcm, packing.degree
    exp_shifts = packing.exp_shifts
    fmask = (1 << packing.bits) - 1
    # a pair's heap key, high to low: sugar, lcm, i and j
    imask = (1 << _INDEX_BITS) - 1
    lcm_at = 2 * _INDEX_BITS
    lcm_mask = (1 << guard.bit_length()) - 1
    sugar_at = lcm_at + guard.bit_length()
    stats = dict.fromkeys(STATS, 0)

    # append-only, one entry per element, retired ones included
    leads = []  # packed lead
    excess = []  # sugar minus lead degree
    tails = []  # monic dict minus its lead, shared with ``reducers``
    pending = []  # bitset of the partners of the element's pending pairs
    virtual = []  # bitset of the partners of the element's virtual pairs
    retired_by = []  # bit of the element whose lead retired it, or 0
    index = {}  # lead -> element
    # occupied[f]: bitset of the elements whose lead has a nonzero
    # exponent in field f
    occupied = [0] * len(exp_shifts)
    # within[f][e]: bitset of the elements whose lead has at most e in
    # exponent field f, kept as the complement of those above e.  Each
    # list ends at the largest such exponent with -1 (every element), so
    # that the exponent of an lcm of two leads always indexes it.  Built
    # on the first chain test with many candidates, then kept up to date.
    within = []  # (bit offset of field f, within[f])
    tabled = 0  # elements entered into ``within``
    cof_of = {}  # with ``cofactor``: lead -> cofactor of gens[-1]
    reducers = []  # sorted [(lead, tail)], leads pairwise non-divisible:
    # new elements are normal forms, old leads divisible by a new lead get
    # pruned
    pairs = []  # heap of pair keys
    late = "basis computation exceeded its deadline"

    def reduce(d, rs, cofs=None):
        """``kernel.reduce_nd`` under the run's deadline; a timeout inside
        one reduction carries the run's counters too."""
        try:
            return kernel.reduce_nd(d, rs, guard, cofs, deadline)
        except GroebnerTimeout:
            raise GroebnerTimeout(late, stats) from None

    def reduce_full(d, cof):
        """Normal form of d; reduces the cofactor ``cof`` along, in place."""
        if not reducers:
            return d
        stats["reduced"] += 1
        r = reduce(d, reducers, None if cof is None else (cof, cof_of))
        if not r:
            stats["reduced_to_zero"] += 1
        return r

    def add_element(d, cof):
        """Monic-normalize, install as basis element, update pair queue.

        Returns True when the run is over: a constant with its cofactor.
        The element's tail keeps ``d``, so the caller must not reuse it.
        """
        lm = max(d)
        if cof is not None:
            ln, ld = d[lm]
            cof_of[lm] = kernel.nd_scale(cof, ld, ln)
            if not lm:
                return True
        d = kernel.nd_monic(d, lm)
        k = len(leads)
        stats["elements_added"] += 1
        stats["pairs"] += k
        deg_k = degree(lm)
        xk = max(degree(m) for m in d) - deg_k
        bit_k = 1 << k
        # the product criterion: only leads sharing a variable with lm pair
        # with it, the S-polynomials of the others reduce to zero
        partners = 0
        for f, s in enumerate(exp_shifts):
            if lm >> s & fmask:
                partners |= occupied[f]
                occupied[f] |= bit_k
        stats["product_skipped"] += k - partners.bit_count()
        rest = partners
        virtual_k = 0
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            rb = retired_by[i]
            if rb:  # virtual if the excess never grows along i's retirers
                a = i
                while rb and excess[rb.bit_length() - 1] <= excess[a]:
                    a = rb.bit_length() - 1
                    rb = retired_by[a]
                if not rb:
                    virtual_k |= low
                    virtual[i] |= bit_k
                    continue
            x = lcm_of(leads[i], lm)
            xi = excess[i]
            heappush(
                pairs,
                (degree(x) + (xi if xi > xk else xk)) << sugar_at
                | x << lcm_at
                | i << _INDEX_BITS
                | k,
            )
            pending[i] |= bit_k
        del d[lm]
        leads.append(lm)
        excess.append(xk)
        tails.append(d)
        pending.append(partners & ~virtual_k)
        virtual.append(virtual_k)
        stats["chain_skipped"] += virtual_k.bit_count()
        retired_by.append(0)
        index[lm] = k
        # the new lead retires any reducer it divides (retired elements keep
        # serving the pair bookkeeping, just not reductions)
        keep = [e for e in reducers if ((e[0] | guard) - lm) & guard != guard]
        if len(keep) != len(reducers):
            for lead, _ in reducers:
                if ((lead | guard) - lm) & guard == guard:
                    retired_by[index[lead]] = bit_k
            reducers[:] = keep
        insort(reducers, (lm, d))
        return False

    def cut(cand, lcm):
        """The elements of the bitset ``cand`` whose lead divides ``lcm``,
        or 0 once there are none: a cut field by field."""
        nonlocal tabled
        if not within:
            within.extend((s, [-1]) for s in exp_shifts)
        for t in range(tabled, len(leads)):
            clear = ~(1 << t)
            for s, tab in within:
                a = leads[t] >> s & fmask
                if a:
                    top = len(tab) - 1
                    for e in range(a if a < top else top):
                        tab[e] &= clear
                    if a > top:
                        tab[top:] = [clear] * (a - top) + [-1]
        tabled = len(leads)
        for s, tab in within:
            cand &= tab[lcm >> s & fmask]
            if not cand:
                break
        return cand

    def settled(a, b):
        """Whether the virtual pair of a and b is settled.  With a the
        earlier one, retired when b came, and r its retirer: (a, r) has
        popped, and (r, b) has popped or is virtual and settled in turn."""
        if a > b:
            a, b = b, a
        while True:
            rb = retired_by[a]
            if pending[a] & rb:
                return False
            if not virtual[b] & rb:
                return not pending[b] & rb
            a = rb.bit_length() - 1

    def vouched(i, j, cand, lcm):
        """Whether an element of the bitset ``cand``, each with a virtual
        pair with i or j and no pending one, divides ``lcm`` with both its
        pairs settled."""
        if cand.bit_count() > _SCAN_MAX:
            cand = cut(cand, lcm)
        lg = lcm | guard
        while cand:
            low = cand & -cand
            cand ^= low
            t = low.bit_length() - 1
            if (lg - leads[t]) & guard != guard:
                continue
            if virtual[t] & (1 << i) and not settled(i, t):
                continue
            if virtual[t] & (1 << j) and not settled(j, t):
                continue
            return True
        return False

    def unit_basis():
        gb = GroebnerBasis([Poly.one()], order, stats)
        gb.cofactor = Poly._raw(packing.to_frac(cof_of[0]))
        return gb

    known = {}  # packed -> Poly monomial of the generators' terms
    packed = []
    for g in gens:
        d, kn = order.pack_nd(g._t)
        packed.append(d)
        known.update(kn)
    seeds = sorted(
        (k for k, d in enumerate(packed) if d), key=lambda k: max(packed[k])
    )
    for k in seeds:
        if deadline is not None and time.monotonic() > deadline:
            raise GroebnerTimeout(late, stats)
        cof = None
        if cofactor:
            cof = {0: (1, 1)} if k == len(gens) - 1 else {}
        r = reduce_full(packed[k], cof)
        if r and add_element(r, cof):
            return unit_basis()

    while pairs:
        if deadline is not None and time.monotonic() > deadline:
            raise GroebnerTimeout(late, stats)
        key = heappop(pairs)
        i = key >> _INDEX_BITS & imask
        j = key & imask
        bit_i = 1 << i
        bit_j = 1 << j
        lcm = key >> lcm_at & lcm_mask
        # chain criterion: skip the pair when some other lead t divides the
        # lcm and both (i, t) and (j, t) are settled.  The element that
        # retired i or j is such a t when it is a candidate: its lead
        # divides lmi or lmj.  (i, j) stays pending until the test is over.
        cand = ((1 << len(leads)) - 1) & ~(
            pending[i] | pending[j] | bit_i | bit_j
        )
        virt = cand & (virtual[i] | virtual[j])
        cand ^= virt
        if not cand & (retired_by[i] | retired_by[j]):
            if cand.bit_count() > _SCAN_MAX:
                cand = cut(cand, lcm)
            else:  # a scan of a few candidates
                lg = lcm | guard
                while cand:
                    low = cand & -cand
                    if (lg - leads[low.bit_length() - 1]) & guard == guard:
                        break
                    cand ^= low
            if not cand and virt:
                cand = vouched(i, j, virt, lcm)
        pending[i] ^= bit_j
        pending[j] ^= bit_i
        if cand:
            stats["chain_skipped"] += 1
            continue
        lmi = leads[i]
        lmj = leads[j]
        qi = lcm - lmi
        qj = lcm - lmj
        # both leads are 1 at the lcm and cancel: the tails make the rest
        s = kernel.nd_sub(
            kernel.nd_shift(tails[i], qi, guard),
            kernel.nd_shift(tails[j], qj, guard),
        )
        if not s:
            continue
        cof = None
        if cofactor:
            cof = kernel.nd_sub(
                kernel.nd_shift(cof_of[lmi], qi, guard),
                kernel.nd_shift(cof_of[lmj], qj, guard),
            )
        r = reduce_full(s, cof)
        if r and add_element(r, cof):
            return unit_basis()

    # The surviving reducers are a minimal basis, sorted by ascending lead;
    # tail-reduce them in that order to make the result canonical.  A lead
    # dividing a tail term lies below the element's own lead, so the
    # elements already finished are all a tail needs.  Leads are pairwise
    # non-divisible, so the elements stay monic and nonzero.
    final = []  # (lead, reduced tail), the reducer list of later tails
    polys = []
    for lm, tail in reducers:
        if final:
            stats["finish_reductions"] += 1
            tail = reduce(tail, final)
        final.append((lm, tail))
        polys.append(Poly._raw(packing.to_frac({lm: (1, 1), **tail}, known)))
    gb = GroebnerBasis(polys, order, stats)
    gb._packed = (packing, final)
    return gb
