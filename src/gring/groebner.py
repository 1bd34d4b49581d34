"""Buchberger's algorithm with sugar selection, and normal-form queries.

Basis elements are kept monic over the rationals throughout; reducers are
pruned and sorted by leading monomial, and candidate pairs are filtered by
the product and chain criteria.  Coefficients stay exact, so equality of
ideals and normal forms are exact statements.

Inside the engine every monomial is one Python int in the order's own
``kernel.Packing`` layout (described in ``kernel``): a product is
``a + b``, the monomial order is ``<`` on the ints, a lead ``l`` divides
``m`` exactly when ``((m | G) - l) & G == G`` for the packing's guard
mask ``G``, and the quotient is then ``m - l``.  The pair heap is keyed on
the packed lcm itself.  ``Poly`` monomials, also ints but in the registry
layout, are converted on entry and on exit.  A product whose degree
outgrows the packing's fields raises ``kernel.FieldOverflow``; the order
then repacks wider and the computation starts over, so an overflow never
gives a wrong result.

Divisibility tests in the chain criterion are prefiltered.  Next to each
basis element the engine keeps its lead's support bitmask
(``Packing.support``, one bit per variable of the order) and total degree.
A lead ``t`` can only divide ``m`` when its mask has no bit outside
``m``'s mask and its degree is at most ``m``'s (the "short exponent
vector" of Bachmann & Schoenemann, ISSAC '98).  The chain-criterion scan
applies that test first and the guard-bit test only to the leads that
pass, which is faster than the guard-bit test alone.

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
from .poly import MonomialOrder, Poly

#: Counters of one ``buchberger`` run, in ``GroebnerBasis.stats``: pairs
#: formed (each element with each earlier one), pairs dropped by the
#: product and by the chain criterion, generators and S-polynomials reduced
#: by ``kernel.reduce_nd`` and those that reduced to zero, elements added
#: (retired ones included), and the final interreduction's reductions.
STATS = (
    "pairs",
    "product_skipped",
    "chain_skipped",
    "reduced",
    "reduced_to_zero",
    "elements_added",
    "finish_reductions",
)


class GroebnerBasis:
    """A reduced Groebner basis: monic, pairwise tail-reduced, sorted."""

    __slots__ = ("polys", "order", "cofactor", "stats", "_packed")

    def __init__(self, polys, order: MonomialOrder, stats=None):
        self.polys = tuple(polys)
        self.order = order
        self.cofactor = None  # set by buchberger(..., cofactor=True)
        self.stats = dict(stats or {})  # buchberger's counters, see STATS
        self._packed = None  # (packing, reducers packed with it)

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

        Raises ForeignVariable when p has a variable outside the order and
        the basis is not empty; the zero ideal leaves every p alone.
        """
        if not self.polys or p.is_zero():
            return p

        def run(packing):
            d, known = self.order.pack_nd(p._t)
            r = kernel.reduce_nd(d, self._reducers(packing), packing.guard)
            # terms the reduction left alone keep their Poly monomials
            return Poly._raw(packing.to_frac(r, known), p.registry)

        return self.order.repacking(run)

    def contains(self, p: Poly) -> bool:
        return self.normal_form(p).is_zero()

    def is_unit_ideal(self) -> bool:
        return len(self.polys) == 1 and self.polys[0].is_constant() and not (
            self.polys[0].is_zero()
        )

    def leading_monomials(self):
        return tuple(self.order.leading(p)[0] for p in self.polys)

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

    ``deadline`` is an optional ``time.monotonic()`` value; exceeding it
    raises GroebnerTimeout, which carries the counters so far.  The zero
    ideal yields an empty basis.  The basis's ``stats`` holds the run's
    counters (see ``STATS``).

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
    registry = order.registry
    guard, lcm_of, degree = packing.guard, packing.lcm, packing.degree
    stats = dict.fromkeys(STATS, 0)

    basis = []  # append-only: (lead, monic dict, sugar)
    lead_mask = []  # parallel to basis: support bitmask of the lead
    lead_deg = []  # parallel to basis: total degree of the lead
    cof_of = {}  # with ``cofactor``: lead -> cofactor of gens[-1]
    reducers = []  # sorted [(lead, tail)], leads pairwise non-divisible:
    # new elements are normal forms, old leads divisible by a new lead get
    # pruned
    pairs = []  # heap of (sugar, lcm, i, j, lcm degree); stale entries
    # skipped
    pending = set()
    late = "basis computation exceeded its deadline"

    def reduce_full(d, cof):
        """Normal form of d; reduces the cofactor ``cof`` along, in place."""
        if not reducers:
            return d
        stats["reduced"] += 1
        r = kernel.reduce_nd(
            d, reducers, guard, None if cof is None else (cof, cof_of)
        )
        if not r:
            stats["reduced_to_zero"] += 1
        return r

    def add_element(d, cof):
        """Monic-normalize, install as basis element, update pair queue.

        Returns True when the run is over: a constant with its cofactor.
        """
        lm = max(d)
        if cof is not None:
            ln, ld = d[lm]
            cof_of[lm] = kernel.nd_scale(cof, ld, ln)
            if not lm:
                return True
        d = kernel.nd_monic(d, lm)
        k = len(basis)
        stats["elements_added"] += 1
        stats["pairs"] += k
        sugar_k = max(degree(m) for m in d)
        mask_k = packing.support(lm)
        deg_k = degree(lm)
        basis.append((lm, d, sugar_k))
        lead_mask.append(mask_k)
        lead_deg.append(deg_k)
        for i in range(k):
            if not lead_mask[i] & mask_k:
                stats["product_skipped"] += 1  # the S-pair reduces to zero
                continue
            lmi, _, sugar_i = basis[i]
            lcm = lcm_of(lmi, lm)
            dl = degree(lcm)
            sug = max(sugar_i + dl - lead_deg[i], sugar_k + dl - deg_k)
            heappush(pairs, (sug, lcm, i, k, dl))
            pending.add((i, k))
        # the new lead retires any reducer it divides (stale entries keep
        # serving the pair bookkeeping, just not reductions)
        keep = [e for e in reducers if ((e[0] | guard) - lm) & guard != guard]
        if len(keep) != len(reducers):
            reducers[:] = keep
        insort(reducers, (lm, {m: c for m, c in d.items() if m != lm}))
        return False

    def unit_basis():
        gb = GroebnerBasis([Poly.one(registry)], order, stats)
        gb.cofactor = Poly._raw(packing.to_frac(cof_of[0]), registry)
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
        _, lcm, i, j, lcm_deg = heappop(pairs)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        lmi, di, _ = basis[i]
        lmj, dj, _ = basis[j]
        # chain criterion: skip the pair when some other lead t divides
        # lcm(lmi, lmj) and neither (i, t) nor (j, t) is still pending.
        # A lead with a variable outside the lcm's support, or of higher
        # degree, cannot divide it; only the rest get the guard-bit test.
        outside = ~(lead_mask[i] | lead_mask[j])
        lg = lcm | guard
        skip = False
        for t, mask_t in enumerate(lead_mask):
            if mask_t & outside or lead_deg[t] > lcm_deg or t == i or t == j:
                continue
            if (lg - basis[t][0]) & guard == guard:
                a, b = (i, t) if i < t else (t, i)
                c, e = (j, t) if j < t else (t, j)
                if (a, b) not in pending and (c, e) not in pending:
                    skip = True
                    break
        if skip:
            stats["chain_skipped"] += 1
            continue
        qi = lcm - lmi
        qj = lcm - lmj
        s = kernel.nd_sub(
            kernel.nd_shift(di, qi, guard), kernel.nd_shift(dj, qj, guard)
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
            tail = kernel.reduce_nd(tail, final, guard)
        final.append((lm, tail))
        polys.append(
            Poly._raw(packing.to_frac({lm: (1, 1), **tail}, known), registry)
        )
    gb = GroebnerBasis(polys, order, stats)
    gb._packed = (packing, final)
    return gb
