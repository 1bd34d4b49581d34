"""Buchberger's algorithm with sugar selection, and normal-form queries.

Basis elements are kept monic over the rationals throughout; reducers are
pruned and sorted by leading monomial, and candidate pairs are filtered by
the product and chain criteria.  Coefficients stay exact, so equality of
ideals and normal forms are exact statements.

Divisibility tests between leading monomials are prefiltered.  Next to
each basis element the engine keeps its lead's support bitmask (the OR of
``1 << vid`` over its variables) and total degree.  A lead ``t`` can only
divide ``m`` when its mask has no bit outside ``m``'s mask and its degree
is at most ``m``'s (the "short exponent vector" of Bachmann & Schoenemann,
ISSAC '98).  The chain-criterion scan and the retiring of reducers apply
that test first and compare exponents only for the leads that pass, so
they take the same decisions as a plain divisibility test, at a fraction
of its cost.  The lcm of a pair is built as a tuple only for pairs that
survive the chain criterion.

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


class GroebnerBasis:
    """A reduced Groebner basis: monic, pairwise tail-reduced, sorted."""

    __slots__ = ("polys", "order", "cofactor", "_nd_reducers")

    def __init__(self, polys, order: MonomialOrder):
        self.polys = tuple(polys)
        self.order = order
        self.cofactor = None  # set by buchberger(..., cofactor=True)
        self._nd_reducers = None

    def _reducers(self):
        if self._nd_reducers is None:
            reds = []
            for p in self.polys:
                lm, lc = self.order.leading(p)
                assert lc == 1
                tail = kernel.nd_from_frac(p._t)
                del tail[lm]
                reds.append((lm, tail))
            self._nd_reducers = reds
        return self._nd_reducers

    def normal_form(self, p: Poly) -> Poly:
        """Unique remainder of p; zero iff p lies in the ideal."""
        if not self.polys or p.is_zero():
            return p
        order = self.order
        r = kernel.reduce_nd(
            kernel.nd_from_frac(p._t),
            self._reducers(),
            order.slots,
            order.width,
        )
        return Poly._raw(kernel.nd_to_frac(r), p.registry)

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
    raises GroebnerTimeout.  The zero ideal yields an empty basis.

    With ``cofactor`` set, every element also carries its cofactor of the
    last generator: a polynomial c with element = c * gens[-1] modulo the
    other generators.  The run stops at the first nonzero constant and
    returns the basis [1], whose ``cofactor`` c has c * gens[-1] = 1
    modulo the other generators.  Without a constant it returns the
    reduced basis with ``cofactor`` None.
    """
    slots, width = order.slots, order.width
    registry = order.registry
    gens = list(gens)

    basis = []  # append-only: (lead_mono, monic dict, sugar)
    lead_mask = []  # parallel to basis: OR of 1 << vid over the lead
    lead_deg = []  # parallel to basis: total degree of the lead
    cofs = []  # with ``cofactor``, parallel to basis: cofactor of gens[-1]
    reducers = []  # sorted [(lead_key, lead_mono, tail, basis index)],
    # leads pairwise non-divisible: new elements are normal forms, old
    # leads divisible by a new lead get pruned
    pairs = []  # heap of (sugar, lcm_key, i, j); stale entries skipped
    pending = set()

    def reduce_full(d, cof):
        """Normal form of d; reduces the cofactor ``cof`` along, in place."""
        if not reducers:
            return d
        track = None if cof is None else (cof, [cofs[e[3]] for e in reducers])
        return kernel.reduce_nd(
            d, [(lm, tail) for _, lm, tail, _ in reducers], slots, width, track
        )

    def add_element(d, cof):
        """Monic-normalize, install as basis element, update pair queue.

        Returns True when the run is over: a constant with its cofactor.
        """
        lm = max(d, key=lambda m: kernel.mono_key(m, slots, width))
        if cof is not None:
            ln, ld = d[lm]
            cofs.append(kernel.nd_scale(cof, ld, ln))
            if not lm:
                return True
        d = kernel.nd_monic(d, lm)
        k = len(basis)
        key_k = kernel.mono_key(lm, slots, width)
        sugar_k = max(kernel.mono_deg(m) for m in d)
        mask_k = 0
        for v, _ in lm:
            mask_k |= 1 << v
        deg_k = kernel.mono_deg(lm)
        basis.append((lm, d, sugar_k))
        lead_mask.append(mask_k)
        lead_deg.append(deg_k)
        for i in range(k):
            if not lead_mask[i] & mask_k:
                continue  # product criterion: the S-pair reduces to zero
            lmi, _, sugar_i = basis[i]
            lcm = kernel.mono_lcm(lmi, lm)
            dl = kernel.mono_deg(lcm)
            sug = max(sugar_i + dl - lead_deg[i], sugar_k + dl - deg_k)
            heappush(pairs, (sug, kernel.mono_key(lcm, slots, width), i, k))
            pending.add((i, k))
        # the new lead retires any reducer it divides (stale entries keep
        # serving the pair bookkeeping, just not reductions)
        keep = [
            e
            for e in reducers
            if mask_k & ~lead_mask[e[3]]
            or deg_k > lead_deg[e[3]]
            or kernel.mono_div(e[1], lm) is None
        ]
        if len(keep) != len(reducers):
            reducers[:] = keep
        insort(
            reducers,
            (key_k, lm, {m: c for m, c in d.items() if m != lm}, k),
        )
        return False

    def unit_basis():
        gb = GroebnerBasis([Poly.one(registry)], order)
        gb.cofactor = Poly._raw(kernel.nd_to_frac(cofs[-1]), registry)
        return gb

    seeds = sorted(
        (k for k, g in enumerate(gens) if not g.is_zero()),
        key=lambda k: order.key(order.leading(gens[k])[0]),
    )
    for k in seeds:
        if deadline is not None and time.monotonic() > deadline:
            raise GroebnerTimeout("basis computation exceeded its deadline")
        cof = None
        if cofactor:
            cof = {(): (1, 1)} if k == len(gens) - 1 else {}
        r = reduce_full(kernel.nd_from_frac(gens[k]._t), cof)
        if r and add_element(r, cof):
            return unit_basis()

    while pairs:
        if deadline is not None and time.monotonic() > deadline:
            raise GroebnerTimeout("basis computation exceeded its deadline")
        _, _, i, j = heappop(pairs)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        lmi, di, _ = basis[i]
        lmj, dj, _ = basis[j]
        # chain criterion: skip the pair when some other lead t divides
        # lcm(lmi, lmj) and neither (i, t) nor (j, t) is still pending.
        # A lead with a variable outside the lcm's support, or of higher
        # degree, cannot divide it; only the rest get the exponent test.
        lcm_exp = dict(lmi)
        for v, e in lmj:
            if e > lcm_exp.get(v, 0):
                lcm_exp[v] = e
        outside = ~(lead_mask[i] | lead_mask[j])
        lcm_deg = sum(lcm_exp.values())
        skip = False
        for t, mask_t in enumerate(lead_mask):
            if mask_t & outside or lead_deg[t] > lcm_deg or t == i or t == j:
                continue
            for v, e in basis[t][0]:
                if e > lcm_exp[v]:
                    break
            else:
                a, b = (i, t) if i < t else (t, i)
                c, e = (j, t) if j < t else (t, j)
                if (a, b) not in pending and (c, e) not in pending:
                    skip = True
                    break
        if skip:
            continue
        lcm = kernel.mono_lcm(lmi, lmj)
        qi = kernel.mono_div(lcm, lmi)
        qj = kernel.mono_div(lcm, lmj)
        s = kernel.nd_sub(
            {kernel.mono_mul(m, qi): c for m, c in di.items()},
            {kernel.mono_mul(m, qj): c for m, c in dj.items()},
        )
        if not s:
            continue
        cof = None
        if cofactor:
            cof = kernel.nd_sub(
                {kernel.mono_mul(m, qi): c for m, c in cofs[i].items()},
                {kernel.mono_mul(m, qj): c for m, c in cofs[j].items()},
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
    for _, lm, tail, _ in reducers:
        if final:
            tail = kernel.reduce_nd(tail, final, slots, width)
        final.append((lm, tail))
        polys.append(
            Poly._raw(kernel.nd_to_frac({lm: (1, 1), **tail}), registry)
        )
    return GroebnerBasis(polys, order)
