"""Quotient rings presented by reduced Groebner bases.

``build_KF(n)`` constructs the commutative coordinate ring of the rank-n
free group on generators ``lam_i`` (symmetrized generators), ``m_ij``
(pairwise products, i<j) and ``w_ijk`` (triple products, i<j<k).  The
symmetry rewrites are enforced structurally: ``m(i,i)`` is the polynomial
``1 - lam_i^2`` and ``w`` with a repeated index is zero, so only canonical
symbols ever appear as variables.  The defining relations are instantiated
over canonical index tuples only; tests check exhaustively that every raw
instance reduces to zero modulo them.
"""

from __future__ import annotations

from itertools import combinations, product

from .errors import ForeignVariable, NotAUnit
from . import groebner
from .groebner import GroebnerBasis, buchberger
from .poly import REGISTRY, Poly, block_order, degrevlex


def _perm_sign(seq):
    """Sign of the permutation sorting ``seq`` ascending; 0 on repeats."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] == seq[j]:
                return 0
            if seq[i] > seq[j]:
                sign = -sign
    return sign


class QuotientRing:
    """A polynomial ring modulo the ideal of a reduced Groebner basis.

    Elements are represented by their normal forms, so two ring elements
    are equal iff their representatives are equal as polynomials.
    """

    def __init__(self, vids, relations, order=None, label="", deadline=None):
        self.vids = tuple(vids)
        self.order = order if order is not None else degrevlex(self.vids)
        self.label = label
        self.gb = buchberger(list(relations), self.order, deadline=deadline)

    def var_names(self):
        return [REGISTRY.name(v) for v in self.vids]

    def nf(self, p: Poly) -> Poly:
        """Normal form of p; ForeignVariable if p has a variable outside
        the ring, also when the ring has no relations."""
        if not self.gb.polys:
            self.order.check(p)
        return self.gb.normal_form(p)

    def is_zero(self, p: Poly) -> bool:
        return self.nf(p).is_zero()

    def ideal_gb(self, gens, deadline=None) -> GroebnerBasis:
        """Reduced basis of <gens> + defining relations, in the ring order."""
        return buchberger(
            list(gens) + list(self.gb.polys), self.order, deadline=deadline
        )

    def vdim(self):
        """Dimension over the rationals as a vector space; None if infinite.

        Counts the staircase monomials (those divisible by no leading
        monomial of the relation basis).
        """
        if self.gb.is_unit_ideal():
            return 0
        # exponent vectors over self.vids of the leading monomials
        leads = []
        for lm in self.gb.leading_monomials():
            exps = dict(lm)
            leads.append([exps.get(v, 0) for v in self.vids])
        caps = []
        for i in range(len(self.vids)):
            pure = [lm[i] for lm in leads if sum(lm) == lm[i]]
            if not pure:
                return None  # no pure power of the variable leads: infinite
            caps.append(min(pure))
        count = 0
        for exps in product(*map(range, caps)):
            # no lead divides exps: each has some exponent above it
            if all(any(e < le for e, le in zip(exps, lm)) for lm in leads):
                count += 1
        return count

    def describe(self) -> dict:
        return {
            "label": self.label,
            "variables": self.var_names(),
            "order": self.order.descriptor(),
            "relations": [p.render() for p in self.gb.polys],
        }


def is_whole_ring(gens, ambient: QuotientRing, deadline=None) -> bool:
    """True iff 1 lies in <gens> plus the ambient relations."""
    return ambient.ideal_gb(gens, deadline=deadline).is_unit_ideal()


def ideal_contains(gens, p: Poly, ambient: QuotientRing, deadline=None) -> bool:
    """True iff p lies in <gens> plus the ambient relations; raises
    GroebnerTimeout past ``deadline``."""
    return ambient.ideal_gb(gens, deadline=deadline).contains(p)


def ideal_equal(gens_a, gens_b, ambient: QuotientRing, deadline=None) -> bool:
    """True iff <gens_a> and <gens_b> agree modulo the ambient relations;
    raises GroebnerTimeout past ``deadline``."""
    gens_a, gens_b = list(gens_a), list(gens_b)
    if gens_a == gens_b:
        return True  # the same generators: no basis needed
    ga = ambient.ideal_gb(gens_a, deadline=deadline)
    gbs = ambient.ideal_gb(gens_b, deadline=deadline)
    return ga.polys == gbs.polys


def invert(elem: Poly, ambient: QuotientRing, deadline=None) -> Poly:
    """Inverse of ``elem`` modulo the ambient relations.

    Runs the basis computation on relations + elem with the cofactor of
    ``elem`` tracked; the element is a unit iff a nonzero constant appears,
    and the normal form of that constant's cofactor is the inverse.  Raises
    NotAUnit otherwise, and GroebnerTimeout past ``deadline``.
    """
    # through the module, so code that swaps ring.buchberger for a plain
    # basis computation leaves the cofactor path alone
    gb = groebner.buchberger(
        list(ambient.gb.polys) + [elem],
        ambient.order,
        deadline=deadline,
        cofactor=True,
    )
    if gb.cofactor is None:
        raise NotAUnit(f"{elem.render()} is not a unit in {ambient.label or 'ring'}")
    inv = ambient.nf(gb.cofactor)
    residue = ambient.nf(elem * inv - Poly.one())
    if not residue.is_zero():
        raise AssertionError("cofactor certificate failed to verify")
    return inv


class KFRing(QuotientRing):
    """Coordinate ring of the free group of rank n in canonical symbols."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("generator count must be at least 1")
        self.n = n
        self.symbol_of = {}  # vid -> (kind, index tuple)
        self._var = {}  # vid -> the symbol's Poly, made once

        def symbols(kind, arity):
            """Index tuple (an int for lam) -> vid of each ``kind`` symbol."""
            out = {}
            for idx in combinations(range(1, n + 1), arity):
                name = kind + "".join(map(str, idx))
                vid = REGISTRY.var(name)
                self.symbol_of[vid] = (kind, idx)
                self._var[vid] = Poly.variable(name)
                out[idx[0] if arity == 1 else idx] = vid
            return out

        self._lam = symbols("lam", 1)
        self._m = symbols("m", 2)
        self._w = symbols("w", 3)
        # m(i,j) and w(i,j,k) for every index tuple in range, made once
        idx = range(1, n + 1)
        self._m_of = {}
        for i, j in product(idx, repeat=2):
            if i == j:
                li = self._var[self._lam[i]]
                self._m_of[(i, j)] = Poly.one() - li * li
            else:
                self._m_of[(i, j)] = self._var[self._m[tuple(sorted((i, j)))]]
        self._w_of = {}
        for t in product(idx, repeat=3):
            sign = _perm_sign(t)
            p = self._var[self._w[tuple(sorted(t))]] if sign else Poly.zero()
            self._w_of[t] = p if sign >= 0 else -p
        lam_vids = list(self._lam.values())
        m_vids = list(self._m.values())
        w_vids = list(self._w.values())
        base = tuple(lam_vids + m_vids)
        if w_vids:
            order = block_order(tuple(w_vids), base)
        else:
            order = degrevlex(base)
        super().__init__(
            tuple(lam_vids + m_vids + w_vids),
            self._relation_instances(),
            order=order,
            label=f"K[F{n}]",
        )

    # -- canonical symbols ----------------------------------------------

    def lam(self, i: int) -> Poly:
        if not 1 <= i <= self.n:
            raise ForeignVariable(f"generator index {i} out of range")
        return self._var[self._lam[i]]

    def m(self, i: int, j: int) -> Poly:
        """Canonical pairwise symbol: m(i,i) rewrites to 1 - lam_i^2."""
        p = self._m_of.get((i, j))
        if p is None:
            raise ForeignVariable("pair index out of range")
        return p

    def w(self, i: int, j: int, k: int) -> Poly:
        """Fully alternating triple symbol as a signed canonical variable."""
        p = self._w_of.get((i, j, k))
        if p is None:
            raise ForeignVariable("triple index out of range")
        return p

    def split_w(self, p: Poly):
        """Split a normal form as plain + sum over triples of w_T * rest.

        Normal forms have total degree at most one in the w symbols (any
        pair of them leads a defining relation), so the decomposition is a
        plain term split.  Returns (w_free_poly, {triple: cofactor_poly}).
        """
        if not self._w:
            return p, {}
        plain = p
        cof = {}
        present = set(p.variables())
        for t, vid in self._w.items():
            if vid not in present:
                continue
            c = p.coefficient_in(vid, 1)
            if p.degree_in(vid) > 1 or any(
                c.degree_in(u) > 0 for u in self._w.values() if u != vid
            ):
                raise AssertionError("normal form has degree >= 2 in the w symbols")
            cof[t] = c
            plain = plain.coefficient_in(vid, 0)
        return plain, cof

    # -- defining relations ----------------------------------------------

    def _raw_r3(self, i, j, k, l, s) -> Poly:
        """Alternating sum tying triple symbols to pairwise ones."""
        return (
            self.w(j, k, l) * self.m(i, s)
            - self.w(i, k, l) * self.m(j, s)
            + self.w(i, j, l) * self.m(k, s)
            - self.w(i, j, k) * self.m(l, s)
        )

    def _raw_r4(self, t1, t2) -> Poly:
        """Product of two triple symbols minus the pairwise determinant."""
        i, j, k = t1
        l, s, t = t2
        det = (
            self.m(i, l) * (self.m(j, s) * self.m(k, t) - self.m(j, t) * self.m(k, s))
            - self.m(i, s) * (self.m(j, l) * self.m(k, t) - self.m(j, t) * self.m(k, l))
            + self.m(i, t) * (self.m(j, l) * self.m(k, s) - self.m(j, s) * self.m(k, l))
        )
        return self.w(i, j, k) * self.w(l, s, t) - det

    def _relation_instances(self):
        rels = []
        idx = range(1, self.n + 1)
        for quad in combinations(idx, 4):
            for s in idx:
                p = self._raw_r3(*quad, s)
                if not p.is_zero():
                    rels.append(p)
        triples = list(combinations(idx, 3))
        for a in range(len(triples)):
            for b in range(a, len(triples)):
                p = self._raw_r4(triples[a], triples[b])
                if not p.is_zero():
                    rels.append(p)
        return rels


_CACHE = {}


def cached(make, *args):
    """``make(*args)``, computed once per process and shared by every caller.

    For values that never change once made: rings, module bases, inverses,
    bases of fixed ideals and substitution maps.  Every such cache in gring
    goes through here; ``args`` must be hashable.
    """
    key = (make, *args)
    value = _CACHE.get(key)
    if value is None:
        value = _CACHE[key] = make(*args)
    return value


def build_KF(n: int) -> KFRing:
    """The rank-n coordinate ring; cached per ``n``."""
    return cached(KFRing, n)
