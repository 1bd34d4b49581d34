"""Module arithmetic over the free-group coordinate ring.

Elements carry a scalar part (a polynomial in the canonical symbols) plus
coefficients over the module generators ``{v_i}`` (degree-one part) and
``{b_ij : i<j}`` (bracket part).  Products stay inside this span via a
closed multiplication table with structure constants given by the
canonical ``m``/``w`` symbols; coefficient dictionaries are canonicalized
(normal forms plus the syzygy rewriting described on AElem), so equality
of elements is equality of dictionaries.  Each coordinate of a product or
a rewrite is a sum of products; it accumulates in one coefficient dict
through ``kernel.poly_addmul`` and becomes a ``Poly`` once, at the end.

The product rule x*y = bar(x)bar(y) - <vec x, vec y> + bar(x) vec y +
bar(y) vec x + [vec x, vec y] is written out four times, on purpose:
``AElem.__mul__`` (the whole table), ``bar_product`` (its scalar rows),
``dot`` (the symmetric pairing) and ``bracket`` (the antisymmetric one).
The identity battery checks ``__mul__`` against ``dot`` and ``bracket``,
and criterion 8 compares ``hash`` ideals, built through ``bar_product``,
with ``hashhash`` plus ``bullet`` ideals, built through ``dot``; a shared
encoding would let one wrong row pass both sides of each check.  They
share the accumulation primitive, not their rows.
Everything else goes through these four.  ``module_basis`` is the basis
{1, v_i, b_ij}, made once per ring; ``basis_pairings`` is ``dot``
against its v_i and b_ij.

A word embeds through the letter map g_k -> lam_k +- v_k.  Since
v_k^2 = -m(k,k) = lam_k^2 - 1, a syllable has the closed form
(lam_k +- v_k)^e = T_e(lam_k) +- U_{e-1}(lam_k) v_k for e >= 1, with
a_1 = lam_k, b_1 = 1 and a <- a*lam_k - b*m(k,k), b <- a + b*lam_k;
``embed_word`` starts from the first syllable's element as built and
multiplies by each further one through ``AElem.__mul__``.  ``embed_bar``
takes the scalar part of an embedded word through ``bar_product``,
without forming the last product's vector and bracket parts.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import GringError
from .kernel import UNIT, poly_addmul, poly_mul
from .poly import REGISTRY, Poly, chebyshev_like
from .ring import KFRing, cached
from .words import Word


def _addmul_b(out_b, i, j, p, q, guard, sign=1):
    """Add sign*p*q to the coefficient dict of b_ij in ``out_b``: b_ii = 0,
    b_ji = -b_ij."""
    if i < j:
        poly_addmul(out_b.setdefault((i, j), {}), p, q, guard, sign)
    elif i > j:
        poly_addmul(out_b.setdefault((j, i), {}), p, q, guard, -sign)


def _written(acc, shared, key):
    """The dict in ``acc`` that accumulates ``key``; on first use a copy
    of ``shared[key]``'s terms, so that ``shared`` is never written."""
    d = acc.get(key)
    if d is None:
        p = shared.get(key)
        d = acc[key] = dict(p._t) if p is not None else {}
    return d


def _polys(dicts):
    """The nonzero coefficient dicts of ``dicts`` wrapped as Polys."""
    return {key: Poly._raw(d) for key, d in dicts.items() if d}


class AElem:
    """scalar*1 + sum_i vec[i]*v_i + sum_{i<j} brk[(i,j)]*b_ij.

    The generating set {v_i, b_ij} is not free once triple symbols exist;
    the two syzygy families (dual-basis expansions in the rank-3 vector
    model) are

        w_ijk * v_l  = m(i,l) b_jk - m(j,l) b_ik + m(k,l) b_ij
        w_ijk * b_ab = D(ab,jk) v_i - D(ab,ik) v_j + D(ab,ij) v_k

    with D the Gram minor D(ab,cd) = m(a,c)m(b,d) - m(a,d)m(b,c).
    Coefficients are canonicalized on construction: ring normal forms are
    linear in the w symbols, the w part of every module coefficient is
    rewritten along the syzygies (each rewrite lands on w-free
    coefficients, so one pass in each direction terminates), and zero
    coefficients are dropped.  With this normalization equality of
    elements is equality of their dictionaries.
    """

    __slots__ = ("ring", "scalar", "vec", "brk")

    def __init__(self, ring: KFRing, scalar=None, vec=None, brk=None):
        self.ring = ring
        nf = ring.nf
        s = scalar if scalar is not None else Poly.zero()
        self.scalar = nf(s)
        vec_nf = {}
        for i, p in (vec or {}).items():
            if not 1 <= i <= ring.n:
                raise GringError(f"basis index {i} out of range")
            q = nf(p)
            if not q.is_zero():
                vec_nf[i] = q
        brk_in = {}
        for (i, j), p in (brk or {}).items():
            if not (1 <= i < j <= ring.n):
                raise GringError(f"bracket index pair {(i, j)} not canonical")
            if not p.is_zero():
                brk_in[(i, j)] = p

        guard = REGISTRY.guard
        m = ring.m

        def gram(a, b, c, d):
            return m(a, c) * m(b, d) - m(a, d) * m(b, c)

        # the w part of each v_l coefficient moves onto brackets
        vec_plain = {}
        brk_w = {}  # bracket coefficients the rewrite wrote into
        for l, q in vec_nf.items():
            plain, by_triple = ring.split_w(q)
            if not plain.is_zero():
                vec_plain[l] = plain
            for (i, j, k), c in by_triple.items():
                for ab, g, sign in (
                    ((j, k), m(i, l), 1),
                    ((i, k), m(j, l), -1),
                    ((i, j), m(k, l), 1),
                ):
                    acc = _written(brk_w, brk_in, ab)
                    poly_addmul(acc, c._t, g._t, guard, sign)
        # and the w part of each b_ab coefficient onto v's
        self.brk = {}
        vec_w = {}  # v coefficients the rewrite wrote into
        brk_w = {ab: Poly._raw(d) for ab, d in brk_w.items()}
        for (a, b), p in {**brk_in, **brk_w}.items():
            plain, by_triple = ring.split_w(nf(p))
            if not plain.is_zero():
                self.brk[(a, b)] = plain
            for (i, j, k), c in by_triple.items():
                for l, g, sign in (
                    (i, gram(a, b, j, k), 1),
                    (j, gram(a, b, i, k), -1),
                    (k, gram(a, b, i, j), 1),
                ):
                    acc = _written(vec_w, vec_plain, l)
                    poly_addmul(acc, c._t, g._t, guard, sign)
        # the other v coefficients are w-free normal forms already
        for l, d in vec_w.items():
            vec_plain[l] = nf(Poly._raw(d))
        self.vec = {l: p for l, p in vec_plain.items() if not p.is_zero()}

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _raw(ring: KFRing, scalar: Poly, vec: dict, brk: dict) -> "AElem":
        """An element from coordinates that are already canonical, kept
        as they are."""
        out = AElem.__new__(AElem)
        out.ring, out.scalar, out.vec, out.brk = ring, scalar, vec, brk
        return out

    @staticmethod
    def zero(ring: KFRing) -> "AElem":
        return AElem(ring)

    @staticmethod
    def one(ring: KFRing) -> "AElem":
        return AElem(ring, scalar=Poly.one())

    @staticmethod
    def from_scalar(ring: KFRing, p: Poly) -> "AElem":
        return AElem(ring, scalar=p)

    @staticmethod
    def basis_v(ring: KFRing, i: int) -> "AElem":
        return AElem(ring, vec={i: Poly.one()})

    @staticmethod
    def basis_b(ring: KFRing, i: int, j: int) -> "AElem":
        """The bracket basis element [v_i, v_j] with sign canonicalization."""
        if i == j:
            return AElem(ring)
        c = Poly.one()
        if i > j:
            i, j = j, i
            c = -c
        return AElem(ring, brk={(i, j): c})

    # -- ring structure ---------------------------------------------------

    def _check(self, other):
        if self.ring is not other.ring:
            raise GringError("elements of different ambient rings")

    def __add__(self, other):
        if isinstance(other, AElem):
            self._check(other)
            vec = dict(self.vec)
            for i, p in other.vec.items():
                vec[i] = vec.get(i, Poly.zero()) + p
            brk = dict(self.brk)
            for ij, p in other.brk.items():
                brk[ij] = brk.get(ij, Poly.zero()) + p
            return AElem(self.ring, self.scalar + other.scalar, vec, brk)
        return NotImplemented

    def __neg__(self):
        return AElem(
            self.ring,
            -self.scalar,
            {i: -p for i, p in self.vec.items()},
            {ij: -p for ij, p in self.brk.items()},
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, p) -> "AElem":
        """Multiplication by a central scalar (Poly or exact number)."""
        if not isinstance(p, Poly):
            p = Poly.const(p)
        return AElem(
            self.ring,
            self.scalar * p,
            {i: q * p for i, q in self.vec.items()},
            {ij: q * p for ij, q in self.brk.items()},
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        if not isinstance(other, AElem):
            return NotImplemented
        self._check(other)
        ring = self.ring
        m, w = ring.m, ring.w
        guard = REGISTRY.guard
        x_s, y_s = self.scalar._t, other.scalar._t
        out_s = poly_mul(x_s, y_s, guard)
        out_v = {}
        out_b = {}

        # scalar times basis parts, both sides
        for s, y in ((x_s, other), (y_s, self)):
            if s:
                for i, p in y.vec.items():
                    poly_addmul(out_v.setdefault(i, {}), s, p._t, guard)
                for ij, p in y.brk.items():
                    poly_addmul(out_b.setdefault(ij, {}), s, p._t, guard)

        # v_i * v_j = -m(i,j) + b_ij
        for i, a in self.vec.items():
            for j, b in other.vec.items():
                c = poly_mul(a._t, b._t, guard)
                poly_addmul(out_s, c, m(i, j)._t, guard, -1)
                _addmul_b(out_b, i, j, c, UNIT, guard)

        # b_ij * v_k = -w(i,j,k) + m(i,k) v_j - m(j,k) v_i
        for (i, j), a in self.brk.items():
            for k, b in other.vec.items():
                c = poly_mul(a._t, b._t, guard)
                poly_addmul(out_s, c, w(i, j, k)._t, guard, -1)
                poly_addmul(out_v.setdefault(j, {}), c, m(i, k)._t, guard)
                poly_addmul(out_v.setdefault(i, {}), c, m(j, k)._t, guard, -1)

        # v_k * b_ij = -w(i,j,k) - m(i,k) v_j + m(j,k) v_i
        for k, a in self.vec.items():
            for (i, j), b in other.brk.items():
                c = poly_mul(a._t, b._t, guard)
                poly_addmul(out_s, c, w(i, j, k)._t, guard, -1)
                poly_addmul(out_v.setdefault(j, {}), c, m(i, k)._t, guard, -1)
                poly_addmul(out_v.setdefault(i, {}), c, m(j, k)._t, guard)

        # b_ij * b_kl = m(i,l)m(j,k) - m(i,k)m(j,l) - w(i,j,k) v_l + w(i,j,l) v_k
        for (i, j), a in self.brk.items():
            for (k, l), b in other.brk.items():
                c = poly_mul(a._t, b._t, guard)
                g = m(i, l) * m(j, k) - m(i, k) * m(j, l)
                poly_addmul(out_s, c, g._t, guard)
                poly_addmul(out_v.setdefault(l, {}), c, w(i, j, k)._t, guard, -1)
                poly_addmul(out_v.setdefault(k, {}), c, w(i, j, l)._t, guard)

        return AElem(ring, Poly._raw(out_s), _polys(out_v), _polys(out_b))

    __rmul__ = scale

    def __eq__(self, other):
        if not isinstance(other, AElem):
            return NotImplemented
        return (
            self.ring is other.ring
            and self.scalar == other.scalar
            and self.vec == other.vec
            and self.brk == other.brk
        )

    def is_zero(self) -> bool:
        return self.scalar.is_zero() and not self.vec and not self.brk

    def is_lambda(self) -> bool:
        """True when the element lies in the anti-symmetric summand."""
        return self.scalar.is_zero()

    # -- projections -------------------------------------------------------

    def bar(self) -> Poly:
        """Scalar part: the projection onto the commutative subring."""
        return self.scalar

    def vector_part(self) -> "AElem":
        """The element with the scalar part removed.

        The coordinates are already canonical, so they are copied, not
        canonicalized again.
        """
        return AElem._raw(self.ring, Poly.zero(), dict(self.vec), dict(self.brk))

    def render(self) -> str:
        parts = []
        if not self.scalar.is_zero():
            parts.append(f"({self.scalar.render()})")
        for i in sorted(self.vec):
            parts.append(f"({self.vec[i].render()})*v{i}")
        for i, j in sorted(self.brk):
            parts.append(f"({self.brk[(i, j)].render()})*b{i}{j}")
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"AElem({self.render()})"


def bar(a: AElem) -> Poly:
    return a.bar()


def vec(a: AElem) -> AElem:
    return a.vector_part()


def _require_lambda(a: AElem, what: str):
    if not a.is_lambda():
        raise GringError(f"{what} requires elements with zero scalar part")


def dot(a: AElem, b: AElem) -> Poly:
    """Symmetric pairing on the anti-symmetric summand, valued in scalars."""
    _require_lambda(a, "dot")
    _require_lambda(b, "dot")
    a._check(b)
    ring = a.ring
    m, w = ring.m, ring.w
    guard = REGISTRY.guard
    out = {}
    for i, p in a.vec.items():
        for j, q in b.vec.items():
            poly_addmul(out, poly_mul(p._t, q._t, guard), m(i, j)._t, guard)
    for i, p in a.vec.items():
        for (j, k), q in b.brk.items():
            poly_addmul(out, poly_mul(p._t, q._t, guard), w(j, k, i)._t, guard)
    for (j, k), p in a.brk.items():
        for i, q in b.vec.items():
            poly_addmul(out, poly_mul(p._t, q._t, guard), w(j, k, i)._t, guard)
    for (i, j), p in a.brk.items():
        for (k, l), q in b.brk.items():
            g = m(i, k) * m(j, l) - m(i, l) * m(j, k)
            poly_addmul(out, poly_mul(p._t, q._t, guard), g._t, guard)
    return ring.nf(Poly._raw(out))


def module_basis(ring: KFRing) -> tuple:
    """The canonical module basis (1, v_1, ..., v_n, then b_ij for i < j);
    built once per ring."""
    return cached(_make_module_basis, ring)


def _make_module_basis(ring: KFRing) -> tuple:
    idx = range(1, ring.n + 1)
    basis = [AElem.one(ring)] + [AElem.basis_v(ring, i) for i in idx]
    basis += [AElem.basis_b(ring, i, j) for i, j in combinations(idx, 2)]
    return tuple(basis)


def basis_pairings(x: AElem) -> list:
    """dot(beta, vec(x)) for beta = v_1, ..., v_n, then b_ij for i < j."""
    v = x.vector_part()
    return [dot(beta, v) for beta in module_basis(x.ring)[1:]]


def bar_product(x: AElem, y: AElem) -> Poly:
    """bar(x * y) from the scalar rows of the product table alone.

    Those rows are the ones of ``AElem.__mul__``: v_i*v_j gives -m(i,j),
    b_ij*v_k and v_k*b_ij give -w(i,j,k), and b_ij*b_kl gives m(i,l)m(j,k)
    - m(i,k)m(j,l); a scalar times a basis element has no scalar part.
    The product's vector and bracket parts are never formed.
    """
    x._check(y)
    ring = x.ring
    m, w = ring.m, ring.w
    guard = REGISTRY.guard
    out = poly_mul(x.scalar._t, y.scalar._t, guard)
    for i, a in x.vec.items():
        for j, b in y.vec.items():
            poly_addmul(out, poly_mul(a._t, b._t, guard), m(i, j)._t, guard, -1)
    for (i, j), a in x.brk.items():
        for k, b in y.vec.items():
            poly_addmul(out, poly_mul(a._t, b._t, guard), w(i, j, k)._t, guard, -1)
    for k, a in x.vec.items():
        for (i, j), b in y.brk.items():
            poly_addmul(out, poly_mul(a._t, b._t, guard), w(i, j, k)._t, guard, -1)
    for (i, j), a in x.brk.items():
        for (k, l), b in y.brk.items():
            g = m(i, l) * m(j, k) - m(i, k) * m(j, l)
            poly_addmul(out, poly_mul(a._t, b._t, guard), g._t, guard)
    return ring.nf(Poly._raw(out))


def bracket(a: AElem, b: AElem) -> AElem:
    """Antisymmetric pairing, valued in the anti-symmetric summand."""
    _require_lambda(a, "bracket")
    _require_lambda(b, "bracket")
    a._check(b)
    ring = a.ring
    m = ring.m
    guard = REGISTRY.guard
    out_v = {}
    out_b = {}

    for i, p in a.vec.items():
        for j, q in b.vec.items():
            _addmul_b(out_b, i, j, p._t, q._t, guard)
    # [v_i, b_jk] = m(i,k) v_j - m(i,j) v_k
    for i, p in a.vec.items():
        for (j, k), q in b.brk.items():
            c = poly_mul(p._t, q._t, guard)
            poly_addmul(out_v.setdefault(j, {}), c, m(i, k)._t, guard)
            poly_addmul(out_v.setdefault(k, {}), c, m(i, j)._t, guard, -1)
    # [b_ij, v_k] = m(i,k) v_j - m(j,k) v_i
    for (i, j), p in a.brk.items():
        for k, q in b.vec.items():
            c = poly_mul(p._t, q._t, guard)
            poly_addmul(out_v.setdefault(j, {}), c, m(i, k)._t, guard)
            poly_addmul(out_v.setdefault(i, {}), c, m(j, k)._t, guard, -1)
    # [b_ij, b_kl] = m(i,k) b_jl + m(j,l) b_ik - m(i,l) b_jk - m(j,k) b_il
    for (i, j), p in a.brk.items():
        for (k, l), q in b.brk.items():
            c = poly_mul(p._t, q._t, guard)
            _addmul_b(out_b, j, l, c, m(i, k)._t, guard)
            _addmul_b(out_b, i, k, c, m(j, l)._t, guard)
            _addmul_b(out_b, j, k, c, m(i, l)._t, guard, -1)
            _addmul_b(out_b, i, l, c, m(j, k)._t, guard, -1)
    return AElem(ring, None, _polys(out_v), _polys(out_b))


def triple(a: AElem, b: AElem, c: AElem) -> Poly:
    """Alternating scalar triple pairing: dot(bracket(a, b), c)."""
    return dot(bracket(a, b), c)


def embed_generator(ring: KFRing, i: int, exponent_sign: int = 1) -> AElem:
    """Image of a generator letter: lam_i + v_i (inverse: lam_i - v_i)."""
    if exponent_sign not in (1, -1):
        raise ValueError("exponent sign must be +1 or -1")
    one = Poly.one()
    return AElem(ring, ring.lam(i), {i: one if exponent_sign > 0 else -one})


def _syllable(ring: KFRing, k: int, e: int) -> AElem:
    """The image a + b*v_k of g_k^e (see ``embed_word``), built without
    canonicalization.

    It is canonical as it stands: a and b are nonzero polynomials in lam_k
    alone, so they hold no w symbol to rewrite, and no lead of the ring's
    basis is a power of one lam, so they are normal forms
    (``tests/test_agmod.py`` checks this up to rank 4).  Its callers:
    ``embed_word`` returns the first syllable's element as it is built
    and multiplies by each further one through ``AElem.__mul__``, and
    ``embed_bar`` takes the last syllable through ``bar_product``.
    """
    lam = ring.lam(k)
    mkk = ring.m(k, k)
    a, b = lam, Poly.one()
    for _ in range(abs(e) - 1):
        a, b = a * lam - b * mkk, a + b * lam
    return AElem._raw(ring, a, {k: b if e > 0 else -b}, {})


def embed_word(ring: KFRing, w: Word) -> AElem:
    """Left-to-right product of generator images over the word's letters.

    Multiplies one syllable g_k^e at a time.  As v_k^2 = -m(k,k) =
    lam_k^2 - 1, (lam_k + v_k)^|e| = a + b*v_k with a = T_|e|(lam_k) and
    b = U_|e|-1(lam_k): a_1 = lam_k, b_1 = 1, and each further letter
    steps a <- a*lam_k - b*m(k,k), b <- a + b*lam_k.  A negative e flips
    the sign of b.  The first syllable's element is used as built, being
    canonical (see ``_syllable``); the running product takes each further
    syllable in one ``AElem.__mul__``.
    """
    if not w.syllables:
        return AElem.one(ring)
    first, *rest = w.syllables
    out = _syllable(ring, *first)
    for k, e in rest:
        out = out * _syllable(ring, k, e)
    return out


def embed_bar(ring: KFRing, w: Word) -> Poly:
    """bar(embed_word(ring, w)), with the last syllable taken through
    ``bar_product``: its vector and bracket parts are never formed."""
    if not w.syllables:
        return Poly.one()
    head = embed_word(ring, Word(w.syllables[:-1]))
    return bar_product(head, _syllable(ring, *w.syllables[-1]))


def power_bar(ring: KFRing, g: Word, h: Word, k: Word, n: int) -> Poly:
    """Scalar part of g*h^n*k via the recurrence family, not by expansion.

    Equals ``bar(embed_word(g*h^n*k))`` identically; the closed form stays
    cheap for large n.
    """
    barh = embed_bar(ring, h)
    bar_ghk = embed_bar(ring, g * h * k)
    bar_gk = embed_bar(ring, g * k)
    x = REGISTRY.var("x")
    pn = chebyshev_like(n).substitute({x: barh})
    pn1 = chebyshev_like(n - 1).substitute({x: barh})
    return ring.nf(bar_ghk * pn - bar_gk * pn1)
