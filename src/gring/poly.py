"""Exact sparse multivariate polynomials over the rationals.

Coefficients are exact rationals: a plain ``int`` whenever a constructor
or the kernel produces an integral value, a ``fractions.Fraction`` only for
a true fraction.  The two compare, hash and print alike, so every equality
test in the package is exact and no coefficient is ever a float.
Every polynomial, monomial order and ring of the package lives in one
polynomial ring over the rationals, whose variables are the names in the
append-only ``REGISTRY``; it hands out a stable integer id on a name's
first use, and ``Poly.registry`` is the same object.
A monomial is one int with a field per variable (see ``kernel``);
an exponent past ``kernel.EXP_MAX`` raises ``ExponentOverflow``.  The
public view is tuples of ``(variable_id, exponent)`` pairs sorted by id:
``Poly(terms)`` takes them, summing keys that name one monomial, and
``terms()`` and ``MonomialOrder.leading`` return them.
Monomial orders are block orders with degree-reverse-lexicographic
comparison inside each block; a single block gives plain degrevlex and a
leading singleton block gives the elimination orders used downstream.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from . import kernel
from .errors import ExponentOverflow, ForeignVariable
from .errors import MalformedSyntax
from .kernel import EXP_BITS, EXP_MASK, EXP_MAX

Rational = Fraction

NEG_INF = float("-inf")

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class VariableRegistry:
    """Append-only mapping between variable names and integer ids."""

    def __init__(self):
        self._names = []
        self._ids = {}
        self.guard = 0  # the guard bits of every variable's monomial field

    def var(self, name: str) -> int:
        """Id of ``name``, creating the variable on first use."""
        vid = self._ids.get(name)
        if vid is None:
            if not _IDENT.fullmatch(name):
                raise ValueError(f"invalid variable name {name!r}")
            vid = len(self._names)
            self._names.append(name)
            self._ids[name] = vid
            self.guard |= 1 << (vid * EXP_BITS + EXP_BITS - 1)
        return vid

    def lookup(self, name: str) -> int:
        """Id of ``name``; ForeignVariable if the registry lacks it."""
        vid = self._ids.get(name)
        if vid is None:
            raise ForeignVariable(f"unknown variable {name!r}")
        return vid

    def name(self, vid: int) -> str:
        return self._names[vid]

    def __len__(self):
        return len(self._names)

    def __contains__(self, name):
        return name in self._ids


#: The one variable namespace of the package.
REGISTRY = VariableRegistry()

#: Distinguished variable carrying the one-variable recurrence family and
#: the isolated variable of the two-generator case study.
CHEB_VAR = "x"


def _coeff(c) -> int | Fraction:
    """``c`` as a coefficient: an ``int`` if integral, else a ``Fraction``."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficients must be exact rationals, got {type(c)!r}")


def _pack(mono) -> int:
    """Packed monomial of (variable id, exponent) pairs in any order; the
    exponents of a repeated variable add up."""
    m = 0
    for vid, e in mono:
        if not 0 <= vid < len(REGISTRY):
            raise ForeignVariable(f"unknown variable id {vid!r}")
        if e < 0:
            raise ValueError(f"negative exponent of {REGISTRY.name(vid)!r}")
        m += e << (vid * EXP_BITS)
        if e > EXP_MAX or m & REGISTRY.guard:
            name = REGISTRY.name(vid)
            raise ExponentOverflow(f"exponent of {name!r} exceeds {EXP_MAX}")
    return m


def _unpack(m) -> tuple:
    """Tuple monomial of the packed ``m``."""
    out = []
    vid = 0
    while m:
        e = m & EXP_MASK
        if e:
            out.append((vid, e))
        m >>= EXP_BITS
        vid += 1
    return tuple(out)


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_t",)

    #: The namespace of every polynomial's variable ids.
    registry = REGISTRY

    def __init__(self, terms=()):
        t = {}
        for mono, c in dict(terms).items():
            m = _pack(mono)
            t[m] = t.get(m, 0) + _coeff(c)
        self._t = {m: _coeff(c) for m, c in t.items() if c}

    @classmethod
    def _raw(cls, terms: dict) -> "Poly":
        p = cls.__new__(cls)
        p._t = terms
        return p

    def _strict(self) -> "Poly":
        """self, or a copy with every integral ``Fraction`` coefficient
        stored as an ``int``."""
        for c in self._t.values():
            if type(c) is not int and c.denominator == 1:
                return Poly._raw({m: _coeff(c) for m, c in self._t.items()})
        return self

    @classmethod
    def zero(cls) -> "Poly":
        return cls._raw({})

    @classmethod
    def const(cls, c) -> "Poly":
        c = _coeff(c)
        return cls._raw({0: c} if c else {})

    @classmethod
    def one(cls) -> "Poly":
        return cls.const(1)

    @classmethod
    def variable(cls, name: str) -> "Poly":
        return cls._raw({1 << (REGISTRY.var(name) * EXP_BITS): 1})

    # -- inspection ----------------------------------------------------

    def terms(self):
        """List of (tuple monomial, coefficient) pairs (no fixed order)."""
        return [(_unpack(m), c) for m, c in self._t.items()]

    def is_zero(self) -> bool:
        return not self._t

    def is_constant(self) -> bool:
        return not self._t or (len(self._t) == 1 and 0 in self._t)

    def constant_term(self) -> int | Fraction:
        return self._t.get(0, 0)

    def variables(self):
        """Sorted ids of the variables that actually occur."""
        acc = 0
        for m in self._t:
            acc |= m
        return [vid for vid, _ in _unpack(acc)]

    def _shift(self, v) -> int:
        """Bit offset of the field of ``v``, a name or id."""
        return (REGISTRY.lookup(v) if isinstance(v, str) else v) * EXP_BITS

    def degree_in(self, v):
        """Largest exponent of ``v`` (a name or id); -inf for the zero poly."""
        s = self._shift(v)
        if not self._t:
            return NEG_INF
        return max(m >> s & EXP_MASK for m in self._t)

    def coefficient_in(self, v, k: int) -> "Poly":
        """Coefficient of ``v**k`` as a polynomial in the other variables."""
        s = self._shift(v)
        field, want = EXP_MASK << s, k << s
        out = {m - want: c for m, c in self._t.items() if m & field == want}
        return Poly._raw(out)

    # -- arithmetic ----------------------------------------------------

    # Each operator tests for a Poly first: isinstance against Fraction
    # goes through ABCMeta.__instancecheck__ and is far slower.
    def __add__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(other)
        return Poly._raw(kernel.poly_add(self._t, other._t))

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw({m: -c for m, c in self._t.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly._raw(kernel.poly_mul(self._t, other._t, REGISTRY.guard))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return Poly._raw(kernel.poly_scale(self._t, _coeff(other)))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined for Poly")
        result = Poly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(other)
        return self._t == other._t

    def __hash__(self):
        return hash(frozenset(self._t.items()))

    def __bool__(self):
        return bool(self._t)

    def substitute(self, assignment) -> "Poly":
        """Image under the ring map sending each assigned variable.

        ``assignment`` maps variable names or ids to Poly / exact numbers;
        unassigned variables pass through unchanged.
        """
        amap = {}
        assigned = 0  # the fields of the assigned variables
        for key, val in assignment.items():
            s = self._shift(key)
            if not isinstance(val, Poly):
                val = Poly.const(val)
            amap[s] = val
            assigned |= EXP_MASK << s
        guard = REGISTRY.guard
        powers = {}  # (field offset, exponent) -> terms of that power
        out = {}
        for m, c in self._t.items():
            term = {m & ~assigned: c}
            for s, p in amap.items():
                e = m >> s & EXP_MASK
                if e:
                    pe = powers.get((s, e))
                    if pe is None:
                        pe = powers[(s, e)] = (p ** e)._t
                    term = kernel.poly_mul(term, pe, guard)
            out = kernel.poly_add(out, term)
        return Poly._raw(out)

    # -- rendering -----------------------------------------------------

    def _sorted_terms(self):
        def by_degree(kv):
            d = 0
            for _, e in kv[0]:
                d += e
            return d, kv[0]

        return sorted(self.terms(), key=by_degree, reverse=True)

    def render(self) -> str:
        """Human-readable form like ``3/2*x^2*y - 1``."""
        if not self._t:
            return "0"
        chunks = []
        for m, c in self._sorted_terms():
            factors = []
            for vid, e in m:
                name = REGISTRY.name(vid)
                factors.append(name if e == 1 else f"{name}^{e}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Poly({self.render()})"


#: Field width, guard bit included, of a new order's packed monomials.
_FIELD_BITS = 8


class MonomialOrder:
    """Block order; degrevlex inside each block, leftmost block dominates.

    ``packing`` lays out the order's packed-integer monomials (see
    ``kernel.Packing``), and ``<`` on them is the order: every comparison,
    the leading term's included, is made on packed ints.  ``repacking``
    makes the packing wider when a degree outgrows it.
    """

    __slots__ = ("blocks", "packing")

    def __init__(self, blocks):
        cleaned = tuple(tuple(b) for b in blocks if b)
        if not cleaned:
            raise ValueError("monomial order needs at least one variable")
        seen = set()
        for b in cleaned:
            for vid in b:
                if vid in seen:
                    raise ValueError("variable repeated across blocks")
                seen.add(vid)
        self.blocks = cleaned
        self.packing = kernel.Packing(cleaned, _FIELD_BITS)

    def _foreign(self, m):
        """ForeignVariable naming the first variable of the monomial ``m``
        that lies outside the order."""
        extra = m & self.packing.outside
        vid = ((extra & -extra).bit_length() - 1) // EXP_BITS
        name = REGISTRY.name(vid)
        return ForeignVariable(f"variable {name!r} is not part of this monomial order")

    def check(self, p: Poly):
        """Raise ForeignVariable if p has a variable outside the order."""
        acc = 0
        for m in p._t:
            acc |= m
        if acc & self.packing.outside:
            raise self._foreign(acc)

    def pack_nd(self, terms):
        """``packing.pack_nd(terms)``, raising ForeignVariable for a
        variable outside the order."""
        try:
            return self.packing.pack_nd(terms)
        except KeyError as exc:
            raise self._foreign(exc.args[0]) from None

    def repacking(self, run):
        """``run(packing)``; after a FieldOverflow the packing gets fields
        twice as wide and ``run`` starts over."""
        while True:
            packing = self.packing
            try:
                return run(packing)
            except kernel.FieldOverflow:
                self.packing = kernel.Packing(self.blocks, 2 * packing.bits)

    def lead_monomial(self, p: Poly) -> int:
        """``Poly`` monomial of the leading term, the one with the largest
        packed int; p must be nonzero.  Raises ForeignVariable for a
        variable outside the order."""
        try:
            return self.repacking(lambda packing: packing.leading(p._t))
        except KeyError as exc:
            raise self._foreign(exc.args[0]) from None

    def leading(self, p: Poly):
        """(tuple monomial, coefficient) of the leading term (see
        ``lead_monomial``)."""
        m = self.lead_monomial(p)
        return _unpack(m), p._t[m]

    def monic(self, p: Poly) -> Poly:
        """p divided by its leading coefficient, with every integral
        coefficient stored as an ``int``.

        A lead of +-1 gives p or -p at once.  An integer lead divides each
        integer term exactly through one gcd, and a ``Fraction`` is made
        only for a term whose quotient is not integral.
        """
        if p.is_zero():
            return p
        c = p._t[self.lead_monomial(p)]
        if c == 1:
            return p._strict()
        if c == -1:
            return (-p)._strict()
        integral = type(c) is int
        out = {}
        for m, v in p._t.items():
            if not (integral and type(v) is int):
                out[m] = _coeff(v / c)
                continue
            g = gcd(v, c)
            num, den = v // g, c // g
            if den < 0:
                num, den = -num, -den
            out[m] = num if den == 1 else Fraction(num, den)
        return Poly._raw(out)

    def descriptor(self) -> dict:
        return {
            "type": "block_degrevlex",
            "blocks": [[REGISTRY.name(v) for v in b] for b in self.blocks],
        }

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)


def degrevlex(vids) -> MonomialOrder:
    return MonomialOrder((tuple(vids),))


def block_order(*blocks) -> MonomialOrder:
    return MonomialOrder(blocks)


# -- parsing -----------------------------------------------------------

_NUM = re.compile(r"[0-9]+(/[0-9]+)?")


def parse_poly(text: str) -> Poly:
    """Parse the rendering format back into a Poly (test fixtures, CLI)."""
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_factor():
        nonlocal pos
        skip_ws()
        m = _NUM.match(text, pos)
        if m:
            pos = m.end()
            return Poly.const(Fraction(m.group()))
        m = _IDENT.match(text, pos)
        if not m:
            raise MalformedSyntax("expected a number or variable", pos)
        pos = m.end()
        p = Poly.variable(m.group())
        skip_ws()
        if pos < n and text[pos] == "^":
            pos += 1
            skip_ws()
            me = re.compile(r"-?[0-9]+").match(text, pos)
            if not me:
                raise MalformedSyntax("expected an integer exponent", pos)
            e = int(me.group())
            if e < 0:
                raise MalformedSyntax("negative exponents not allowed", pos)
            pos = me.end()
            p = p ** e
        return p

    def parse_term():
        nonlocal pos
        p = parse_factor()
        skip_ws()
        while pos < n and text[pos] == "*":
            pos += 1
            p = p * parse_factor()
            skip_ws()
        return p

    skip_ws()
    sign = 1
    if pos < n and text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        pos += 1
    total = parse_term() * sign
    skip_ws()
    while pos < n:
        if text[pos] == "+":
            sign = 1
        elif text[pos] == "-":
            sign = -1
        else:
            raise MalformedSyntax("expected '+' or '-'", pos)
        pos += 1
        total = total + parse_term() * sign
        skip_ws()
    return total


# -- the recurrence family ---------------------------------------------


def _cheb_coeffs(n: int):
    """Integer coefficient list (index = power) of the n-th family member."""
    if n >= 0:
        prev, cur = [], [1]  # members 0 and 1
        if n == 0:
            return prev
        for _ in range(n - 1):
            nxt = [0, 0] + [0] * len(cur)
            for i, c in enumerate(cur):
                nxt[i + 1] += 2 * c
            for i, c in enumerate(prev):
                nxt[i] -= c
            while nxt and nxt[-1] == 0:
                nxt.pop()
            prev, cur = cur, nxt
        return cur
    # Walk the recurrence downwards from members 1 and 0.
    above, cur = [1], []
    for _ in range(-n):
        below = [0, 0] + [0] * len(cur)
        for i, c in enumerate(cur):
            below[i + 1] += 2 * c
        for i, c in enumerate(above):
            below[i] -= c
        while below and below[-1] == 0:
            below.pop()
        above, cur = cur, below
    return cur


def chebyshev_like(n: int) -> Poly:
    """Member n of the family with P(0)=0, P(1)=1, 2x*P(n)=P(n-1)+P(n+1).

    Defined for every integer n; univariate in the distinguished variable.
    """
    s = REGISTRY.var(CHEB_VAR) * EXP_BITS
    coeffs = _cheb_coeffs(n)
    if len(coeffs) > EXP_MAX + 1:
        raise ExponentOverflow(f"degree {len(coeffs) - 1} exceeds {EXP_MAX}")
    return Poly._raw({i << s: c for i, c in enumerate(coeffs) if c})
