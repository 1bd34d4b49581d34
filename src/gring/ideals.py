"""Obstruction ideals attached to sets of group words.

Three ideals in the free-group coordinate ring are attached to a word set
L: the full kernel-style ideal (``hash``), its refinement through the
anti-symmetric pairing (``hashhash``), and the naive augmentation-style
ideal (``bullet``).  Comparing ``hashhash`` ideals of two word sets gives
a sound (never complete) test that one set fails to normally generate the
normal closure of the other.

Each generator is computed once, from coordinates that are already
canonical, and comes out as a normal form: a ``hashhash`` generator is a
pairing read off the coordinates of the embedded word
(``agmod.basis_pairings``), a ``hash`` generator takes bar(beta * l) from
the scalar rows of the product table (``agmod.bar_product``), and a
``bullet`` generator needs only the scalar part of the word
(``agmod.embed_bar``).  No module-basis product is formed for them and no
generator is reduced twice; ``_prune`` only scales to a monic generator
with integer division and drops zeros and repeats.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .agmod import (
    AElem,
    bar_product,
    basis_pairings,
    bracket,
    embed_bar,
    embed_word,
)
from .poly import Poly
from .ring import KFRing, QuotientRing, build_KF
from .words import Presentation, Word


class Verdict(enum.Enum):
    """Outcome of a normal-generation obstruction test.

    The test is one-sided: unequal obstruction ideals certify "does not
    normally generate"; equal ideals prove nothing.
    """

    CERTIFIED_NO = "CertifiedNo"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class IdealSpec:
    """An ideal in a coordinate ring, tagged with how it was produced."""

    ambient: QuotientRing
    generators: tuple
    provenance: str = "custom"

    def gb(self, deadline=None):
        return self.ambient.ideal_gb(self.generators, deadline=deadline)

    def to_dict(self) -> dict:
        return {
            "ambient": self.ambient.describe(),
            "provenance": self.provenance,
            "generators": [p.render() for p in self.generators],
        }


def _module_basis(ring: KFRing):
    """The canonical module basis {1, v_i, b_ij}."""
    basis = [AElem.one(ring)]
    for i in range(1, ring.n + 1):
        basis.append(AElem.basis_v(ring, i))
    for i in range(1, ring.n + 1):
        for j in range(i + 1, ring.n + 1):
            basis.append(AElem.basis_b(ring, i, j))
    return basis


def _prune(ring: KFRing, gens):
    """Drop zero and duplicate generators, normalizing scale.

    Every generator is already a normal form (a pairing, a scalar part,
    or a difference of them), so none is reduced again.
    """
    monic = ring.order.monic
    out = []
    seen = set()
    for p in gens:
        if p.is_zero():
            continue
        q = monic(p)
        if q not in seen:
            seen.add(q)
            out.append(q)
    return tuple(out)


def hash_generators(L, n: int, bases=None) -> IdealSpec:
    """Generators bar(beta * l) - bar(beta) over the module basis.

    ``bases`` optionally supplies an alternative generating family per
    word (a list of AElem lists, parallel to L); by default the canonical
    basis {1, v_i, b_ij} is used for every word.  bar(beta * l) comes from
    the scalar rows of the product table (``bar_product``), not from the
    pairings behind ``hashhash_generators``.
    """
    ring = build_KF(n)
    basis = _module_basis(ring)
    gens = []
    for idx, l in enumerate(L):
        le = embed_word(ring, l)
        for beta in bases[idx] if bases is not None else basis:
            gens.append(bar_product(beta, le) - beta.bar())
    return IdealSpec(ring, _prune(ring, gens), "hash")


def hashhash_generators(L, n: int) -> IdealSpec:
    """Generators dot(beta, vec(l)) over the anti-symmetric module basis
    {v_i, b_ij}, read off the coordinates of l (``basis_pairings``)."""
    ring = build_KF(n)
    gens = []
    for l in L:
        gens.extend(basis_pairings(embed_word(ring, l)))
    return IdealSpec(ring, _prune(ring, gens), "hashhash")


def bullet_generators(L, n: int) -> IdealSpec:
    """Generators 1 - bar(l)."""
    ring = build_KF(n)
    one = Poly.one()
    gens = [one - embed_bar(ring, l) for l in L]
    return IdealSpec(ring, _prune(ring, gens), "bullet")


def abelianization_kernel_generators(n: int) -> IdealSpec:
    """Generators of the kernel ideal of the map killing all commutators.

    These are the pairings of the basic brackets [v_a, v_b] against the
    anti-symmetric module basis, with zeros and duplicates removed.
    """
    ring = build_KF(n)
    gens = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            bb = bracket(AElem.basis_v(ring, a), AElem.basis_v(ring, b))
            gens.extend(basis_pairings(bb))
    return IdealSpec(ring, _prune(ring, gens), "custom")


def quotient_ring_of_presentation(
    pres: Presentation, deadline=None
) -> QuotientRing:
    """Coordinate ring of the presented group: relator ideal quotient.

    ``deadline`` is an optional ``time.monotonic()`` value for the relation
    basis; exceeding it raises GroebnerTimeout.
    """
    n = pres.generator_count
    ring = build_KF(n)
    extra = hash_generators(pres.relators, n).generators
    return QuotientRing(
        ring.vids,
        list(ring.gb.polys) + list(extra),
        order=ring.order,
        label=f"K[{pres.render()}]",
        deadline=deadline,
    )


def normally_generates_check(
    pres: Presentation, L, use_hash: bool = False, deadline=None
) -> Verdict:
    """Obstruction test: can L normally generate the presented group?

    Compares the obstruction ideal of relators + L against that of the
    full generator set, inside the free-group coordinate ring.  Unequal
    ideals certify that L cannot normally generate; equality is
    inconclusive by design.  ``deadline`` is an optional
    ``time.monotonic()`` value for both basis computations; exceeding it
    raises GroebnerTimeout.
    """
    n = pres.generator_count
    ring = build_KF(n)
    gens_all = [Word.generator(i) for i in range(1, n + 1)]
    make = hash_generators if use_hash else hashhash_generators
    lhs = make(list(pres.relators) + list(L), n)
    rhs = make(gens_all, n)
    if lhs.gb(deadline).polys == rhs.gb(deadline).polys:
        return Verdict.INCONCLUSIVE
    return Verdict.CERTIFIED_NO
