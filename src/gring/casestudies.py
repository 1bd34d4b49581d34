"""Drivers certifying non-normal-generation for free products of cyclics.

Two families are mechanized.  For C_s * C_t, a proper power w^r is fed
through a specialization of the two-generator coordinate ring into a
polynomial ring over a finite algebra E; a degree bound plus an explicit
unit certificate for a leading coefficient yields a machine-checkable
certificate that w^r cannot normally generate the group.  For
C_r * C_s * C_t the analogous specialization lands in a four-variable
quadric ring A over E'; the driver verifies the structural identities
satisfied by the five ideal generators attached to a word and, optionally,
that they generate a proper ideal.  Properness is decided on the rational
points of E' first (``SWRings.properness``): if the generators together
with the linear forms of one point generate a proper ideal, so do the
generators alone, and the reduced basis of that larger ideal, which has
no constant, is the evidence.  Only when every point gives the unit ideal
does the full basis of the five generators decide, so a "whole-ring"
answer costs the point bases plus the full basis.
``boyer_certificate`` and ``sw_verify`` bound their basis computations by
an optional ``deadline``, a ``time.monotonic()`` value that covers every
basis of the call.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import product

from .agmod import bracket, dot, embed_bar, embed_word, module_basis
from .errors import (
    FormCheckFailed,
    GroebnerTimeout,
    InvalidInstance,
    NotAUnit,
)
from .groebner import GroebnerBasis
from .poly import REGISTRY, Poly, block_order, chebyshev_like, degrevlex
from .ring import QuotientRing, build_KF, cached, invert, is_whole_ring
from .words import Word


def normalize_unit_exponents(w: Word, moduli) -> Word:
    """Append relator powers so each generator's exponent sum is exactly 1.

    ``moduli[i-1]`` is the order of the i-th cyclic factor.  Sums must
    already be congruent to 1 modulo the factor order (anything else does
    not represent a candidate normal generator) or InvalidInstance is
    raised.
    """
    out = w
    for i, mod in enumerate(moduli, start=1):
        es = out.exponent_sum(i)
        if (es - 1) % mod != 0:
            raise InvalidInstance(
                f"exponent sum {es} of generator {i} is not 1 mod {mod}"
            )
        if es != 1:
            out = out * Word.generator(i, 1 - es)  # a multiple of g_i^mod
    return out


def _power_poly(n: int, target: Poly, ambient: QuotientRing) -> Poly:
    """Member n of the recurrence family evaluated at a ring element."""
    x = REGISTRY.var("x")
    return ambient.nf(chebyshev_like(n).substitute({x: target}))


# ---------------------------------------------------------------------------
# Two-generator case
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoyerInstance:
    """A proper power w^r as a candidate normal generator of C_s * C_t."""

    s: int
    t: int
    r: int
    w: Word

    def __post_init__(self):
        if min(self.s, self.t, self.r) <= 1:
            raise InvalidInstance("s, t, r must all exceed 1")
        if self.w.max_generator() > 2:
            raise InvalidInstance("word must use two generators")

    def normalized_word(self) -> Word:
        return normalize_unit_exponents(self.w, (self.s, self.t))

    def describe(self) -> dict:
        return {
            "s": self.s,
            "t": self.t,
            "r": self.r,
            "word": self.w.render(),
            "normalized_word": self.normalized_word().render(),
        }


def build_E(s: int, t: int) -> QuotientRing:
    """The ring ``make_E(s, t)``, built once per (s, t)."""
    return cached(make_E, s, t)


def make_E(s: int, t: int) -> QuotientRing:
    """The coefficient algebra adjoining roots of the degree s, t members.

    Variables mu1, mu2 (the roots) and s1, s2 (sines: s_i^2 + mu_i^2 = 1),
    together with the isolated variable x on top of the order so that
    polynomials read as elements of E[x].  Builds a new ring on every
    call; ``build_E`` shares one per (s, t).
    """
    mu1, mu2 = Poly.variable("mu1"), Poly.variable("mu2")
    s1, s2 = Poly.variable("s1"), Poly.variable("s2")
    xv = REGISTRY.var("x")
    evars = [REGISTRY.lookup(n) for n in ("mu1", "mu2", "s1", "s2")]
    rels = [
        chebyshev_like(s).substitute({xv: mu1}),
        chebyshev_like(t).substitute({xv: mu2}),
        s1 * s1 + mu1 * mu1 - 1,
        s2 * s2 + mu2 * mu2 - 1,
    ]
    order = block_order((xv,), tuple(evars))
    return QuotientRing((xv, *evars), rels, order=order, label=f"E({s},{t})[x]")


def boyer_theta(p: Poly, E: QuotientRing) -> Poly:
    """Specialize lam1 -> mu1, lam2 -> mu2, m12 -> s1*s2*x, then reduce."""
    return E.nf(p.substitute(cached(_boyer_theta_map)))


def _boyer_theta_map():
    ring2 = build_KF(2)
    mu1, mu2, s1, s2, x = (
        Poly.variable(n) for n in ("mu1", "mu2", "s1", "s2", "x")
    )
    return {ring2._lam[1]: mu1, ring2._lam[2]: mu2, ring2._m[(1, 2)]: s1 * s2 * x}


def _x_remainder_mod_quadric(p: Poly) -> Poly:
    """Remainder of p on division by 1 - x^2 (fold x^k to x^(k mod 2))."""
    xvid = REGISTRY.var("x")
    out = Poly.zero()
    deg = p.degree_in(xvid)
    if deg == float("-inf"):
        return p
    xpoly = Poly.variable("x")
    for k in range(int(deg) + 1):
        c = p.coefficient_in(xvid, k)
        if c.is_zero():
            continue
        out = out + (c * xpoly if k % 2 else c)
    return out


@dataclass
class Certificate:
    """Machine-checkable record of a non-normal-generation conclusion."""

    kind: str
    instance: dict
    order: dict
    theta_image: str
    remainder: str
    raw_degree: int
    degree: int | None
    leading_coefficient: str | None
    unit_certificate: str | None
    conclusion: str | None
    failure: str | None = None

    @property
    def certified(self) -> bool:
        return self.conclusion is not None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def boyer_certificate(inst: BoyerInstance, deadline=None) -> Certificate:
    """Certify that w^r does not normally generate C_s * C_t.

    Checks, in order: the specialized scalar part has remainder
    -s1*s2*x + mu1*mu2 modulo 1 - x^2 (anything else is an engine bug and
    raises FormCheckFailed); the composite through the degree-r member has
    x-degree at least r-1; and the leading coefficient is a unit of E,
    certified by an explicit cofactor.  The algebra E splits as a product
    of fields, so "leading" means the highest x-degree whose coefficient
    is certified invertible; coefficients that are zero divisors are
    skipped on the way down.  Only when all three checks pass does the
    certificate carry a conclusion.  ``deadline`` is an optional
    ``time.monotonic()`` value for the unit certificates; exceeding it
    raises GroebnerTimeout.
    """
    E = build_E(inst.s, inst.t)
    w = inst.normalized_word()
    ring2 = build_KF(2)
    p = boyer_theta(embed_bar(ring2, w), E)

    mu1mu2 = Poly.variable("mu1") * Poly.variable("mu2")
    s1s2x = Poly.variable("s1") * Poly.variable("s2") * Poly.variable("x")
    remainder = E.nf(_x_remainder_mod_quadric(p))
    expected = E.nf(mu1mu2 - s1s2x)
    if remainder != expected:
        raise FormCheckFailed(
            "specialized scalar part is not -s1*s2*x + mu1*mu2 modulo 1-x^2: "
            f"got {remainder.render()}"
        )

    composite = _power_poly(inst.r, p, E)
    xvid = REGISTRY.var("x")
    raw_deg = composite.degree_in(xvid)
    raw_deg = -1 if raw_deg == float("-inf") else int(raw_deg)

    base = {
        "kind": "boyer",
        "instance": inst.describe(),
        "order": E.order.descriptor(),
        "theta_image": p.render(),
        "remainder": remainder.render(),
        "raw_degree": raw_deg,
    }
    for d in range(raw_deg, -1, -1):
        coeff = composite.coefficient_in(xvid, d)
        if coeff.is_zero():
            continue
        try:
            cof = invert(coeff, E, deadline=deadline)
        except NotAUnit:
            continue
        if d < inst.r - 1:
            return Certificate(
                **base,
                degree=d,
                leading_coefficient=coeff.render(),
                unit_certificate=cof.render(),
                conclusion=None,
                failure=f"unit-certified degree {d} is below {inst.r - 1}",
            )
        return Certificate(
            **base,
            degree=d,
            leading_coefficient=coeff.render(),
            unit_certificate=cof.render(),
            conclusion=(
                f"({inst.w.render()})^{inst.r} does not normally generate "
                f"C{inst.s}*C{inst.t}"
            ),
        )
    return Certificate(
        **base,
        degree=None,
        leading_coefficient=None,
        unit_certificate=None,
        conclusion=None,
        failure="no x-coefficient of the composite is a certified unit",
    )


# ---------------------------------------------------------------------------
# Three-generator case
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SWInstance:
    """A single word as a candidate normal generator of C_r * C_s * C_t."""

    r: int
    s: int
    t: int
    w: Word

    def __post_init__(self):
        if min(self.r, self.s, self.t) <= 1:
            raise InvalidInstance("r, s, t must all exceed 1")
        if self.w.max_generator() > 3:
            raise InvalidInstance("word must use three generators")

    def normalized_word(self) -> Word:
        return normalize_unit_exponents(self.w, (self.r, self.s, self.t))

    def describe(self) -> dict:
        return {
            "r": self.r,
            "s": self.s,
            "t": self.t,
            "word": self.w.render(),
            "normalized_word": self.normalized_word().render(),
        }


_QUADRIC_NAMES = ("x", "y", "u", "v")
_SW_NAMES = ("mu1", "mu2", "mu3", "s1", "s2", "s3", *_QUADRIC_NAMES)


def _sw_vids():
    return tuple(REGISTRY.var(n) for n in _SW_NAMES)


def _quadric() -> Poly:
    x, y, u, v = (Poly.variable(n) for n in _QUADRIC_NAMES)
    return (1 - x * x) * (1 - y * y) - (u * u + v * v)


def _make_A4() -> QuotientRing:
    """The quadric ring: x, y, u, v modulo (1-x^2)(1-y^2) = u^2 + v^2.

    Ordered by degrevlex over (v, u, y, x): the probe's bases in this order
    are several times cheaper than over (x, y, u, v).  No basis of A4 is
    part of any output.
    """
    vids = tuple(REGISTRY.var(n) for n in reversed(_QUADRIC_NAMES))
    return QuotientRing(
        vids,
        [_quadric()],
        order=degrevlex(vids),
        label="A4",
    )


def _sine_relations():
    rels = []
    for i in (1, 2, 3):
        mu = Poly.variable(f"mu{i}")
        s = Poly.variable(f"s{i}")
        rels.append(s * s + mu * mu - 1)
    return rels


def rational_points(i: int, n: int):
    """The rational points of the i-th factor of E', for a factor of order n.

    Each point is the list of linear forms vanishing on it.  The roots of
    the degree-n member are cos(k pi/n), 0 < k < n, and by Niven's theorem
    such a cosine is rational only when it is 0 or +-1/2: mu_i = 0 (where
    s_i = +-1) when n is even, and mu_i = +-1/2 (where s_i^2 = 3/4 has no
    rational root) when 3 divides n.
    """
    mu, s = Poly.variable(f"mu{i}"), Poly.variable(f"s{i}")
    points = []
    if n % 2 == 0:
        points += [[mu, s - 1], [mu, s + 1]]
    if n % 3 == 0:
        half = Fraction(1, 2)
        points += [[mu - half], [mu + half]]
    return points


def _sw_theta_map() -> dict:
    """The rank-3 specialization as a substitution on KF3's symbols.

    lam_i -> mu_i, m12 -> s1 s2 x, m13 -> s3 s1 y, m23 -> s2 s3 (u + xy),
    w123 -> s1 s2 s3 v.
    """
    ring3 = build_KF(3)
    mu1, mu2, mu3, s1, s2, s3, x, y, u, v = (
        Poly.variable(n) for n in _SW_NAMES
    )
    return {
        ring3._lam[1]: mu1,
        ring3._lam[2]: mu2,
        ring3._lam[3]: mu3,
        ring3._m[(1, 2)]: s1 * s2 * x,
        ring3._m[(1, 3)]: s3 * s1 * y,
        ring3._m[(2, 3)]: s2 * s3 * (u + x * y),
        ring3._w[(1, 2, 3)]: s1 * s2 * s3 * v,
    }


class SWRings:
    """Specialization target for the three-generator case.

    ``eprime`` adjoins the three roots and sines; ``A`` adds the quadric
    coordinates x, y, u, v with the single relation
    (1-x^2)(1-y^2) = u^2 + v^2.  ``theta`` carries canonical symbols of
    the rank-3 coordinate ring into A.
    """

    def __init__(self, r: int, s: int, t: int):
        self.r, self.s, self.t = r, s, t
        vids = _sw_vids()
        xv = REGISTRY.var("x")
        erels = [
            chebyshev_like(n).substitute({xv: Poly.variable(f"mu{i}")})
            for i, n in ((1, r), (2, s), (3, t))
        ] + _sine_relations()
        evids = vids[:6]
        self.eprime = QuotientRing(
            evids,
            erels,
            order=degrevlex(evids),
            label=f"E'({r},{s},{t})",
        )
        self.A = QuotientRing(
            vids,
            erels + [_quadric()],
            order=degrevlex(vids),
            label=f"A({r},{s},{t})",
        )
        self._sub = _sw_theta_map()

    def theta(self, p: Poly) -> Poly:
        return self.A.nf(p.substitute(self._sub))

    def s_inverse(self, i: int) -> Poly:
        """Inverse of the sine s_i in E'; computed once per ring."""
        return cached(_sine_inverse, self.eprime, i)

    def j_basis(self) -> GroebnerBasis:
        """Reduced basis of J (``J_gens``) plus the relations of A;
        computed once per ring."""
        return cached(_j_basis, self.A)

    def W(self) -> Poly:
        mu1, mu2, mu3 = (Poly.variable(f"mu{i}") for i in (1, 2, 3))
        s1, s2, s3 = (Poly.variable(f"s{i}") for i in (1, 2, 3))
        x, y = Poly.variable("x"), Poly.variable("y")
        return self.A.nf(
            -(s1 * s1 * s2 * s3 * x * y)
            + mu1 * mu3 * s1 * s2 * x
            + mu1 * mu2 * s1 * s3 * y
            + s1 * s1 * mu2 * mu3
        )

    def points(self):
        """The rational points of E', as lists of linear forms.

        The product over the three factors of ``rational_points``, in a
        fixed order; a factor without one contributes no forms.  Empty
        when no factor has a rational point.
        """
        orders = ((1, self.r), (2, self.s), (3, self.t))
        per_factor = [rational_points(i, n) for i, n in orders]
        if not any(per_factor):
            return []
        return [sum(point, []) for point in product(*(p or [[]] for p in per_factor))]

    def properness(self, gens, deadline=None) -> str:
        """Whether <gens> is a proper ideal of A: "proper", "whole-ring" or
        "timeout".

        Each rational point P of E' is tried first: when <gens> + P is a
        proper ideal, so is its subideal <gens>, and the basis of
        <gens> + P, which has no constant, is the evidence.  A point's
        forms remove up to two variables per factor, so its basis is
        usually much smaller than the full one.  When every point gives the
        unit ideal, or E' has no rational point, the reduced basis of
        <gens> itself decides.  ``deadline`` is an optional
        ``time.monotonic()`` value covering every basis; exceeding it is
        reported as "timeout".
        """
        try:
            for forms in self.points():
                if not is_whole_ring([*gens, *forms], self.A, deadline):
                    return "proper"
            return "whole-ring" if is_whole_ring(gens, self.A, deadline) else "proper"
        except GroebnerTimeout:
            return "timeout"

    @staticmethod
    def J_gens():
        """Generators of J = <u, v, 1-x^2, 1-y^2>."""
        x, y, u, v = (Poly.variable(n) for n in _QUADRIC_NAMES)
        return [u, v, 1 - x * x, 1 - y * y]


def _sine_inverse(eprime: QuotientRing, i: int) -> Poly:
    return invert(Poly.variable(f"s{i}"), eprime)


def _j_basis(A: QuotientRing) -> GroebnerBasis:
    return A.ideal_gb(SWRings.J_gens())


def sw_build(r: int, s: int, t: int) -> SWRings:
    """The rings ``SWRings(r, s, t)``, built once per (r, s, t)."""
    return cached(SWRings, r, s, t)


def _relation_matrix():
    x, y, u, v = (Poly.variable(n) for n in _QUADRIC_NAMES)
    one = Poly.one()
    zero = Poly.zero()
    N = [
        [-u, v, 1 - x * x, zero],
        [-v, -u, zero, 1 - x * x],
        [1 - y * y, zero, -u, -v],
        [zero, 1 - y * y, v, -u],
    ]
    M = [
        [u, v, 1 - x * x, zero],
        [-v, u, zero, 1 - x * x],
        [1 - y * y, zero, u, -v],
        [zero, 1 - y * y, v, u],
    ]
    return N, M


def sw_elements(inst: SWInstance, rings: SWRings | None = None):
    """The five ideal generators attached to a word, as elements of A."""
    rings = rings or sw_build(inst.r, inst.s, inst.t)
    ring3 = build_KF(3)
    w = inst.normalized_word()
    vw = embed_word(ring3, w).vector_part()
    _, v1, _, _, b12, b13, _ = module_basis(ring3)
    bv1w = bracket(v1, vw)
    inv_s1 = rings.s_inverse(1)
    inv_s2 = rings.s_inverse(2)
    inv_s3 = rings.s_inverse(3)
    th = rings.theta
    nf = rings.A.nf
    w1 = th(dot(v1, vw))
    w2 = nf(inv_s2 * th(dot(b12, vw)))
    w2p = nf(inv_s1 * inv_s2 * th(dot(b12, bv1w)))
    w3 = nf(inv_s3 * th(dot(b13, vw)))
    w3p = nf(inv_s1 * inv_s3 * th(dot(b13, bv1w)))
    return w1, w2, w2p, w3, w3p


@dataclass
class CheckReport:
    """Outcome of a batch of named exact checks."""

    kind: str
    instance: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    properness: str | None = None  # proper | whole-ring | timeout | None

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks) and self.properness != "whole-ring"

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def sw_verify(
    inst: SWInstance,
    check_properness: bool = False,
    deadline: float | None = None,
) -> CheckReport:
    """Verify the structural identities for one instance, exactly.

    (a) the four annihilator rows kill (w2, w2', w3, w3'); (b) w1 - W lies
    in the ideal <u, v, 1-x^2, 1-y^2>.  Failures of (a) or (b) indicate an
    engine bug, and are reported with the offending normal form.  With
    ``check_properness`` the five elements are tested to generate a proper
    ideal of A by ``SWRings.properness``: "proper" rests on a reduced basis
    without a constant, either of the five elements plus the linear forms
    of a rational point of E' or, when every point gives the unit ideal,
    of the five elements alone.  "whole-ring" costs the point bases plus
    the full basis.  ``deadline`` is an optional ``time.monotonic()`` value
    covering every one of these bases, and exceeding it is reported as
    properness "timeout", not raised.
    """
    rings = sw_build(inst.r, inst.s, inst.t)
    report = CheckReport("sw-verify", inst.describe())
    w1, w2, w2p, w3, w3p = sw_elements(inst, rings)
    N, _ = _relation_matrix()
    vecw = (w2, w2p, w3, w3p)
    for rix, row in enumerate(N, start=1):
        acc = Poly.zero()
        for a, b in zip(row, vecw):
            acc = acc + a * b
        resid = rings.A.nf(acc)
        report.add(
            f"annihilator-row-{rix}",
            resid.is_zero(),
            "" if resid.is_zero() else resid.render(),
        )
    diff = rings.A.nf(w1 - rings.W())
    resid = rings.j_basis().normal_form(diff)
    report.add(
        "w1-minus-W-in-J",
        resid.is_zero(),
        "" if resid.is_zero() else resid.render(),
    )
    if check_properness:
        report.properness = rings.properness([w1, w2, w2p, w3, w3p], deadline)
    return report


def sw_static_checks() -> CheckReport:
    """Identities that hold for every instance: checked once, exactly."""
    report = CheckReport("sw-static")
    x, y, u, v = (Poly.variable(n) for n in _QUADRIC_NAMES)
    A4 = cached(_make_A4)
    N, M = _relation_matrix()
    for i in range(4):
        for j in range(4):
            entry = Poly.zero()
            for k in range(4):
                entry = entry + N[i][k] * M[k][j]
            resid = A4.nf(entry)
            report.add(
                f"annihilator-times-kernel-{i + 1}{j + 1}",
                resid.is_zero(),
                "" if resid.is_zero() else resid.render(),
            )
    # The three rewrites shrinking the seven kernel generators to four.
    uxy = u + x * y
    idents = [
        ("reduce-1", 1 - uxy * uxy, (1 - x * x) + x * x * (1 - y * y) - (u + 2 * x * y) * u),
        ("reduce-2", x * uxy - y, x * u - y * (1 - x * x)),
        ("reduce-3", x - y * uxy, x * (1 - y * y) - y * u),
    ]
    for name, lhs, rhs in idents:
        report.add(name, lhs == rhs, "" if lhs == rhs else (lhs - rhs).render())
    # The rank-3 ring carries a single defining relation, and the
    # specialization respects it (sine relations suffice: no root
    # relations are needed for well-definedness).
    ring3 = build_KF(3)
    report.add("single-relation", len(ring3.gb.polys) == 1)
    w123 = ring3.w(1, 2, 3)
    lam = {i: ring3.lam(i) for i in (1, 2, 3)}
    m = {
        (1, 2): ring3.m(1, 2),
        (1, 3): ring3.m(1, 3),
        (2, 3): ring3.m(2, 3),
    }
    det = (
        (1 - lam[1] ** 2) * ((1 - lam[2] ** 2) * (1 - lam[3] ** 2) - m[(2, 3)] ** 2)
        - m[(1, 2)] * (m[(1, 2)] * (1 - lam[3] ** 2) - m[(2, 3)] * m[(1, 3)])
        + m[(1, 3)] * (m[(1, 2)] * m[(2, 3)] - (1 - lam[2] ** 2) * m[(1, 3)])
    )
    relation = w123 * w123 - det
    report.add("relation-normal-form", ring3.nf(relation).is_zero())
    vids = _sw_vids()
    Awd = QuotientRing(
        vids,
        _sine_relations() + [_quadric()],
        order=degrevlex(vids),
        label="A-welldef",
    )
    resid = Awd.nf(relation.substitute(_sw_theta_map()))
    report.add(
        "specialization-well-defined",
        resid.is_zero(),
        "" if resid.is_zero() else resid.render(),
    )
    return report


def conjecture_probe(
    c0: Fraction,
    c1: Fraction,
    c2: Fraction,
    c3: Fraction,
    seed: int = 0,
    trials: int = 20,
    max_coeff: int = 2,
) -> CheckReport:
    """Randomized search for a counterexample to the properness conjecture.

    Draws random vectors q1, q2 over the quadric ring (entries of total
    degree at most 1), a random element of <u, v, 1-x^2, 1-y^2>, and
    checks that a = q1^T M q2 together with c3*x*y+c2*y+c1*x+c0 shifted by
    that element generates a proper ideal.  Any whole-ring hit is reported
    verbatim; none is expected.
    """
    if not c3:
        raise InvalidInstance("the xy-coefficient c3 must be nonzero")
    if trials < 0:
        raise InvalidInstance(f"trials must not be negative, got {trials}")
    rng = random.Random(seed)
    report = CheckReport("sw-probe", {
        "c0": str(c0), "c1": str(c1), "c2": str(c2), "c3": str(c3),
        "seed": seed, "trials": trials,
    })
    A4 = cached(_make_A4)
    x, y = Poly.variable("x"), Poly.variable("y")
    _, M = _relation_matrix()
    jgens = SWRings.J_gens()
    wprime = c3 * x * y + c2 * y + c1 * x + Poly.const(c0)

    def rand_poly():
        out = Poly.const(rng.randint(-max_coeff, max_coeff))
        for name in _QUADRIC_NAMES:
            c = rng.randint(-max_coeff, max_coeff)
            if c:
                out = out + c * Poly.variable(name)
        return out

    whole = 0
    for trial in range(trials):
        q1 = [rand_poly() for _ in range(4)]
        q2 = [rand_poly() for _ in range(4)]
        alpha = Poly.zero()
        for g in jgens:
            alpha = alpha + rand_poly() * g
        a = Poly.zero()
        for i in range(4):
            for j in range(4):
                a = a + q1[i] * M[i][j] * q2[j]
        if is_whole_ring([a, wprime + alpha], A4):
            whole += 1
            report.add(
                f"trial-{trial}",
                False,
                json.dumps({
                    "q1": [p.render() for p in q1],
                    "q2": [p.render() for p in q2],
                    "alpha": alpha.render(),
                }),
            )
        else:
            report.add(f"trial-{trial}", True)
    report.instance["whole_ring_hits"] = whole
    return report
