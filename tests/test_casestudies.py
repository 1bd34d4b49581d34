import math
import random
import time
from fractions import Fraction

import pytest

from gring import casestudies
from gring.casestudies import (
    BoyerInstance,
    Certificate,
    SWInstance,
    SWRings,
    boyer_certificate,
    boyer_theta,
    build_E,
    conjecture_probe,
    normalize_unit_exponents,
    rational_points,
    sw_build,
    sw_elements,
    sw_static_checks,
    sw_verify,
)
from gring.errors import InvalidInstance
from gring.ideals import Verdict, normally_generates_check
from gring.poly import REGISTRY, Poly, chebyshev_like
from gring.ring import QuotientRing, build_KF, degrevlex, is_whole_ring
from gring.words import Word, parse_presentation, parse_word

N2 = ["g1", "g2"]
N3 = ["g1", "g2", "g3"]


def W2(text):
    return parse_word(text, N2)


def W3(text):
    return parse_word(text, N3)


def V(name):
    return Poly.variable(name)


# -- word normalization ---------------------------------------------------


def test_normalize_keeps_unit_sums():
    w = normalize_unit_exponents(W2("g1*g2"), (2, 3))
    assert w == W2("g1*g2")


def test_normalize_appends_relator_powers():
    w = W2("g1^3*g2")  # sum 3 = 1 mod 2
    out = normalize_unit_exponents(w, (2, 3))
    assert out.exponent_sum(1) == 1
    assert out.exponent_sum(2) == 1


def test_normalize_rejects_bad_sums():
    with pytest.raises(InvalidInstance):
        normalize_unit_exponents(W2("g1^2*g2"), (2, 3))


def test_instance_validation():
    with pytest.raises(InvalidInstance):
        BoyerInstance(1, 3, 2, W2("g1*g2"))
    with pytest.raises(InvalidInstance):
        SWInstance(2, 3, 5, W2("g1*g2") * Word.generator(4))


# -- the two-generator driver ----------------------------------------------


def test_sine_squares_are_units_in_E():
    E = build_E(5, 7)
    s1 = V("s1")
    assert is_whole_ring([s1 * s1], E)
    assert not is_whole_ring([], E)


def test_boyer_theta_table():
    E = build_E(5, 7)
    ring2 = build_KF(2)
    lam1, lam2, m12 = ring2.lam(1), ring2.lam(2), ring2.m(1, 2)
    assert boyer_theta(lam1, E) == E.nf(V("mu1"))
    assert boyer_theta(lam1 * lam2 - m12, E) == E.nf(
        V("mu1") * V("mu2") - V("s1") * V("s2") * V("x")
    )
    # squares of the sine pair reduce to 1 - mu^2 factors
    lhs = boyer_theta(m12 * m12, E)
    rhs = E.nf((1 - V("mu1") ** 2) * (1 - V("mu2") ** 2) * V("x") ** 2)
    assert lhs == rhs


def test_boyer_certificate_smallest_instance():
    from gring.poly import parse_poly

    cert = boyer_certificate(BoyerInstance(2, 3, 2, W2("g1*g2")))
    assert cert.certified
    assert cert.degree == 1 == cert.raw_degree
    lead = parse_poly(cert.leading_coefficient)
    assert lead == Poly.const(-2) * V("s1") * V("s2")
    # mu1 vanishes for s = 2, so the image is already its own remainder
    rem = parse_poly(cert.remainder)
    assert rem == -(V("s1") * V("s2") * V("x"))
    E = build_E(2, 3)
    cof = parse_poly(cert.unit_certificate)
    assert E.nf(lead * cof - 1).is_zero()


def test_boyer_certificate_r3_degree():
    cert = boyer_certificate(BoyerInstance(2, 3, 3, W2("g1*g2")))
    assert cert.certified
    assert cert.degree >= 2


def test_boyer_remainder_is_exact_for_plain_word():
    # q = 0 for the two-letter word: the specialization is already linear
    cert = boyer_certificate(BoyerInstance(5, 7, 2, W2("g1*g2")))
    E = build_E(5, 7)
    expected = E.nf(V("mu1") * V("mu2") - V("s1") * V("s2") * V("x"))
    assert cert.theta_image == expected.render()
    assert cert.remainder == expected.render()


def test_boyer_cross_check_with_ideal_comparison():
    pres = parse_presentation("<g1,g2|g1^2,g2^3>")
    w = W2("g1*g2")
    cert = boyer_certificate(BoyerInstance(2, 3, 2, w))
    verdict = normally_generates_check(pres, [w ** 2])
    assert cert.certified and verdict is Verdict.CERTIFIED_NO


def test_boyer_certificate_longer_words_never_fail_form_check():
    rng = random.Random(21)
    for _ in range(6):
        s, t, r = 2, 3, 2
        base = Word.from_syllables(
            [(rng.randint(1, 2), rng.choice((1, -1))) for _ in range(rng.randint(0, 5))]
        )
        w = base * Word.generator(1, (1 - base.exponent_sum(1)) % s or s)
        w = w * Word.generator(2, (1 - w.exponent_sum(2)) % t or t)
        w = normalize_unit_exponents(w, (s, t))
        cert = boyer_certificate(BoyerInstance(s, t, r, w))
        assert cert.raw_degree >= 1


def test_certificate_serialization():
    cert = boyer_certificate(BoyerInstance(3, 4, 2, W2("g1*g2")))
    js = cert.to_json()
    assert '"kind": "boyer"' in js
    assert '"conclusion"' in js
    d = cert.to_dict()
    assert d["instance"]["s"] == 3
    assert d["order"]["type"] == "block_degrevlex"


# -- the three-generator driver ---------------------------------------------


def test_sw_theta_table():
    rings = sw_build(2, 3, 5)
    ring3 = build_KF(3)
    assert rings.theta(ring3.m(1, 2)) == rings.A.nf(V("s1") * V("s2") * V("x"))
    assert rings.theta(ring3.m(1, 3)) == rings.A.nf(V("s3") * V("s1") * V("y"))
    assert rings.theta(ring3.w(1, 2, 3)) == rings.A.nf(
        V("s1") * V("s2") * V("s3") * V("v")
    )
    # the defining relation maps to zero
    rel = ring3.gb.polys[0]
    assert rings.theta(rel).is_zero()


def test_sw_elements_of_product_word():
    inst = SWInstance(2, 3, 5, W3("g1*g2*g3"))
    rings = sw_build(2, 3, 5)
    w1, w2, w2p, w3, w3p = sw_elements(inst, rings)
    s1, s2, s3 = V("s1"), V("s2"), V("s3")
    mu1 = V("mu1")
    u, v = V("u"), V("v")
    expected_w1 = rings.A.nf(
        rings.W() - s1 * s1 * s2 * s3 * u + mu1 * s1 * s2 * s3 * v
    )
    assert w1 == expected_w1
    # membership of the difference in the kernel ideal
    jgb = rings.A.ideal_gb(rings.J_gens())
    assert jgb.contains(rings.A.nf(w1 - rings.W()))


def test_sw_verify_full_structure():
    rep = sw_verify(SWInstance(2, 3, 5, W3("g1*g2*g3")))
    assert rep.ok
    names = [c["name"] for c in rep.checks]
    assert names == [
        "annihilator-row-1",
        "annihilator-row-2",
        "annihilator-row-3",
        "annihilator-row-4",
        "w1-minus-W-in-J",
    ]


def test_sw_verify_random_words():
    rng = random.Random(31)
    for _ in range(3):
        base = Word.from_syllables(
            [(rng.randint(1, 3), rng.choice((1, -1))) for _ in range(rng.randint(0, 5))]
        )
        w = base
        for i, mod in ((1, 2), (2, 3), (3, 5)):
            need = (1 - w.exponent_sum(i)) % mod
            if need:
                w = w * Word.generator(i, need)
        rep = sw_verify(SWInstance(2, 3, 5, w))
        assert rep.ok, rep.to_dict()


def test_sw_verify_builds_the_J_basis_once(monkeypatch):
    rings = SWRings(2, 3, 5)  # fresh, outside the ring cache
    monkeypatch.setattr(casestudies, "sw_build", lambda r, s, t: rings)
    built = []
    ideal_gb = rings.A.ideal_gb

    def counting(gens, deadline=None):
        built.append(list(gens))
        return ideal_gb(gens, deadline=deadline)

    monkeypatch.setattr(rings.A, "ideal_gb", counting)
    words = ("g1*g2*g3", "g3*g2*g1", "g1*g2*g3", "g3*g2*g1")
    reports = [sw_verify(SWInstance(2, 3, 5, W3(w))).to_dict() for w in words]
    assert built == [SWRings.J_gens()]
    assert reports[:2] == reports[2:]
    assert all(r["ok"] for r in reports)
    assert rings.j_basis().polys == ideal_gb(SWRings.J_gens()).polys


def test_sw_properness_for_product_word():
    rep = sw_verify(
        SWInstance(2, 3, 5, W3("g1*g2*g3")),
        check_properness=True,
        deadline=time.monotonic() + 900,
    )
    assert rep.properness == "proper"


def _permutation_word(rng, orders):
    """Each generator once, in a seeded order, with exponent 1 or (for a
    factor of order at most 3) 1 - order."""
    gens = [1, 2, 3]
    rng.shuffle(gens)
    sylls = []
    for g in gens:
        n = orders[g - 1]
        sylls.append((g, rng.choice((1, 1 - n)) if n <= 3 else 1))
    return Word.from_syllables(sylls)


@pytest.mark.parametrize(
    "orders, words",
    [((2, 3, 5), 2), ((2, 3, 7), 2), ((2, 3, 9), 2), ((2, 4, 5), 2),
     ((2, 5, 7), 2), ((3, 3, 4), 1)],
)
def test_properness_matches_the_full_basis(orders, words):
    rings = sw_build(*orders)
    rng = random.Random(sum(orders))
    for _ in range(words):
        inst = SWInstance(*orders, _permutation_word(rng, orders))
        gens = sw_elements(inst, rings)
        full = "whole-ring" if is_whole_ring(gens, rings.A) else "proper"
        assert rings.properness(gens) == full == "proper"


def test_properness_falls_back_to_the_full_basis():
    # mu2 = +-1/sqrt(2) are roots for order 4, but no rational point of
    # E'(2,4,5) has 2*mu2^2 = 1: every point gives the unit ideal
    rings = sw_build(2, 4, 5)
    gens = [2 * V("mu2") ** 2 - 1]
    assert len(rings.points()) == 4
    assert all(is_whole_ring(gens + forms, rings.A) for forms in rings.points())
    assert rings.properness(gens) == "proper"


def test_properness_whole_ring():
    assert sw_build(2, 4, 5).properness([V("mu1") - 5]) == "whole-ring"
    assert sw_build(3, 5, 7).properness([V("s2") ** 2 - 1]) == "whole-ring"


def test_properness_without_rational_points():
    rings = sw_build(5, 5, 7)
    assert rings.points() == []
    # order 5 has no root 0, but mu1 = mu2 on the factors where they agree
    assert rings.properness([V("mu1") - V("mu2")]) == "proper"
    assert rings.properness([V("mu1") * V("mu2")]) == "whole-ring"


def test_properness_past_deadline_is_a_timeout():
    rings = sw_build(2, 3, 5)
    past = time.monotonic() - 1
    assert rings.properness([V("mu1") * V("x")], deadline=past) == "timeout"
    rep = sw_verify(
        SWInstance(2, 3, 5, W3("g1*g2*g3")), check_properness=True, deadline=past
    )
    assert rep.properness == "timeout"


def _rational_roots(n):
    """Rational roots of the degree-n member, by the rational root theorem:
    its leading coefficient is 2^(n-1) and its roots lie in (-1, 1)."""
    xv = REGISTRY.var("x")
    p = chebyshev_like(n)
    coeffs = [p.coefficient_in(xv, k).constant_term() for k in range(n)]
    den = 2 ** (n - 1)
    roots = []
    for num in range(1 - den, den):
        c = Fraction(num, den)
        val = 0
        for a in reversed(coeffs):
            val = val * c + a
        if val == 0:
            roots.append(c)
    return roots


def _rational_sqrt(q):
    root = Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))
    return root if root * root == q else None


@pytest.mark.parametrize("n", range(2, 13))
def test_rational_points_follow_niven(n):
    mu, s = V("mu1"), V("s1")
    expected = set()
    for c in _rational_roots(n):
        root = _rational_sqrt(1 - c * c)
        if root is None:
            expected.add(frozenset([mu - c]))
        else:
            expected |= {frozenset([mu - c, s - root]), frozenset([mu - c, s + root])}
    points = rational_points(1, n)
    assert {frozenset(p) for p in points} == expected
    assert len(points) == len(expected)
    eprime = sw_build(n, 2, 2).eprime
    for forms in points:
        assert not is_whole_ring(forms, eprime)


def test_sw_static_checks_all_pass():
    rep = sw_static_checks()
    assert rep.ok, [c for c in rep.checks if not c["ok"]]
    names = {c["name"] for c in rep.checks}
    assert "annihilator-times-kernel-11" in names
    assert "specialization-well-defined" in names


def test_static_identity_displays():
    x, y, u = V("x"), V("y"), V("u")
    lhs = 1 - (u + x * y) ** 2
    rhs = (1 - x * x) + x * x * (1 - y * y) - (u + 2 * x * y) * u
    assert lhs == rhs
    assert x * (u + x * y) - y == x * u - y * (1 - x * x)
    assert x - y * (u + x * y) == x * (1 - y * y) - y * u


def test_theta_of_kernel_generators_matches_quadric_forms():
    # the seven kernel generators specialize, up to invertible scale, to
    # u, v, 1-x^2, 1-y^2, 1-(u+xy)^2, x(u+xy)-y, x-y(u+xy)
    from gring.ideals import abelianization_kernel_generators

    rings = sw_build(2, 3, 5)
    x, y, u, v = V("x"), V("y"), V("u"), V("v")
    uxy = u + x * y
    targets = [
        u,
        v,
        1 - x * x,
        1 - y * y,
        1 - uxy * uxy,
        x * uxy - y,
        x - y * uxy,
    ]
    target_gb = rings.A.ideal_gb(targets)
    spec = abelianization_kernel_generators(3)
    images = [rings.theta(g) for g in spec.generators]
    for img in images:
        assert target_gb.contains(img)
    image_gb = rings.A.ideal_gb(images)
    for tpoly in targets:
        assert image_gb.contains(tpoly)


def test_sw_report_serialization():
    rep = sw_verify(SWInstance(2, 3, 5, W3("g1*g2*g3")))
    d = rep.to_dict()
    assert d["kind"] == "sw-verify"
    assert d["ok"] is True
    assert "properness" in d


# -- conjecture probe -------------------------------------------------------


def test_probe_trivial_ideal_is_proper():
    # the quadric ring modulo <xy> is clearly not the whole ring
    vids = tuple(REGISTRY.var(n) for n in ("x", "y", "u", "v"))
    x, y, u, v = (V(n) for n in ("x", "y", "u", "v"))
    A4 = QuotientRing(
        vids,
        [(1 - x * x) * (1 - y * y) - (u * u + v * v)],
        order=degrevlex(vids),
    )
    assert not A4.ideal_gb([x * y]).is_unit_ideal()
    # first matrix entry: <u, xy> is proper too
    assert not A4.ideal_gb([u, x * y]).is_unit_ideal()


def test_probe_rejects_zero_leading_coefficient():
    with pytest.raises(InvalidInstance):
        conjecture_probe(Fraction(0), Fraction(0), Fraction(0), Fraction(0))


def test_probe_seeded_run_finds_no_counterexample():
    # a longer evidence run (e.g. 50 trials) is a CLI affair; keep the
    # suite's seeded sample small
    rep = conjecture_probe(
        Fraction(0), Fraction(0), Fraction(0), Fraction(1),
        seed=5, trials=5, max_coeff=1,
    )
    assert rep.instance["whole_ring_hits"] == 0
    assert rep.ok
