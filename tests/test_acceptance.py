"""Acceptance battery: one test per criterion, one printed line each.

Every comparison is exact (rational arithmetic, zero tolerance).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
import time

import pytest

from gring.agmod import bar, embed_word
from gring.casestudies import (
    BoyerInstance,
    SWInstance,
    boyer_certificate,
    normalize_unit_exponents,
    sw_static_checks,
    sw_verify,
)
from gring.ideals import (
    Verdict,
    bullet_generators,
    hash_generators,
    hashhash_generators,
    normally_generates_check,
    quotient_ring_of_presentation,
)
from gring.identities import run_identity_suite
from gring.oracle import fuzz_bar
from gring.poly import REGISTRY, Poly, chebyshev_like
from gring.ring import build_KF, ideal_equal
from gring.words import Word, parse_presentation, parse_word


def _report(num, desc, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {status} - {desc}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def _random_word(rng, n, max_len):
    return Word.from_syllables(
        (rng.randint(1, n), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))
    )


def _random_unit_sum_word(rng, moduli, base_len, max_len):
    """Random word whose exponent sums are 1 mod the factor orders."""
    while True:
        w = _random_word(rng, len(moduli), base_len)
        for i, mod in enumerate(moduli, start=1):
            need = (1 - w.exponent_sum(i)) % mod
            if need:
                w = w * Word.generator(i, need)
        if 0 < w.length() <= max_len:
            return w


def test_criterion_1_identity_suite():
    t0 = time.time()
    results = run_identity_suite(seed=20260808, n=3, pool_size=200, max_len=6)
    elapsed = time.time() - t0
    bad = [r.name for r in results if not r.ok]
    _report(
        1,
        "module-arithmetic identity suite on 200 seeded random elements",
        not bad,
        f"{len(results)} identities, {elapsed:.1f}s",
    )


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    rep = fuzz_bar(trials=500, max_word_length=12, n=3, seed=20260808)
    elapsed = time.time() - t0
    _report(
        2,
        "quaternion scalar parts match symbolic scalar parts on 500 words",
        rep.ok,
        f"{elapsed:.1f}s",
    )


@pytest.mark.parametrize("s,t", [(2, 3), (3, 4), (5, 7)])
def test_criterion_3_two_cyclic_factor_rings(s, t):
    ring = build_KF(2)
    g1, g2 = Word.generator(1), Word.generator(2)
    e = Word.identity()

    def via_family(b, h, n):
        # scalar part of b * h^n through the recurrence family
        xv = REGISTRY.var("x")
        barh = bar(embed_word(ring, h))
        pn = chebyshev_like(n).substitute({xv: barh})
        pn1 = chebyshev_like(n - 1).substitute({xv: barh})
        return ring.nf(
            bar(embed_word(ring, b * h)) * pn
            - bar(embed_word(ring, b)) * pn1
        )

    # the eight kernel generators of <g1,g2 | g1^s, g2^t>: bar(b l)-bar(b)
    # for l = g1^s over the family {1, g1, g2, g2 g1} and l = g2^t over
    # {1, g2, g1, g1 g2}
    families = [
        (g1, s, (e, g1, g2, g2 * g1)),
        (g2, t, (e, g2, g1, g1 * g2)),
    ]
    ok = True
    gens = []
    for h, n, bs in families:
        for b in bs:
            direct = ring.nf(
                bar(embed_word(ring, b * (h ** n))) - bar(embed_word(ring, b))
            )
            family = ring.nf(via_family(b, h, n) - bar(embed_word(ring, b)))
            ok = ok and direct == family
            gens.append(direct)
    assert len(gens) == 8

    # and they generate the relator ideal used by the presentation ring
    qr = quotient_ring_of_presentation(
        parse_presentation(f"<g1,g2|g1^{s},g2^{t}>")
    )
    same = ideal_equal(gens, list(qr.gb.polys), ring)
    _report(
        3,
        f"eight presentation-ideal generators for (s,t)=({s},{t}) match "
        "their recurrence-family expansion and present the quotient ring",
        ok and same,
    )


def test_criterion_4_proper_power_certificates():
    t0 = time.time()
    rng = random.Random(20260808)
    combos = [(s, t, r) for s in (2, 3) for t in (3, 4) for r in (2, 3)]
    checked = 0
    for s, t, r in combos:
        for _ in range(10):
            w = _random_unit_sum_word(rng, (s, t), base_len=5, max_len=8)
            inst = BoyerInstance(s, t, r, w)
            cert = boyer_certificate(inst)
            assert cert.certified, (s, t, r, w.render(), cert.failure)
            assert cert.degree >= r - 1
            verdict = normally_generates_check(
                parse_presentation(f"<g1,g2|g1^{s},g2^{t}>"), [w ** r]
            )
            assert verdict is Verdict.CERTIFIED_NO, (s, t, r, w.render())
            checked += 1
    elapsed = time.time() - t0
    _report(
        4,
        "proper-power certificates and ideal cross-checks over "
        "{2,3}x{3,4}x{2,3} with 10 seeded words each",
        checked == 80,
        f"{checked} instances, {elapsed:.1f}s",
    )


def test_criterion_5_three_generator_structure():
    t0 = time.time()
    static = sw_static_checks()
    ok = static.ok
    rng = random.Random(20260808)
    for _ in range(20):
        w = _random_unit_sum_word(rng, (2, 3, 5), base_len=5, max_len=8)
        rep = sw_verify(SWInstance(2, 3, 5, w))
        ok = ok and rep.ok
        assert rep.ok, (w.render(), rep.to_dict())
    elapsed = time.time() - t0
    _report(
        5,
        "static identities plus annihilator/kernel-membership checks on "
        "20 seeded words for (2,3,5)",
        ok,
        f"{elapsed:.1f}s",
    )


def test_criterion_6_properness():
    t0 = time.time()
    words = ["g1*g2*g3", "g1*g2^-2*g3", "g3^-4*g1*g2*g3^5*g2^3"]
    outcomes = []
    for text in words:
        w = parse_word(text, ["g1", "g2", "g3"])
        rep = sw_verify(
            SWInstance(2, 3, 5, w),
            check_properness=True,
            deadline=time.monotonic() + 900,
        )
        outcomes.append((text, rep.properness))
    elapsed = time.time() - t0
    ok = all(p in ("proper", "timeout") for _, p in outcomes)
    certified = sum(1 for _, p in outcomes if p == "proper")
    _report(
        6,
        "the five-element ideal is proper for specific words at (2,3,5)",
        ok and certified >= 1,
        f"{outcomes}, {elapsed:.1f}s",
    )


def test_criterion_7_recurrence_family():
    x = Poly.variable("x")
    ok = True
    for n in range(-50, 51):
        lhs = 2 * x * chebyshev_like(n)
        ok = ok and lhs == chebyshev_like(n - 1) + chebyshev_like(n + 1)
    for n in range(1, 51):
        p = chebyshev_like(n)
        ok = ok and p.degree_in("x") == n - 1
        ok = ok and p.substitute({"x": 1}) == n
        ok = ok and p.substitute({"x": -1}) == Poly.const((-1) ** (n + 1) * n)
        ok = ok and chebyshev_like(-n) == -p
    _report(7, "recurrence family: degree, endpoint values, odd symmetry", ok)


def test_criterion_8_ideal_calculus():
    t0 = time.time()
    rng = random.Random(20260808)
    checked = 0
    for _ in range(50):
        n = rng.choice((2, 3))
        ring = build_KF(n)
        l = _random_word(rng, n, 5)
        while l.is_identity():
            l = _random_word(rng, n, 5)
        h = _random_word(rng, n, 3)
        conj = h * l * h.inverse()
        base = hashhash_generators([l], n).generators
        assert ideal_equal(
            base, hashhash_generators([conj], n).generators, ring
        ), (n, l.render(), h.render())
        assert ideal_equal(
            base, hashhash_generators([l.inverse()], n).generators, ring
        ), (n, l.render())
        full = hash_generators([l], n).generators
        split = base + bullet_generators([l], n).generators
        assert ideal_equal(full, split, ring), (n, l.render())
        checked += 1
    elapsed = time.time() - t0
    _report(
        8,
        "conjugation/inversion invariance and hash = hashhash + bullet "
        "on 50 seeded single-relator instances",
        checked == 50,
        f"{elapsed:.1f}s",
    )


def test_criterion_9_cyclic_dimensions():
    ok = True
    for n in range(2, 9):
        qr = quotient_ring_of_presentation(
            parse_presentation(f"<g1|g1^{n}>")
        )
        staircase = qr.vdim()
        orbits = len({frozenset({k % n, (-k) % n}) for k in range(n)})
        ok = ok and staircase == orbits == n // 2 + 1
    _report(
        9,
        "cyclic-group ring dimension equals the inversion-orbit count",
        ok,
    )
