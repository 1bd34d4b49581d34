import itertools
import time

import pytest

from gring import ring as ring_module
from gring.casestudies import build_E
from gring.errors import ForeignVariable, GroebnerTimeout, NotAUnit
from gring.groebner import buchberger
from gring.poly import REGISTRY, Poly, degrevlex
from gring.ring import (
    QuotientRing,
    build_KF,
    ideal_contains,
    ideal_equal,
    invert,
    is_whole_ring,
)


def test_canonical_m_swaps_indices():
    ring = build_KF(3)
    assert ring.m(2, 1) == ring.m(1, 2)
    assert ring.m(1, 3).render() == "m13"


def test_canonical_m_diagonal_rewrites():
    ring = build_KF(3)
    lam1 = ring.lam(1)
    assert ring.m(1, 1) == 1 - lam1 * lam1


def test_canonical_w_signs():
    ring = build_KF(3)
    w123 = Poly.variable("w123")
    assert ring.w(1, 2, 3) == w123 and ring.w(1, 2, 3).render() == "w123"
    assert ring.w(3, 2, 1) == -w123
    assert ring.w(1, 1, 2).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symbol_tables_match_their_definitions(n):
    ring = build_KF(n)
    idx = range(1, n + 1)
    for i, j in itertools.product(idx, repeat=2):
        lo, hi = min(i, j), max(i, j)
        want = 1 - ring.lam(i) ** 2 if i == j else Poly.variable(f"m{lo}{hi}")
        assert ring.m(i, j) == want
    for t in itertools.product(idx, repeat=3):
        if len(set(t)) < 3:
            assert ring.w(*t).is_zero()
            continue
        p = Poly.variable("w" + "".join(map(str, sorted(t))))
        perm = sorted(range(3), key=t.__getitem__)
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        assert ring.w(*t) == (-1) ** inversions * p
    for bad in (0, n + 1):
        with pytest.raises(ForeignVariable):
            ring.m(bad, 1)
        with pytest.raises(ForeignVariable):
            ring.m(1, bad)
        with pytest.raises(ForeignVariable):
            ring.w(1, 1, bad)
        with pytest.raises(ForeignVariable):
            ring.w(bad, 1, 1)


def test_split_w_without_triple_symbols():
    ring = build_KF(2)
    p = ring.nf(ring.lam(1) * ring.m(1, 2) + 2)
    plain, cof = ring.split_w(p)
    assert plain is p and cof == {}


def test_build_KF_small_ranks():
    assert build_KF(1).gb.polys == ()
    assert build_KF(1).var_names() == ["lam1"]
    r2 = build_KF(2)
    assert r2.gb.polys == ()
    assert r2.var_names() == ["lam1", "lam2", "m12"]
    r3 = build_KF(3)
    assert len(r3.gb.polys) == 1


def test_build_KF_rejects_bad_rank():
    with pytest.raises(ValueError):
        build_KF(0)


def test_rank3_relation_is_the_determinant():
    ring = build_KF(3)
    lam = {i: ring.lam(i) for i in (1, 2, 3)}
    m12, m13, m23 = ring.m(1, 2), ring.m(1, 3), ring.m(2, 3)
    det = (
        (1 - lam[1] ** 2)
        * ((1 - lam[2] ** 2) * (1 - lam[3] ** 2) - m23 ** 2)
        - m12 * (m12 * (1 - lam[3] ** 2) - m23 * m13)
        + m13 * (m12 * m23 - (1 - lam[2] ** 2) * m13)
    )
    w123 = ring.w(1, 2, 3)
    assert ring.nf(w123 * w123) == det


@pytest.mark.parametrize("n", [3, 4])
def test_raw_r3_instances_reduce_to_zero(n):
    ring = build_KF(n)
    for tup in itertools.product(range(1, n + 1), repeat=5):
        assert ring.nf(ring._raw_r3(*tup)).is_zero(), tup


@pytest.mark.parametrize("n", [3, 4])
def test_raw_r4_instances_reduce_to_zero(n):
    ring = build_KF(n)
    for tup in itertools.product(range(1, n + 1), repeat=6):
        p = ring._raw_r4(tup[:3], tup[3:])
        assert ring.nf(p).is_zero(), tup


def test_normal_form_of_w_square_in_rank4():
    ring = build_KF(4)
    for t in itertools.combinations(range(1, 5), 3):
        p = ring.w(*t) * ring.w(*t)
        nf = ring.nf(p)
        assert all(
            vid not in ring._w.values() for mono, _ in nf.terms() for vid, _ in mono
        )


def test_is_whole_ring():
    ring = build_KF(2)
    one = Poly.one()
    assert is_whole_ring([one], ring)
    assert not is_whole_ring([], ring)
    x = Poly.variable("x")
    xv = REGISTRY.lookup("x")
    plain = QuotientRing((xv,), [], order=degrevlex([xv]))
    assert is_whole_ring([x - 1, x + 1], plain)
    assert not is_whole_ring([x], plain)


def test_ideal_equal_via_mutual_containment():
    ring = build_KF(2)
    lam1, lam2 = ring.lam(1), ring.lam(2)
    a = [lam1 + lam2, lam1 - lam2]
    b = [lam1, lam2]
    from gring.ring import ideal_contains, ideal_equal as req

    assert req(a, a, ring)  # reflexive
    assert req(a, b, ring) == req(b, a, ring)  # symmetric
    both = all(ideal_contains(a, p, ring) for p in b) and all(
        ideal_contains(b, p, ring) for p in a
    )
    assert both == req(a, b, ring)


def test_ideal_equal_same_generators_builds_no_basis(monkeypatch):
    ring = build_KF(2)
    gens = [ring.lam(1) + ring.lam(2), ring.m(1, 2)]
    calls = []
    monkeypatch.setattr(
        ring_module, "buchberger", lambda *a, **k: calls.append(a)
    )
    assert ideal_equal(gens, tuple(gens), ring)
    assert calls == []


def test_quadric_kernel_ideal_membership():
    # 1-(u+xy)^2 decomposes over u, v, 1-x^2, 1-y^2
    x = Poly.variable("x")
    y = Poly.variable("y")
    u = Poly.variable("u")
    v = Poly.variable("v")
    vids = tuple(REGISTRY.lookup(n) for n in ("x", "y", "u", "v"))
    quadric = (1 - x * x) * (1 - y * y) - (u * u + v * v)
    A4 = QuotientRing(vids, [quadric], order=degrevlex(vids))
    from gring.ring import ideal_contains

    jgens = [u, v, 1 - x * x, 1 - y * y]
    assert ideal_contains(jgens, 1 - (u + x * y) ** 2, A4)
    assert not ideal_contains(jgens, x, A4)


def test_invert_constant():
    from fractions import Fraction

    ring = build_KF(2)
    inv = invert(Poly.const(2), ring)
    assert inv == Poly.const(Fraction(1, 2))


def test_invert_non_unit_raises():
    x = Poly.variable("x")
    xv = REGISTRY.lookup("x")
    plain = QuotientRing((xv,), [], order=degrevlex([xv]))
    with pytest.raises(NotAUnit):
        invert(x, plain)


def test_invert_algebraic_unit():
    # in Q[t]/(t^2 - 2), t is a unit with inverse t/2
    t = Poly.variable("t")
    tv = REGISTRY.lookup("t")
    ring = QuotientRing((tv,), [t * t - 2], order=degrevlex([tv]))
    inv = invert(t, ring)
    assert ring.nf(t * inv - 1).is_zero()


def test_invert_honours_deadline():
    # without a deadline this inversion in E(5,7) runs for minutes
    from gring.casestudies import build_E
    from gring.poly import parse_poly

    E = build_E(5, 7)
    elem = E.nf(
        parse_poly("-mu2*s1^2*s2^2 + 2*mu1*s1^2*s2^2 - s1^3 + 3*s2 + s1")
    )
    t0 = time.monotonic()
    with pytest.raises(GroebnerTimeout):
        invert(elem, E, deadline=time.monotonic() + 1)
    assert time.monotonic() - t0 < 10


def test_ideal_queries_honour_deadline():
    ring = build_KF(2)
    lam1, lam2 = ring.lam(1), ring.lam(2)
    late = time.monotonic() - 1
    with pytest.raises(GroebnerTimeout):
        ideal_equal([lam1], [lam2], ring, deadline=late)
    with pytest.raises(GroebnerTimeout):
        ideal_contains([lam1], lam2, ring, deadline=late)
    # equal generator lists need no basis, so the answer still comes
    assert ideal_equal([lam1], [lam1], ring, deadline=late)
    assert not ideal_contains([lam1], lam2, ring)


def test_vdim():
    x = Poly.variable("x")
    y = Poly.variable("y")
    xv, yv = REGISTRY.lookup("x"), REGISTRY.lookup("y")
    ring = QuotientRing((xv, yv), [x ** 3, y ** 2], order=degrevlex([xv, yv]))
    assert ring.vdim() == 6
    free = QuotientRing((xv,), [], order=degrevlex([xv]))
    assert free.vdim() is None
    unit = QuotientRing((xv,), [Poly.one()], order=degrevlex([xv]))
    assert unit.vdim() == 0


def test_split_w():
    ring = build_KF(3)
    w123 = ring.w(1, 2, 3)
    lam1 = ring.lam(1)
    p = ring.nf(lam1 * w123 + 3 * lam1 * lam1)
    plain, cof = ring.split_w(p)
    assert plain == 3 * lam1 * lam1
    assert list(cof) == [(1, 2, 3)]
    assert cof[(1, 2, 3)] == lam1


@pytest.mark.parametrize("label", ["KF2", "KF3", "E(3,4)"])
def test_foreign_variable_is_named(label):
    R = {
        "KF2": lambda: build_KF(2),
        "KF3": lambda: build_KF(3),
        "E(3,4)": lambda: build_E(3, 4),
    }[label]()
    p = Poly.variable("zz") + Poly.variable(REGISTRY.name(R.vids[0]))
    with pytest.raises(ForeignVariable, match="'zz'"):
        R.nf(p)
    if R.gb.polys:
        with pytest.raises(ForeignVariable, match="'zz'"):
            R.gb.normal_form(p)
    with pytest.raises(ForeignVariable, match="'zz'"):
        buchberger([p], R.order)
    if not R.gb.polys:
        # checking the variables packs nothing: no degree is too big
        big = Poly.variable(REGISTRY.name(R.vids[-1])) ** 300
        assert R.nf(big) == big
