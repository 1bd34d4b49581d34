import time

import pytest

from gring import kernel, ring
from gring.casestudies import SWInstance, SWRings, build_E, sw_elements
from gring.errors import GroebnerTimeout
from gring.groebner import STATS, buchberger
from gring.ideals import hashhash_generators
from gring.poly import REGISTRY, Poly, degrevlex, parse_poly
from gring.words import Word

x = Poly.variable("x")
y = Poly.variable("y")
z = Poly.variable("z")


def _order(*names):
    return degrevlex([REGISTRY.lookup(n) for n in names])


def test_hand_case_univariate():
    # spoly(x^2-1, x-1) = x-1; x^2-1 then reduces to zero
    gb = buchberger([x * x - 1, x - 1], _order("x"))
    assert list(gb) == [x - 1]


def test_zero_ideal():
    gb = buchberger([], _order("x"))
    assert len(gb) == 0
    p = x * y + 1
    assert gb.normal_form(p) == p


def test_unit_ideal_monic_normalization():
    gb = buchberger([Poly.const(2)], _order("x"))
    assert list(gb) == [Poly.one()]
    assert gb.is_unit_ideal()


def test_unit_from_coprime_constants():
    # x-1 and x+1 differ by the unit 2
    gb = buchberger([x - 1, x + 1], _order("x"))
    assert gb.is_unit_ideal()


def test_normal_form_examples():
    gb = buchberger([x - 1], _order("x"))
    assert gb.normal_form(x * x) == Poly.one()
    assert gb.contains(x * x - 1)


def test_normal_form_idempotent():
    order = _order("x", "y", "z")
    gb = buchberger([x * x - y, y * y - z], order)
    for p in (x ** 5, (x + y + z) ** 3, x * y * z - 1):
        nf = gb.normal_form(p)
        assert gb.normal_form(nf) == nf


def test_reduced_basis_is_canonical():
    order = _order("x", "y")
    a = buchberger([x * x - y, x * y - 1], order)
    b = buchberger([x * y - 1, x * x - y, (x * x - y) * 3], order)
    assert a.polys == b.polys
    for p in a:
        _, lc = order.leading(p)
        assert lc == 1


def test_cyclic_like_system():
    order = _order("x", "y", "z")
    gb = buchberger([x + y + z, x * y + y * z + z * x, x * y * z - 1], order)
    # the product relation forces z^3 = 1 on the staircase
    assert any(p == z ** 3 - 1 for p in gb)


def test_ideal_equal():
    # reduced bases are canonical, so equal ideals have equal bases
    order = _order("x", "y")

    def basis(gens):
        return buchberger(gens, order).polys

    assert basis([x, y]) == basis([y, x + y])
    assert basis([x * x]) != basis([x])
    assert basis([2 * x]) == basis([x])


def test_ideal_membership_via_normal_form():
    order = _order("x", "y")
    gb = buchberger([x], order)
    assert gb.contains(x * y)
    assert not gb.contains(y)


def test_cofactor_mode_finds_unit():
    order = _order("x")
    gens = [x * x + 1, x]  # contains 1 = (x^2+1) - x*x
    gb = buchberger(gens, order, cofactor=True)
    assert list(gb) == [Poly.one()]
    c = gb.cofactor
    assert buchberger(gens[:-1], order).contains(1 - c * x)


def test_cofactor_mode_scales_the_constant():
    # 3xy = 3 modulo xy - 1, so the cofactor of 3xy is 1/3 there
    order = _order("x", "y")
    last = 3 * x * y
    gb = buchberger([x * y - 1, last], order, cofactor=True)
    assert gb.is_unit_ideal()
    assert buchberger([x * y - 1], order).contains(1 - gb.cofactor * last)


def test_cofactor_mode_unit_found_by_an_s_pair():
    # no generator reduces to a constant; 1 appears only from S-pairs
    order = _order("x", "y")
    gens = [x * y - 1, x * x - y, y * y * y - x - 1]
    assert buchberger(gens, order).is_unit_ideal()
    gb = buchberger(gens, order, cofactor=True)
    assert list(gb) == [Poly.one()]
    others = buchberger(gens[:-1], order)
    assert others.contains(1 - gb.cofactor * gens[-1])


def test_cofactor_mode_without_unit_returns_the_reduced_basis():
    order = _order("x", "y")
    gens = [x * x - 1, x * y - 1]
    gb = buchberger(gens, order, cofactor=True)
    assert gb.cofactor is None
    assert gb.polys == buchberger(gens, order).polys
    assert buchberger(gens, order).cofactor is None


def test_stats_count_the_run(monkeypatch):
    calls = [0]
    real = kernel.reduce_nd

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(kernel, "reduce_nd", counting)
    gens = [x * x * y - z, x * y * y - x, y * z * z - 1, x * z - y]
    gb = buchberger(gens, _order("x", "y", "z"))
    st = gb.stats
    assert set(st) == set(STATS)
    # S-pair and generator reductions, then the finish, all through the
    # kernel; one pair per element and each earlier element
    assert st["reduced"] + st["finish_reductions"] == calls[0]
    assert st["finish_reductions"] == max(len(gb) - 1, 0)
    n = st["elements_added"]
    assert n >= len(gb) and st["pairs"] == n * (n - 1) // 2
    assert 0 < st["reduced_to_zero"] < st["reduced"]
    assert st["product_skipped"] + st["chain_skipped"] <= st["pairs"]
    # deterministic: the same input gives the same counts
    assert buchberger(gens, _order("x", "y", "z")).stats == st


def test_timeout_carries_stats():
    # without a deadline this inversion basis in E(5,7) runs for minutes
    E = build_E(5, 7)
    elem = E.nf(
        parse_poly("-mu2*s1^2*s2^2 + 2*mu1*s1^2*s2^2 - s1^3 + 3*s2 + s1")
    )
    with pytest.raises(GroebnerTimeout) as exc:
        buchberger(
            list(E.gb.polys) + [elem], E.order, deadline=time.monotonic() + 0.5
        )
    assert set(exc.value.stats) == set(STATS)
    assert exc.value.stats["reduced"] > 0


def _stub_clock(monkeypatch, on_time):
    """Replace ``time.monotonic`` with a clock that reads 0 on its first
    ``on_time`` reads and 100 afterwards; returns the list of reads."""
    reads = []

    def clock():
        reads.append(None)
        return 0.0 if len(reads) <= on_time else 100.0

    monkeypatch.setattr(time, "monotonic", clock)
    return reads


def _many_steps(k):
    """(x + z + 1)^k * y: reducing it by y - 1 takes one step per term."""
    return (x + z + 1) ** k * y


def test_reduce_nd_reads_the_clock_every_clock_steps(monkeypatch):
    order = _order("x", "y", "z")
    (reducer,) = buchberger([y - 1], order)._reducers(order.packing)

    def run(p, deadline):
        d, _ = order.pack_nd(p._t)
        return kernel.reduce_nd(d, [reducer], order.packing.guard, None, deadline)

    few, many = _many_steps(8), _many_steps(20)
    assert len(few._t) < kernel.CLOCK_STEPS < len(many._t)
    reads = _stub_clock(monkeypatch, 0)
    assert run(few, 1.0) and run(many, None)
    assert reads == []
    with pytest.raises(GroebnerTimeout):
        run(many, 1.0)
    assert len(reads) == 1


def test_deadline_stops_one_long_reduction(monkeypatch):
    # the engine reads the clock before each of the two generators, on
    # time; the reduction of the second then passes the deadline inside
    # one kernel call, and the timeout still carries the run's counters
    reads = _stub_clock(monkeypatch, 2)
    with pytest.raises(GroebnerTimeout) as exc:
        buchberger([y - 1, _many_steps(20)], _order("x", "y", "z"), deadline=1.0)
    assert len(reads) == 3
    assert exc.value.stats["reduced"] == 1
    assert exc.value.stats["elements_added"] == 1


def _properness_basis():
    rings = SWRings(2, 3, 5)
    word = Word.from_syllables([(1, 1), (2, 1), (3, 1)])
    return rings.A.ideal_gb(sw_elements(SWInstance(2, 3, 5, word), rings))


def _conjugate_basis():
    h = Word.from_syllables([(1, 1)])
    l = Word.from_syllables([(2, 1), (3, -1)])
    conj = h * l * h.inverse()
    return ring.build_KF(3).ideal_gb(hashhash_generators([conj], 3).generators)


def _long_conjugate_basis():
    # a conjugate whose basis adds 505 elements; without the excess guard
    # on virtual pairs the run passes 900 elements and takes minutes, so a
    # deadline bounds the test
    h = Word.from_syllables([(2, -1), (3, -1)])
    l = Word.from_syllables([(3, -2), (2, -1), (1, 1)])
    conj = h * l * h.inverse()
    return ring.build_KF(3).ideal_gb(
        hashhash_generators([conj], 3).generators,
        deadline=time.monotonic() + 60,
    )


def _inversion_basis():
    E = build_E(3, 4)
    elem = E.nf(parse_poly("s1*s2 + mu1 - 2"))
    gb = buchberger(list(E.gb.polys) + [elem], E.order, cofactor=True)
    assert gb.cofactor is not None
    return gb


# (pairs, product_skipped, chain_skipped, reduced, reduced_to_zero,
# elements_added, finish_reductions), in the order of STATS
PINNED_STATS = {
    "properness C2*C3*C5 g1*g2*g3": (
        _properness_basis,
        (13530, 3922, 9073, 503, 339, 165, 32),
    ),
    "KF3 relations": (lambda: ring.KFRing(3).gb, (0, 0, 0, 0, 0, 1, 0)),
    "F3 conjugate g1*g2*g3^-1*g1^-1": (
        _conjugate_basis,
        (1176, 173, 905, 93, 45, 49, 9),
    ),
    "F3 conjugate g2^-1*g3^-3*g2^-1*g1*g3*g2": (
        _long_conjugate_basis,
        (127260, 3362, 122033, 1820, 1316, 505, 40),
    ),
    "E(3,4) inversion": (_inversion_basis, (91, 51, 9, 17, 3, 14, 0)),
}


@pytest.mark.parametrize("name", sorted(PINNED_STATS))
def test_stats_are_pinned(name):
    # every pair is formed, left virtual, skipped or reduced as by the
    # engine that recorded these counts
    make, want = PINNED_STATS[name]
    stats = make().stats
    assert tuple(stats[k] for k in STATS) == want
