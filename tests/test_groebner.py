from gring.groebner import buchberger
from gring.poly import REGISTRY, Poly, degrevlex

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
