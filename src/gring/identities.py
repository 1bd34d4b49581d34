"""Seeded self-test battery for the module-arithmetic identities.

Every check draws random elements built from random words and asserts an
exact identity (after canonicalization).  A failure carries the witness
words, and always indicates an engine bug: each identity is a theorem of
the underlying algebra.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

from .agmod import AElem, bar, bracket, dot, embed_word, power_bar, triple, vec
from .errors import InvalidInstance
from .poly import REGISTRY, Poly, chebyshev_like
from .ring import build_KF
from .words import Word, random_word


@dataclass
class IdentityResult:
    name: str
    samples: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self):
        return {**asdict(self), "ok": self.ok}


class _Ctx:
    def __init__(self, seed, n, pool_size, max_len):
        self.rng = random.Random(seed)
        self.ring = build_KF(n)
        self.words = [
            random_word(self.rng, n, max_len) for _ in range(pool_size)
        ]
        elems = [embed_word(self.ring, w) for w in self.words]
        self.lambdas = [e.vector_part() for e in elems]
        self.scalars = [e.bar() for e in elems]
        self.short_words = [w for w in self.words if w.length() <= 3]
        if not self.short_words:
            self.short_words = [Word.identity()]

    def pick_short_word(self):
        return self.rng.choice(self.short_words)

    def pick_scalar(self):
        return self.rng.choice(self.scalars)


def _run_check(ctx: _Ctx, name, pool, samples, count, fn) -> IdentityResult:
    """Check ``fn`` on ``samples`` draws of ``count`` arguments, each drawn
    from the context's ``pool`` ("words" or "lambdas")."""
    items = getattr(ctx, pool)
    res = IdentityResult(name, samples)
    for _ in range(samples):
        xs = [ctx.rng.choice(items) for _ in range(count)]
        if not fn(ctx, *xs):
            res.failures.append([x.render() for x in xs])
    return res


# -- word-level identities ----------------------------------------------


def _bar_commutes(ctx, wx, wy):
    ring = ctx.ring
    x, y = embed_word(ring, wx), embed_word(ring, wy)
    return bar(x * y) == bar(y * x)


def _bar_three_term(ctx, wx, wy, wz):
    ring = ctx.ring
    x, y, z = (embed_word(ring, w) for w in (wx, wy, wz))
    ystar = embed_word(ring, wy.inverse())
    lhs = ring.nf(2 * bar(y) * bar(x * z))
    rhs = ring.nf(bar(x * y * z) + bar(x * ystar * z))
    return lhs == rhs


def _bar_of_inverse(ctx, wx):
    ring = ctx.ring
    return bar(embed_word(ring, wx)) == bar(embed_word(ring, wx.inverse()))


def _embed_inverse_is_unit(ctx, wx):
    ring = ctx.ring
    prod = embed_word(ring, wx) * embed_word(ring, wx.inverse())
    return prod == AElem.one(ring)


def _bar_symmetrized_triple(ctx, wx, wy, wz):
    ring = ctx.ring
    x, y, z = (embed_word(ring, w) for w in (wx, wy, wz))
    lhs = bar(x * y * z) + bar(z * y * x)
    rhs = 2 * (
        bar(x * y) * bar(z)
        + bar(x * z) * bar(y)
        + bar(y * z) * bar(x)
        - 2 * bar(x) * bar(y) * bar(z)
    )
    return lhs == ring.nf(rhs)


def _power_reduction(ctx, wg, wk):
    # the repeated word is kept short: its n-th power is expanded letter
    # by letter on the direct side
    ring = ctx.ring
    wh = ctx.pick_short_word()
    n = ctx.rng.randint(-8, 8)
    direct = bar(embed_word(ring, wg * (wh ** n) * wk))
    return direct == power_bar(ring, wg, wh, wk, n)


def _power_difference(ctx, wg):
    ring = ctx.ring
    wh = ctx.pick_short_word()
    n = ctx.rng.randint(0, 8)
    xvid = REGISTRY.var("x")
    barh = bar(embed_word(ring, wh))
    pn = chebyshev_like(n).substitute({xvid: barh})
    lhs = bar(embed_word(ring, wg * (wh ** n))) - bar(
        embed_word(ring, wg * (wh ** (-n)))
    )
    rhs = (
        bar(embed_word(ring, wg * wh)) - bar(embed_word(ring, wg * wh.inverse()))
    ) * pn
    return ring.nf(lhs) == ring.nf(rhs)


def _commutator_bar(ctx, wa, wb):
    ring = ctx.ring
    comm = wa * wb * wa.inverse() * wb.inverse()
    a, b = embed_word(ring, wa), embed_word(ring, wb)
    ab = bar(a * b)
    lhs = bar(embed_word(ring, comm))
    rhs = ring.nf(
        2 * ab * ab - 4 * bar(a) * bar(b) * ab + 2 * bar(a) ** 2 + 2 * bar(b) ** 2 - 1
    )
    return lhs == rhs


def _mul_decomposition(ctx, wx, wy):
    ring = ctx.ring
    x, y = embed_word(ring, wx), embed_word(ring, wy)
    xv, yv = vec(x), vec(y)
    rhs = (
        AElem.from_scalar(ring, bar(x) * bar(y) - dot(xv, yv))
        + yv.scale(bar(x))
        + xv.scale(bar(y))
        + bracket(xv, yv)
    )
    return x * y == rhs


def _dot_via_bar(ctx, wx, wy):
    ring = ctx.ring
    x, y = embed_word(ring, wx), embed_word(ring, wy)
    return dot(vec(x), vec(y)) == ring.nf(bar(x) * bar(y) - bar(x * y))


def _associativity(ctx, wx, wy, wz):
    ring = ctx.ring
    x, y, z = (embed_word(ring, w) for w in (wx, wy, wz))
    return (x * y) * z == x * (y * z)


# -- identities on the anti-symmetric summand ----------------------------


def _dot_symmetric(ctx, x, y):
    return dot(x, y) == dot(y, x)


def _bracket_skew(ctx, x, y):
    return bracket(x, y) == -bracket(y, x) and bracket(x, x).is_zero()


def _bilinearity(ctx, x, y, z):
    p = ctx.pick_scalar()
    ok_dot = dot(x.scale(p) + y, z) == ctx.ring.nf(p * dot(x, z) + dot(y, z))
    ok_brk = bracket(x.scale(p) + y, z) == bracket(x, z).scale(p) + bracket(y, z)
    return ok_dot and ok_brk


def _jacobi(ctx, x, y, z):
    total = (
        bracket(bracket(x, y), z)
        + bracket(bracket(y, z), x)
        + bracket(bracket(z, x), y)
    )
    return total.is_zero()


def _triple_alternating(ctx, x, y, z):
    t = triple(x, y, z)
    return (
        triple(x, x, y).is_zero()
        and triple(x, y, x).is_zero()
        and triple(y, x, x).is_zero()
        and t == ctx.ring.nf(-triple(y, x, z))
    )


def _triple_bracket_expansion(ctx, x, y, z):
    return bracket(bracket(x, y), z) == y.scale(dot(x, z)) - x.scale(dot(y, z))


def _lambda_product_expansions(ctx, x, y, z, w):
    ring = ctx.ring
    ok1 = x * y == AElem.from_scalar(ring, -dot(x, y)) + bracket(x, y)
    bxy = bracket(x, y)
    ok2 = bxy * z == (
        AElem.from_scalar(ring, -dot(bxy, z))
        + y.scale(dot(x, z))
        - x.scale(dot(y, z))
    )
    ok3 = z * bxy == (
        AElem.from_scalar(ring, -dot(bxy, z))
        - y.scale(dot(x, z))
        + x.scale(dot(y, z))
    )
    bzw = bracket(z, w)
    ok4 = bxy * bzw == (
        AElem.from_scalar(
            ring, -(dot(x, z) * dot(y, w)) + dot(x, w) * dot(y, z)
        )
        + y.scale(dot(bracket(x, z), w))
        - x.scale(dot(bracket(y, z), w))
    )
    ok5 = bxy * bzw == (
        AElem.from_scalar(
            ring, -(dot(x, z) * dot(y, w)) + dot(x, w) * dot(y, z)
        )
        - w.scale(triple(x, y, z))
        + z.scale(triple(x, y, w))
    )
    return ok1 and ok2 and ok3 and ok4 and ok5


def _cyclic_triple(ctx, x, y, z):
    t = triple(x, y, z)
    return t == triple(y, z, x) and t == triple(z, x, y)


def _dot_of_brackets(ctx, x, y, z, w):
    lhs = dot(bracket(x, y), bracket(z, w))
    rhs = ctx.ring.nf(dot(x, z) * dot(y, w) - dot(x, w) * dot(y, z))
    return lhs == rhs


def _bracket_of_brackets(ctx, x, y, z, w):
    lhs = bracket(bracket(x, y), bracket(z, w))
    r1 = y.scale(dot(bracket(x, z), w)) - x.scale(dot(bracket(y, z), w))
    r2 = z.scale(triple(x, y, w)) - w.scale(triple(x, y, z))
    return lhs == r1 and lhs == r2


def _quadruple_expansion(ctx, x, y, z, w):
    lhs = w.scale(triple(x, y, z))
    rhs = (
        bracket(y, z).scale(dot(x, w))
        - bracket(x, z).scale(dot(y, w))
        + bracket(x, y).scale(dot(z, w))
    )
    return lhs == rhs


def _five_term_scalar(ctx, x, y, z, w, u):
    ring = ctx.ring
    total = (
        triple(y, z, w) * dot(x, u)
        - triple(x, z, w) * dot(y, u)
        + triple(x, y, w) * dot(z, u)
        - triple(x, y, z) * dot(w, u)
    )
    return ring.nf(total).is_zero()


def _det3(ms):
    return (
        ms[0][0] * (ms[1][1] * ms[2][2] - ms[1][2] * ms[2][1])
        - ms[0][1] * (ms[1][0] * ms[2][2] - ms[1][2] * ms[2][0])
        + ms[0][2] * (ms[1][0] * ms[2][1] - ms[1][1] * ms[2][0])
    )


def _triple_product_determinant(ctx, x, y, z, u, v, w):
    ring = ctx.ring
    lhs = triple(x, y, z) * triple(u, v, w)
    g = [[dot(a, b) for b in (u, v, w)] for a in (x, y, z)]
    return ring.nf(lhs) == ring.nf(_det3(g))


def _gram_rank_bound(ctx, x, y, z, w, u, v, s, t):
    ring = ctx.ring
    rows = (x, y, z, w)
    cols = (u, v, s, t)
    g = [[dot(a, b) for b in cols] for a in rows]
    det = Poly.zero()
    import itertools

    for perm in itertools.permutations(range(4)):
        sign = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if perm[i] > perm[j]:
                    sign = -sign
        term = g[0][perm[0]] * g[1][perm[1]] * g[2][perm[2]] * g[3][perm[3]]
        det = det + (term if sign > 0 else -term)
    return ring.nf(det).is_zero()


def _unit_element(ctx, wx):
    ring = ctx.ring
    x = embed_word(ring, wx)
    one = AElem.one(ring)
    return x * one == x and one * x == x


# name, pool, samples, arguments per sample, identity
SUITE = [
    ("bar-commutes", "words", 25, 2, _bar_commutes),
    ("bar-three-term", "words", 12, 3, _bar_three_term),
    ("bar-of-inverse", "words", 25, 1, _bar_of_inverse),
    ("embed-inverse", "words", 25, 1, _embed_inverse_is_unit),
    ("unit-element", "words", 25, 1, _unit_element),
    ("associativity", "words", 8, 3, _associativity),
    ("mul-decomposition", "words", 12, 2, _mul_decomposition),
    ("dot-via-bar", "words", 15, 2, _dot_via_bar),
    ("bar-symmetrized-triple", "words", 10, 3, _bar_symmetrized_triple),
    ("commutator-bar", "words", 10, 2, _commutator_bar),
    ("power-reduction", "words", 10, 2, _power_reduction),
    ("power-difference", "words", 8, 1, _power_difference),
    ("dot-symmetric", "lambdas", 15, 2, _dot_symmetric),
    ("bracket-skew", "lambdas", 15, 2, _bracket_skew),
    ("bilinearity", "lambdas", 10, 3, _bilinearity),
    ("jacobi", "lambdas", 10, 3, _jacobi),
    ("triple-alternating", "lambdas", 10, 3, _triple_alternating),
    ("triple-bracket-expansion", "lambdas", 10, 3, _triple_bracket_expansion),
    ("product-expansions", "lambdas", 6, 4, _lambda_product_expansions),
    ("cyclic-triple", "lambdas", 10, 3, _cyclic_triple),
    ("dot-of-brackets", "lambdas", 8, 4, _dot_of_brackets),
    ("bracket-of-brackets", "lambdas", 6, 4, _bracket_of_brackets),
    ("quadruple-expansion", "lambdas", 8, 4, _quadruple_expansion),
    ("five-term-scalar", "lambdas", 6, 5, _five_term_scalar),
    ("triple-product-determinant", "lambdas", 4, 6, _triple_product_determinant),
    ("gram-rank-bound", "lambdas", 3, 8, _gram_rank_bound),
]


def run_identity_suite(
    seed: int = 0, n: int = 3, pool_size: int = 200, max_len: int = 6
):
    """Run every identity check against a seeded random element pool.

    Raises InvalidInstance unless ``n`` and ``pool_size`` are positive and
    ``max_len`` is not negative.
    """
    if n < 1 or pool_size < 1 or max_len < 0:
        raise InvalidInstance(
            f"need n >= 1, pool_size >= 1 and max_len >= 0, got {n}, "
            f"{pool_size} and {max_len}"
        )
    ctx = _Ctx(seed, n, pool_size, max_len)
    return [_run_check(ctx, *check) for check in SUITE]
