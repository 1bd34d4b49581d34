"""The four workloads: seeded inputs, the gring calls to time, and plain
records of their outputs for the independent checker.

Each workload yields rounds: fixed lists of operation shapes whose letters
are drawn from a ``random.Random`` seeded with the run's seed.  The shape
rules bound the cost of every operation (see README.md); the raw
criterion-8 and properness draws contain single operations of 10-100 s,
which would make a run measure one instance instead of the workload.
"""

from __future__ import annotations

# gring's functions are reached through their modules at call time, so
# the tracer's hooks (installed on the modules) see these calls.
from gring import agmod, casestudies, ideals, identities, ring
from gring.casestudies import BoyerInstance, SWInstance
from gring.words import Word, parse_presentation


class Op:
    """One timed gring call plus the function that turns its output into a
    plain record (run outside the timed region)."""

    __slots__ = ("call", "record")

    def __init__(self, call, record):
        self.call = call
        self.record = record


# -- seeded words --------------------------------------------------------------


def reduced_word(rng, n, length):
    """Freely reduced word of exactly ``length`` letters over n generators."""
    sylls = []
    while len(sylls) < length:
        g, e = rng.randint(1, n), rng.choice((1, -1))
        if sylls and sylls[-1] == (g, -e):
            continue
        sylls.append((g, e))
    return Word.from_syllables(sylls)


def all_reduced_words(n, length):
    """Every word ``reduced_word(rng, n, length)`` can return."""
    sylls = [[]]
    for _ in range(length):
        sylls = [
            w + [(g, e)]
            for w in sylls
            for g in range(1, n + 1)
            for e in (1, -1)
            if not (w and w[-1] == (g, -e))
        ]
    return [Word.from_syllables(w) for w in sylls]


class Deck:
    """Deals items in seeded random order without replacement, reshuffling
    when all have been dealt."""

    def __init__(self, rng, items):
        self.rng, self.items, self.order = rng, items, []

    def draw(self):
        if not self.order:
            self.order = list(self.items)
            self.rng.shuffle(self.order)
        return self.order.pop()


def unit_sum_word(rng, moduli, length):
    """A reduced word of ``length`` letters, then g_i^k appended so each
    exponent sum is 1 modulo the factor order (as in criterion 4)."""
    w = reduced_word(rng, len(moduli), length)
    for i, mod in enumerate(moduli, start=1):
        need = (1 - w.exponent_sum(i)) % mod
        if need:
            w = w * Word.generator(i, need)
    return w


def poly_terms(p):
    reg = p.registry
    return [
        [[[reg.name(v), e] for v, e in mono], str(c)] for mono, c in p.terms()
    ]


def elem_record(a):
    return {
        "scalar": poly_terms(a.scalar),
        "vec": {str(i): poly_terms(q) for i, q in a.vec.items()},
        "brk": {f"{i}{j}": poly_terms(q) for (i, j), q in a.brk.items()},
    }


# -- ideal_calculus --------------------------------------------------------------

# (s, t) factor orders for the normal-generation queries; all coprime, so
# g1*g2 normally generates C_s*C_t (the quotient by it is C_gcd(s,t)).
CYCLIC_PAIRS = ((2, 3), (2, 5), (3, 4), (3, 5))


def _criterion8(kind, n, l, h=None):
    kf = ring.build_KF(n)
    if kind == "conj":
        conj = h * l * h.inverse()

        def call():
            return ring.ideal_equal(
                ideals.hashhash_generators([l], n).generators,
                ideals.hashhash_generators([conj], n).generators,
                kf,
            )
    elif kind == "inv":

        def call():
            return ring.ideal_equal(
                ideals.hashhash_generators([l], n).generators,
                ideals.hashhash_generators([l.inverse()], n).generators,
                kf,
            )
    else:

        def call():
            return ring.ideal_equal(
                ideals.hash_generators([l], n).generators,
                ideals.hashhash_generators([l], n).generators
                + ideals.bullet_generators([l], n).generators,
                kf,
            )

    text = f"F{n} l={l.render()}" + (f" h={h.render()}" if h else "")
    return Op(call, lambda out: {"kind": kind, "input": text, "got": out})


def _normgen(kind, s, t, word):
    pres = parse_presentation(f"<g1,g2|g1^{s},g2^{t}>")
    text = f"C{s}*C{t} {word.render()}"
    return Op(
        lambda: ideals.normally_generates_check(pres, [word]),
        lambda out: {"kind": kind, "input": text, "got": out.value},
    )


def ideal_calculus_rounds(rng):
    # The F3 inverse comparison of a 3-letter word takes about half the
    # workload's time, and its cost varies 30-fold between words.  Drawn
    # independently each round, those words made the throughput of two
    # seeds differ by several percent; dealt from a seeded deck of all 150,
    # a run sees most of them once.
    deck = Deck(rng, all_reduced_words(3, 3))
    return lambda first=False: ideal_calculus_round(rng, deck)


def ideal_calculus_round(rng, deck):
    # An odd number of operations per round keeps the median on one
    # operation instead of halfway across a gap between two kinds.
    ops = []
    l2, h2 = reduced_word(rng, 2, 5), reduced_word(rng, 2, 1)
    for kind in ("conj", "inv", "split"):
        ops.append(_criterion8(kind, 2, l2, h2))
    l3, h3 = reduced_word(rng, 3, 2), reduced_word(rng, 3, 1)
    for kind in ("conj", "inv", "split"):
        ops.append(_criterion8(kind, 3, l3, h3))
    l3 = deck.draw()
    for kind in ("inv", "split"):
        ops.append(_criterion8(kind, 3, l3))
    for _ in range(2):
        s, t = rng.choice(CYCLIC_PAIRS)
        r = rng.choice((2, 3))
        ops.append(_normgen("power", s, t, unit_sum_word(rng, (s, t), 3) ** r))
    s, t = rng.choice(CYCLIC_PAIRS)
    h = reduced_word(rng, 2, rng.randint(1, 2))
    g1g2 = Word.generator(1) * Word.generator(2)
    ops.append(_normgen("normgen", s, t, h * g1g2 ** rng.choice((1, -1)) * h.inverse()))
    return ops


# -- certify -----------------------------------------------------------------------

CERTIFY_GRID = tuple((s, t, r) for s in (3, 5) for t in (4, 7) for r in (2, 3, 4))


def certify_round(rng, first=False):
    ops = []
    for s, t, r in CERTIFY_GRID:
        w = unit_sum_word(rng, (s, t), 4)
        inst = BoyerInstance(s, t, r, w)
        ops.append(Op(
            lambda inst=inst: casestudies.boyer_certificate(inst),
            lambda cert, s=s, t=t, r=r, w=w: {
                "s": s, "t": t, "r": r, "word": w.render(),
                "certificate": cert.to_dict(),
            },
        ))
    return ops


# -- properness ----------------------------------------------------------------------

# Five triples: an odd count keeps the median inside one triple's cluster.
PROPERNESS_ORDERS = ((2, 3, 5), (2, 3, 7), (2, 3, 9), (2, 4, 5), (2, 5, 7))


def permutation_word(rng, orders):
    """Each generator once, in a seeded order, with exponent 1 or (for a
    factor of order at most 3) 1 - order."""
    gens = [1, 2, 3]
    rng.shuffle(gens)
    sylls = []
    for g in gens:
        order = orders[g - 1]
        sylls.append((g, rng.choice((1, 1 - order)) if order <= 3 else 1))
    return Word.from_syllables(sylls)


def _proper_record(inst, with_basis):
    def record(rep):
        rec = {
            "input": f"C{inst.r}*C{inst.s}*C{inst.t} {inst.w.render()}",
            "r": inst.r, "s": inst.s, "t": inst.t,
            "ok": all(c["ok"] for c in rep.checks),
            "properness": rep.properness,
        }
        if with_basis:
            rings = casestudies.sw_build(inst.r, inst.s, inst.t)
            gens = casestudies.sw_elements(inst, rings)
            rec["generators"] = [poly_terms(g) for g in gens]
            rec["basis"] = [poly_terms(g) for g in rings.A.ideal_gb(gens).polys]
        return rec

    return record


def properness_round(rng, first=False):
    """One instance per factor-order triple.  The first round's records
    carry their bases for the full check (a seeded subset: recomputing
    and checking a basis costs about twice the operation)."""
    ops = []
    for r, s, t in PROPERNESS_ORDERS:
        inst = SWInstance(r, s, t, permutation_word(rng, (r, s, t)))
        ops.append(Op(
            lambda inst=inst: casestudies.sw_verify(inst, check_properness=True),
            _proper_record(inst, first),
        ))
    return ops


# -- module_arith ---------------------------------------------------------------------

MODULE_GROUPS = 24  # word pairs per round, five operations each


def _embed_op(kf, w, cell, key):
    def call():
        cell[key] = agmod.embed_word(kf, w)
        return cell[key]

    return Op(call, _elem_record("embed", [w.render()]))


def _elem_record(kind, words):
    return lambda a: {
        "kind": kind, "words": words, "elem": elem_record(a),
        "bar": poly_terms(a.bar()),
    }


def module_round(rng, first=False):
    kf = ring.build_KF(3)
    ops = []
    for _ in range(MODULE_GROUPS):
        w1 = reduced_word(rng, 3, rng.randint(1, 6))
        w2 = reduced_word(rng, 3, rng.randint(1, 6))
        words = [w1.render(), w2.render()]
        # The product, dot and bracket use the elements made by the two
        # embed operations before them in the same round.
        cell = {}
        ops.append(_embed_op(kf, w1, cell, 1))
        ops.append(_embed_op(kf, w2, cell, 2))
        ops.append(Op(lambda c=cell: c[1] * c[2], _elem_record("product", words)))
        ops.append(Op(
            lambda c=cell: agmod.dot(c[1].vector_part(), c[2].vector_part()),
            lambda p, ws=words: {"kind": "dot", "words": ws, "poly": poly_terms(p)},
        ))
        ops.append(Op(
            lambda c=cell: agmod.bracket(c[1].vector_part(), c[2].vector_part()),
            lambda a, ws=words: {"kind": "bracket", "words": ws, "elem": elem_record(a)},
        ))
    battery_seed = rng.randrange(2**31)
    ops.append(Op(
        lambda: identities.run_identity_suite(seed=battery_seed, n=3, pool_size=8, max_len=1),
        lambda res: {
            "kind": "battery", "words": [],
            "identities": [
                {"name": r.name, "ok": r.ok, "samples": r.samples} for r in res
            ],
        },
    ))
    return ops


def _independent(make_round):
    return lambda rng: lambda first=False: make_round(rng, first)


# workload -> rounds(rng), which returns make_round(first=False); the
# first round of a run is made with first=True.
ROUNDS = {
    "ideal_calculus": ideal_calculus_rounds,
    "properness": _independent(properness_round),
    "certify": _independent(certify_round),
    "module_arith": _independent(module_round),
}

# Rounds of the fixed traced op list, sized so the untraced pass takes a
# few seconds on a 2-CPU machine with the pure-Python kernel.
TRACE_ROUNDS = {
    "ideal_calculus": 12,
    "properness": 2,
    "certify": 20,
    "module_arith": 4,
}


def ring_setup():
    """The coordinate rings every workload reads (build_KF memoizes them)."""
    ring.build_KF(2)
    ring.build_KF(3)
