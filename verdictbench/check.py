"""Independent checks of the benchmark's outputs.

Nothing here imports gring.  Every check re-derives its claim with exact
rational arithmetic written in this file:

* ``certify``: the specialized scalar part of the normalized word is
  recomputed as the scalar part of a product of symbolic unit quaternions
  over E(s,t); its remainder modulo 1 - x^2, the composite through the
  degree-r family member, its x-degree and the unit certificate
  ``lead * inv == 1`` are all re-derived modulo E(s,t)'s four relations.
  Under lex s1 > s2 > mu1 > mu2 their leads s1^2, s2^2, mu1^(s-1) and
  mu2^(t-1) are pairwise coprime pure powers, so rewriting them away
  already gives a normal form.
* ``module_arith``: each module element is evaluated at a seeded rational
  point and compared with the exact quaternion product of the words.
* ``properness``: a returned basis must contain the five generators and
  A's relations, hold no constant and pass the S-pair criterion.
* ``ideal_calculus``: each verdict must be the one the method fixes.

``check_records(workload, records, seed)`` returns a list of failure
messages; an empty list means every output checked out.
"""

from __future__ import annotations

import functools
import json
import random
import re
from fractions import Fraction

# -- sparse polynomials over a fixed variable tuple ---------------------------
#
# A polynomial is a dict {exponent tuple: Fraction} without zero entries.


def p_add(p, q, scale=1):
    out = dict(p)
    for m, c in q.items():
        v = out.get(m, 0) + scale * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def p_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def p_const(c, n):
    return {(0,) * n: Fraction(c)} if c else {}


def p_var(i, n, e=1):
    m = [0] * n
    m[i] = e
    return {tuple(m): Fraction(1)}


def family(n):
    """Integer coefficients (index = power) of member n >= 0 of the family
    P(0) = 0, P(1) = 1, P(k+1) = 2x P(k) - P(k-1)."""
    prev, cur = [], [1]
    if n == 0:
        return prev
    for _ in range(n - 1):
        nxt = [0] * (len(cur) + 1)
        for i, c in enumerate(cur):
            nxt[i + 1] += 2 * c
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def family_at(n, var, nvars):
    """Member n of the family as a polynomial in variable ``var``."""
    out = {}
    for k, c in enumerate(family(n)):
        if c:
            out = p_add(out, p_var(var, nvars, k) if k else p_const(1, nvars), c)
    return out


_TERM = re.compile(r"\s*([+-])?\s*([^+-]+)")


def parse_poly(text, names):
    """Parse gring's rendering (``3/2*x^2*y - 1``) over the variables
    ``names``; an unknown variable raises ValueError."""
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    out = {}
    text = text.strip()
    if text == "0":
        return out
    for sign, body in _TERM.findall(text):
        coeff = Fraction(1)
        mono = [0] * n
        for factor in body.strip().split("*"):
            if re.fullmatch(r"[0-9]+(/[0-9]+)?", factor):
                coeff *= Fraction(factor)
                continue
            name, _, exp = factor.partition("^")
            if name not in index:
                raise ValueError(f"unexpected variable {name!r} in {text!r}")
            mono[index[name]] += int(exp) if exp else 1
        out = p_add(out, {tuple(mono): coeff}, -1 if sign == "-" else 1)
    return out


def parse_word(text):
    """``g1^2*g2^-1`` -> [(1, 2), (2, -1)]; ``e`` is the empty word."""
    if text == "e":
        return []
    out = []
    for part in text.split("*"):
        name, _, exp = part.partition("^")
        if not re.fullmatch(r"g[0-9]+", name):
            raise ValueError(f"bad letter {part!r}")
        out.append((int(name[1:]), int(exp) if exp else 1))
    return out


def render_word(sylls):
    if not sylls:
        return "e"
    return "*".join(f"g{g}" if e == 1 else f"g{g}^{e}" for g, e in sylls)


def reduce_word(sylls):
    out = []
    for g, e in sylls:
        if out and out[-1][0] == g:
            e += out.pop()[1]
        if e:
            out.append((g, e))
    return out


def normalize_unit_exponents(sylls, moduli):
    """Append g_i^(1 - sum) so each generator's exponent sum is exactly 1;
    None when a sum is not 1 modulo its factor order."""
    out = list(sylls)
    for i, mod in enumerate(moduli, start=1):
        es = sum(e for g, e in out if g == i)
        if (es - 1) % mod:
            return None
        if es != 1:
            out = reduce_word(out + [(i, 1 - es)])
    return out


# -- quaternions with polynomial or rational coordinates ----------------------


def q_mul(p, q, mul, add, sub):
    a0, a1, a2, a3 = p
    b0, b1, b2, b3 = q
    return (
        sub(sub(sub(mul(a0, b0), mul(a1, b1)), mul(a2, b2)), mul(a3, b3)),
        sub(add(add(mul(a0, b1), mul(a1, b0)), mul(a2, b3)), mul(a3, b2)),
        sub(add(add(mul(a0, b2), mul(a2, b0)), mul(a3, b1)), mul(a1, b3)),
        sub(add(add(mul(a0, b3), mul(a3, b0)), mul(a1, b2)), mul(a2, b1)),
    )


def q_conj(q, neg):
    return (q[0], neg(q[1]), neg(q[2]), neg(q[3]))


def _frac_ops():
    return (
        lambda a, b: a * b,
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a: -a,
    )


def word_quaternion(sylls, gens, one, ops):
    mul, add, sub, neg = ops
    out = one
    for g, e in sylls:
        q = gens[g] if e > 0 else q_conj(gens[g], neg)
        for _ in range(abs(e)):
            out = q_mul(out, q, mul, add, sub)
    return out


# -- certify: re-derive boyer certificates over E(s,t) ------------------------

E_NAMES = ("s1", "s2", "mu1", "mu2", "x", "y")
S1, S2, MU1, MU2, X, Y = range(6)
NE = len(E_NAMES)


def _e_rules(s, t):
    """Pure-power rewrite rules var^k -> poly of E(s,t), plus y^2 -> 1-x^2
    for the second quaternion's unit vector (x, y, 0)."""
    rules = []
    one = p_const(1, NE)
    rules.append((S1, 2, p_add(one, p_var(MU1, NE, 2), -1)))
    rules.append((S2, 2, p_add(one, p_var(MU2, NE, 2), -1)))
    for var, n in ((MU1, s), (MU2, t)):
        fam = family(n)
        k, lc = len(fam) - 1, fam[-1]
        rest = {}
        for i, c in enumerate(fam[:-1]):
            if c:
                rest = p_add(rest, p_var(var, NE, i) if i else p_const(1, NE), Fraction(-c, lc))
        rules.append((var, k, rest))
    rules.append((Y, 2, p_add(one, p_var(X, NE, 2), -1)))
    return rules


def rewrite(p, rules):
    """Normal form under pure-power rules with pairwise coprime leads."""
    out = {}
    work = list(p.items())
    while work:
        m, c = work.pop()
        for var, k, repl in rules:
            if m[var] >= k:
                rest = list(m)
                rest[var] -= k
                for rm, rc in repl.items():
                    work.append((tuple(a + b for a, b in zip(rest, rm)), c * rc))
                break
        else:
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


@functools.lru_cache(maxsize=None)
def theta_image(sylls, s, t):
    """Scalar part of the word's image under g1 -> mu1 + s1*e1 and
    g2 -> mu2 + s2*(x*e1 + y*e2), reduced modulo E(s,t) and y^2 = 1 - x^2.
    This is lam_i -> mu_i, m12 -> s1*s2*x applied to the scalar part.
    ``sylls`` is a tuple; the result is cached and must not be changed."""
    rules = _e_rules(s, t)
    zero = {}
    ops = (p_mul, p_add, lambda a, b: p_add(a, b, -1), lambda a: p_add({}, a, -1))
    gens = {
        1: (p_var(MU1, NE), p_var(S1, NE), zero, zero),
        2: (p_var(MU2, NE), p_mul(p_var(S2, NE), p_var(X, NE)),
            p_mul(p_var(S2, NE), p_var(Y, NE)), zero),
    }
    out = (p_const(1, NE), zero, zero, zero)
    for g, e in sylls:
        q = gens[g] if e > 0 else q_conj(gens[g], ops[3])
        for _ in range(abs(e)):
            out = tuple(rewrite(c, rules) for c in q_mul(out, q, *ops[:3]))
    return out[0], rules


def x_degree(p):
    return max((m[X] for m in p), default=-1)


def x_coefficient(p, d):
    return {m[:X] + (0,) + m[X + 1:]: c for m, c in p.items() if m[X] == d}


def check_certificate(rec):
    """Failures (strings) of one boyer certificate record."""
    s, t, r = rec["s"], rec["t"], rec["r"]
    cert = rec["certificate"]
    fail = []
    word = normalize_unit_exponents(reduce_word(parse_word(rec["word"])), (s, t))
    if word is None:
        return [f"word {rec['word']} has no unit exponent sums mod ({s},{t})"]
    if cert["instance"]["normalized_word"] != render_word(word):
        fail.append("normalized word differs")
    theta, rules = theta_image(tuple(word), s, t)
    if any(m[Y] for m in theta):
        fail.append("quaternion scalar part is odd in y")
    names = E_NAMES[:5]

    def nf_of(text):
        return rewrite({m + (0,): c for m, c in parse_poly(text, names).items()}, rules)

    if nf_of(cert["theta_image"]) != theta:
        fail.append("theta image differs from the quaternion scalar part")
    fold = rules + [(X, 2, p_const(1, NE))]
    remainder = rewrite(theta, fold)
    expected = rewrite(
        p_add(p_mul(p_var(MU1, NE), p_var(MU2, NE)),
              p_mul(p_mul(p_var(S1, NE), p_var(S2, NE)), p_var(X, NE)), -1),
        rules,
    )
    if remainder != expected:
        fail.append("remainder modulo 1 - x^2 is not mu1*mu2 - s1*s2*x")
    if nf_of(cert["remainder"]) != remainder:
        fail.append("certificate remainder differs from the re-derived one")
    prev, cur = {}, p_const(1, NE)  # members 0 and 1 at theta
    for _ in range(r - 1):
        prev, cur = cur, p_add(rewrite(p_mul(p_mul(p_const(2, NE), theta), cur), rules), prev, -1)
    composite = cur
    raw = x_degree(composite)
    if cert["raw_degree"] != raw:
        fail.append(f"raw degree {cert['raw_degree']} != re-derived {raw}")
    d = cert["degree"]
    if cert["conclusion"] is None or d is None:
        return fail + ["certificate carries no conclusion"]
    if not r - 1 <= d <= raw:
        fail.append(f"degree {d} outside [{r - 1}, {raw}]")
    lead = nf_of(cert["leading_coefficient"])
    if not lead or lead != x_coefficient(composite, d):
        fail.append(f"leading coefficient is not the x^{d} coefficient")
    inv = nf_of(cert["unit_certificate"])
    if rewrite(p_mul(lead, inv), rules) != p_const(1, NE):
        fail.append("lead * inv is not 1 modulo E")
    return fail


# -- module_arith: exact quaternion values at rational points -----------------


def cayley(x, y, z):
    n = x * x + y * y + z * z
    d = 1 + n
    return ((1 - n) / d, -2 * x / d, -2 * y / d, -2 * z / d)


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def random_point(rng, n, height=6):
    def rat():
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    return {i: cayley(rat(), rat(), rat()) for i in range(1, n + 1)}


def symbol_values(pt):
    """Values of the canonical symbols at a point: lam_i -> scalar
    coordinate, m_ij -> dot of vector parts, w_ijk -> determinant of the
    vector parts."""
    vec = {i: q[1:] for i, q in pt.items()}
    vals = {f"lam{i}": q[0] for i, q in pt.items()}
    for i in pt:
        for j in pt:
            if i < j:
                vals[f"m{i}{j}"] = _dot(vec[i], vec[j])
                for k in pt:
                    if j < k:
                        vals[f"w{i}{j}{k}"] = _dot(vec[i], _cross(vec[j], vec[k]))
    return vals


def eval_terms(terms, vals):
    """Value of exported terms; ``vals`` maps (symbol, exponent) to the
    power, filled on first use."""
    total = Fraction(0)
    for mono, coeff in terms:
        v = Fraction(coeff)
        for name, e in mono:
            power = vals.get((name, e))
            if power is None:
                power = vals[(name, e)] = vals[name] ** e
            v *= power
        total += v
    return total


def eval_elem(elem, pt, vals):
    """Quaternion value of scalar + sum vec_i*v_i + sum brk_ij*b_ij with
    v_i -> vector part of generator i and b_ij -> v_i x v_j."""
    scalar = eval_terms(elem["scalar"], vals)
    vec = [Fraction(0)] * 3
    for key, terms in elem["vec"].items():
        c = eval_terms(terms, vals)
        u = pt[int(key)][1:]
        vec = [a + c * b for a, b in zip(vec, u)]
    for key, terms in elem["brk"].items():
        c = eval_terms(terms, vals)
        u = _cross(pt[int(key[0])][1:], pt[int(key[1])][1:])
        vec = [a + c * b for a, b in zip(vec, u)]
    return (scalar, *vec)


class Point:
    """A seeded rational evaluation point with its symbol values and the
    quaternion of every word evaluated so far."""

    def __init__(self, seed):
        self.quats = random_point(random.Random(f"module_arith:{seed}"), 3)
        self.vals = symbol_values(self.quats)
        self._words = {}

    def word(self, text):
        q = self._words.get(text)
        if q is None:
            one = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
            q = word_quaternion(parse_word(text), self.quats, one, _frac_ops())
            self._words[text] = q
        return q


def check_module_op(rec, point):
    pt, vals = point.quats, point.vals
    qs = [point.word(w) for w in rec["words"]]
    kind = rec["kind"]
    if kind == "embed":
        want, got = qs[0], eval_elem(rec["elem"], pt, vals)
    elif kind == "product":
        want = q_mul(qs[0], qs[1], *_frac_ops()[:3])
        got = eval_elem(rec["elem"], pt, vals)
    elif kind == "dot":
        want, got = _dot(qs[0][1:], qs[1][1:]), eval_terms(rec["poly"], vals)
    elif kind == "bracket":
        want = (Fraction(0), *_cross(qs[0][1:], qs[1][1:]))
        got = eval_elem(rec["elem"], pt, vals)
    elif kind == "battery":
        bad = [r["name"] for r in rec["identities"] if not r["ok"] or r["samples"] < 1]
        return [f"identities failed: {bad}"] if bad else []
    else:
        return [f"unknown op kind {kind!r}"]
    if want != got:
        return [f"{kind} of {rec['words']} differs from the quaternion value"]
    if kind in ("embed", "product") and eval_terms(rec["bar"], vals) != want[0]:
        return [f"bar of {kind} of {rec['words']} differs from the scalar part"]
    return []


# -- properness: back a 'proper' verdict with its basis -----------------------

SW_NAMES = ("mu1", "mu2", "mu3", "s1", "s2", "s3", "x", "y", "u", "v")
NSW = len(SW_NAMES)


def degrevlex_key(m):
    return (sum(m), *(-e for e in reversed(m)))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def reduce_full(p, basis):
    """Remainder of p on division by monic ``basis`` [(lead, poly)]."""
    p = dict(p)
    out = {}
    while p:
        m = max(p, key=degrevlex_key)
        c = p[m]
        for lm, g in basis:
            if _divides(lm, m):
                q = tuple(a - b for a, b in zip(m, lm))
                p = p_add(p, p_mul({q: c}, g), -1)
                break
        else:
            out[m] = c
            del p[m]
    return out


def a_relations(r, s, t):
    rels = [family_at(n, i, NSW) for i, n in ((0, r), (1, s), (2, t))]
    one = p_const(1, NSW)
    for i in range(3):
        rels.append(p_add(p_add(p_var(3 + i, NSW, 2), p_var(i, NSW, 2)), one, -1))
    x2 = p_add(one, p_var(6, NSW, 2), -1)
    y2 = p_add(one, p_var(7, NSW, 2), -1)
    rels.append(p_add(p_mul(x2, y2), p_add(p_var(8, NSW, 2), p_var(9, NSW, 2)), -1))
    return rels


def _terms_to_poly(terms):
    index = {n: i for i, n in enumerate(SW_NAMES)}
    out = {}
    for mono, coeff in terms:
        m = [0] * NSW
        for name, e in mono:
            m[index[name]] += e
        out = p_add(out, {tuple(m): Fraction(coeff)})
    return out


def check_proper_basis(rec):
    """Failures of one properness record that carries its basis."""
    basis = []
    for terms in rec["basis"]:
        g = _terms_to_poly(terms)
        if not g:
            return ["zero polynomial in the basis"]
        lm = max(g, key=degrevlex_key)
        if g[lm] != 1:
            return ["basis element is not monic"]
        basis.append((lm, g))
    if not basis:
        return ["empty basis"]
    if any(sum(lm) == 0 for lm, _ in basis):
        return ["basis holds a constant: the ideal is the whole ring"]
    fail = []
    gens = [_terms_to_poly(t) for t in rec["generators"]]
    for k, g in enumerate(gens + a_relations(rec["r"], rec["s"], rec["t"])):
        if reduce_full(g, basis):
            fail.append(f"input polynomial {k} does not reduce to zero")
    # S-pair criterion with Buchberger's product and chain criteria
    # (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms, 2.10).
    n = len(basis)
    pending = {(i, j) for i in range(n) for j in range(i + 1, n)}
    for i in range(n):
        for j in range(i + 1, n):
            pending.discard((i, j))
            li, gi = basis[i]
            lj, gj = basis[j]
            if all(a == 0 or b == 0 for a, b in zip(li, lj)):
                continue
            lcm = tuple(max(a, b) for a, b in zip(li, lj))
            if any(
                k not in (i, j)
                and _divides(basis[k][0], lcm)
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
                for k in range(n)
            ):
                continue
            qi = tuple(a - b for a, b in zip(lcm, li))
            qj = tuple(a - b for a, b in zip(lcm, lj))
            spoly = p_add(p_mul({qi: Fraction(1)}, gi), p_mul({qj: Fraction(1)}, gj), -1)
            if reduce_full(spoly, basis):
                fail.append(f"S-pair ({i},{j}) does not reduce to zero")
                return fail
    return fail


# -- dispatch -----------------------------------------------------------------

EXPECTED_VERDICT = {
    "conj": True,
    "inv": True,
    "split": True,
    "power": "CertifiedNo",
    "normgen": "Inconclusive",
}


def check_record(workload, rec, point):
    if workload == "ideal_calculus":
        want = EXPECTED_VERDICT[rec["kind"]]
        if rec["got"] != want:
            return [f"{rec['kind']} {rec['input']}: got {rec['got']!r}, want {want!r}"]
        return []
    if workload == "certify":
        return check_certificate(rec)
    if workload == "module_arith":
        return check_module_op(rec, point)
    if workload == "properness":
        fail = [] if rec["ok"] else [f"structural check failed: {rec['input']}"]
        if rec["properness"] != "proper":
            fail.append(f"{rec['input']}: properness {rec['properness']!r}")
        if "basis" in rec:
            fail += check_proper_basis(rec)
        return fail
    return [f"unknown workload {workload!r}"]


def check_records(workload, records, seed):
    """Check every record; returns the list of failure messages.

    Small input spaces repeat instances, and a record identical to one
    already checked gets the same verdict."""
    point = Point(seed) if workload == "module_arith" else None
    fail, seen = [], {}
    for index, rec in enumerate(records):
        key = json.dumps(rec, sort_keys=True)
        if key not in seen:
            seen[key] = check_record(workload, rec, point)
        fail += [f"op {index}: {msg}" for msg in seen[key]]
    return fail
