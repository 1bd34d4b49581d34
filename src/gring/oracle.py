"""Exact quaternion evaluation model cross-checking the symbolic engine.

Generators map to unit quaternions with rational coordinates (built by a
Cayley transform, so unit norm is exact).  The scalar component of a word's
quaternion image must match the evaluation of its symbolic scalar part
under lam_i -> scalar coordinate, m_ij -> dot product of vector parts,
w_ijk -> determinant of vector parts.  The fuzzer hammers this equality on
seeded random words and points.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .agmod import embed_word
from .errors import ForeignVariable, GringError, InvalidInstance
from .poly import REGISTRY, Poly
from .ring import KFRing, build_KF
from .words import Word, random_word


@dataclass(frozen=True)
class Quaternion:
    """mu + a*e1 + b*e2 + c*e3 with exact rational coordinates."""

    mu: Fraction
    a: Fraction
    b: Fraction
    c: Fraction

    @staticmethod
    def one() -> "Quaternion":
        return Quaternion(Fraction(1), Fraction(0), Fraction(0), Fraction(0))

    def __mul__(self, q: "Quaternion") -> "Quaternion":
        p = self
        return Quaternion(
            p.mu * q.mu - p.a * q.a - p.b * q.b - p.c * q.c,
            p.mu * q.a + p.a * q.mu + p.b * q.c - p.c * q.b,
            p.mu * q.b + p.b * q.mu + p.c * q.a - p.a * q.c,
            p.mu * q.c + p.c * q.mu + p.a * q.b - p.b * q.a,
        )

    def conj(self) -> "Quaternion":
        return Quaternion(self.mu, -self.a, -self.b, -self.c)

    def norm(self) -> Fraction:
        return self.mu**2 + self.a**2 + self.b**2 + self.c**2

    def vector(self):
        return (self.a, self.b, self.c)

    def to_list(self):
        return [str(self.mu), str(self.a), str(self.b), str(self.c)]


def cayley_point(x, y, z) -> Quaternion:
    """Rational unit quaternion from a rational 3-vector.

    With n = x^2+y^2+z^2 the image is ((1-n) - 2x e1 - 2y e2 - 2z e3)/(1+n);
    unit norm holds identically since (1-n)^2 + 4n = (1+n)^2.
    """
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    n = x * x + y * y + z * z
    d = 1 + n
    return Quaternion((1 - n) / d, -2 * x / d, -2 * y / d, -2 * z / d)


@dataclass(frozen=True)
class EvalPoint:
    """One unit quaternion per generator index."""

    quats: tuple  # (Quaternion for generator 1, 2, ...)

    def __post_init__(self):
        for q in self.quats:
            if q.norm() != 1:
                raise GringError("evaluation point quaternion is not unit norm")

    def __getitem__(self, i: int) -> Quaternion:
        return self.quats[i - 1]

    def __len__(self):
        return len(self.quats)

    def to_list(self):
        return [q.to_list() for q in self.quats]


def eval_word(w: Word, pt: EvalPoint) -> Quaternion:
    """Quaternion image of a word; inverse letters map to conjugates."""
    out = Quaternion.one()
    for g, e in w.syllables:
        if g > len(pt):
            raise GringError(f"no evaluation assigned to generator {g}")
        q = pt[g] if e > 0 else pt[g].conj()
        for _ in range(abs(e)):
            out = out * q
    return out


def eval_ring_elem(ring: KFRing, p: Poly, pt: EvalPoint) -> Fraction:
    """Exact value of a canonical-symbol polynomial at an evaluation point."""
    values = {}

    def value_of(vid) -> Fraction:
        v = values.get(vid)
        if v is not None:
            return v
        sym = ring.symbol_of.get(vid)
        if sym is None:
            name = REGISTRY.name(vid)
            raise ForeignVariable(f"variable {name!r} is not a ring symbol")
        kind, idx = sym
        if kind == "lam":
            v = pt[idx[0]].mu
        elif kind == "m":
            ai = pt[idx[0]].vector()
            aj = pt[idx[1]].vector()
            v = ai[0] * aj[0] + ai[1] * aj[1] + ai[2] * aj[2]
        else:  # w: determinant of the three vector parts
            r1 = pt[idx[0]].vector()
            r2 = pt[idx[1]].vector()
            r3 = pt[idx[2]].vector()
            v = (
                r1[0] * (r2[1] * r3[2] - r2[2] * r3[1])
                - r1[1] * (r2[0] * r3[2] - r2[2] * r3[0])
                + r1[2] * (r2[0] * r3[1] - r2[1] * r3[0])
            )
        values[vid] = v
        return v

    total = Fraction(0)
    for mono, coeff in p.terms():
        t = coeff
        for vid, e in mono:
            t *= value_of(vid) ** e
        total += t
    return total


def random_rational(rng: random.Random, height: int) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def random_point(rng: random.Random, n: int, height: int = 8) -> EvalPoint:
    quats = tuple(
        cayley_point(
            random_rational(rng, height),
            random_rational(rng, height),
            random_rational(rng, height),
        )
        for _ in range(n)
    )
    return EvalPoint(quats)


@dataclass
class FuzzReport:
    trials: int
    max_word_length: int
    generators: int
    seed: int
    height: int
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def fuzz_bar(
    trials: int,
    max_word_length: int = 12,
    n: int = 3,
    seed: int = 0,
    height: int = 8,
) -> FuzzReport:
    """Compare quaternion scalar parts against symbolic scalar parts.

    Mismatches are collected with full witnesses rather than raised; any
    entry in the report falsifies the engine and is a bug.  Raises
    InvalidInstance unless ``n`` and ``height`` are positive and
    ``trials`` and ``max_word_length`` are not negative.
    """
    if n < 1 or height < 1 or trials < 0 or max_word_length < 0:
        raise InvalidInstance(
            f"need n >= 1, height >= 1, trials >= 0 and max_word_length >= 0, "
            f"got {n}, {height}, {trials} and {max_word_length}"
        )
    rng = random.Random(seed)
    ring = build_KF(n)
    report = FuzzReport(trials, max_word_length, n, seed, height)
    for trial in range(trials):
        w = random_word(rng, n, max_word_length)
        pt = random_point(rng, n, height)
        lhs = eval_word(w, pt).mu
        rhs = eval_ring_elem(ring, embed_word(ring, w).bar(), pt)
        if lhs != rhs:
            report.mismatches.append(
                {
                    "trial": trial,
                    "word": w.render(),
                    "point": pt.to_list(),
                    "quaternion_mu": str(lhs),
                    "symbolic_value": str(rhs),
                }
            )
    return report
