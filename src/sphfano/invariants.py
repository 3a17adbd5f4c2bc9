"""Geometric invariants of one accepted embedding, all exact.

The Picard group is presented by generators D (colors) and I (the lattice
vertices inside the valuation cone that carry no color), with one relation
row per weight-lattice basis vector; local factoriality predicts a free
group, which is asserted through the Smith normal form.  The anticanonical
degree and the density barycenter are integrals of the explicit density over
the dual polytope, and the K-stability verdict is a sign test of the
barycenter against the cone spanned by the spherical roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import (
    BOUNDARY,
    INTERIOR,
    CombinatorialData,
    check_reflexive,
    valuation_cone_position,
)
from .geometry import DegenerateInput, Polynomial, RationalPolytope, dual, integrate, snf
from .search import NotReflexive

STABLE = "Stable"
SEMISTABLE = "SemistableNotStable"
UNSTABLE = "Unstable"


class NonIntegerDegree(AssertionError):
    pass


class RelationRankDeficit(AssertionError):
    pass


class AnticanonicalVanishes(AssertionError):
    pass


@dataclass(frozen=True)
class DivisorBasis:
    colors: tuple
    g_stable: tuple


@dataclass(frozen=True)
class PicardPresentation:
    relation_matrix: tuple
    snf_data: tuple
    free_rank: int


@dataclass(frozen=True)
class KVerdict:
    value: str
    barycenter: tuple

    def is_stable(self) -> bool:
        return self.value == STABLE


def _require_reflexive(data, P):
    v = check_reflexive(data, P)
    if not v.ok:
        raise NotReflexive(f"polytope fails: {v.violations}")


def divisor_basis(data: CombinatorialData, P: RationalPolytope, checked=False) -> DivisorBasis:
    """Split the Picard generators: all colors, then the color-free vertices in the cone."""
    if not checked:
        _require_reflexive(data, P)
    color_locs = set(data.color_points())
    g_stable = []
    for v in P.vertices:
        if v in color_locs:
            continue
        if all(c.denominator == 1 for c in v) and valuation_cone_position(data, v) in (
            INTERIOR,
            BOUNDARY,
        ):
            g_stable.append(tuple(int(c) for c in v))
    return DivisorBasis(tuple(data.colors), tuple(g_stable))


def picard_presentation(data, P, checked=False) -> PicardPresentation:
    basis = divisor_basis(data, P, checked=checked)
    rows = [tuple(c.rho) for c in basis.colors] + [tuple(v) for v in basis.g_stable]
    A = tuple(rows)
    U, S, V = snf(A)
    r = data.rank
    nonzero = sum(1 for i in range(min(len(A), r)) if S[i][i] != 0)
    if nonzero != r:
        raise RelationRankDeficit(f"relation matrix rank {nonzero}, expected {r}")
    if any(S[i][i] != 1 for i in range(r)):
        # locally factorial embeddings have free Picard group; torsion here
        # means a transcription bug upstream, so refuse to continue
        raise RelationRankDeficit(f"torsion in Picard presentation: {S}")
    return PicardPresentation(A, (U, S, V), len(A) - r)


def picard_rank(data, P, checked=False) -> int:
    return picard_presentation(data, P, checked=checked).free_rank


def fano_index(data, P, checked=False) -> int:
    """Largest integer dividing the anticanonical class in the Picard group."""
    pres = picard_presentation(data, P, checked=checked)
    basis = divisor_basis(data, P, checked=True)
    b = [c.m for c in basis.colors] + [1] * len(basis.g_stable)
    U, S, V = pres.snf_data
    c = [sum(U[i][j] * b[j] for j in range(len(b))) for i in range(len(b))]
    free = c[data.rank :]
    g = 0
    for x in free:
        g = gcd(g, abs(x))
    if g == 0:
        raise AnticanonicalVanishes("anticanonical class vanished in the Picard group")
    return g


def moment_polytope(data, P, checked=False):
    """The dual polytope (the moment polytope translated back by kappa)."""
    if not checked:
        _require_reflexive(data, P)
    return dual(P), data.kappa_expr


def degree(data, P, checked=False) -> int:
    """Anticanonical degree: dim! times the integral of the density over the dual."""
    if not checked:
        _require_reflexive(data, P)
    D = dual(P)
    f = data.f.expand(data.rank)
    value = integrate(D, f)
    total = value
    for k in range(2, data.dim + 1):
        total *= k
    if total.denominator != 1 or total <= 0:
        raise NonIntegerDegree(f"degree {total} is not a positive integer")
    return int(total)


def dh_barycenter(data, P, checked=False) -> tuple:
    """Componentwise integral of x_i * f over the dual polytope (not normalized)."""
    if not checked:
        _require_reflexive(data, P)
    D = dual(P)
    f = data.f.expand(data.rank)
    out = []
    for i in range(data.rank):
        e = tuple(1 if j == i else 0 for j in range(data.rank))
        out.append(integrate(D, f * Polynomial.monomial(data.rank, e)))
    return tuple(out)


def k_verdict(data, P, checked=False) -> KVerdict:
    """Position of the barycenter in the cone spanned by the spherical roots."""
    b = dh_barycenter(data, P, checked=checked)
    sigma = data.sigma
    zero = all(x == 0 for x in b)
    if not sigma:
        return KVerdict(STABLE if zero else UNSTABLE, b)
    if len(sigma) == 1:
        s = sigma[0]
        if zero:
            return KVerdict(SEMISTABLE, b)
        colinear = (
            b[0] * s[1] == b[1] * s[0] if data.rank == 2 else True
        )
        if colinear:
            t = None
            for bi, si in zip(b, s):
                if si:
                    t = Fraction(bi, si)
                    break
            if t is not None and t > 0:
                return KVerdict(STABLE, b)
        return KVerdict(UNSTABLE, b)
    # two independent roots: solve b = t1 s1 + t2 s2 exactly
    s1, s2 = sigma
    det = s1[0] * s2[1] - s1[1] * s2[0]
    if det == 0:
        raise DegenerateInput(f"spherical roots {sigma} are not independent")
    t1 = Fraction(b[0] * s2[1] - b[1] * s2[0], det)
    t2 = Fraction(s1[0] * b[1] - s1[1] * b[0], det)
    if t1 > 0 and t2 > 0:
        return KVerdict(STABLE, b)
    if t1 >= 0 and t2 >= 0:
        return KVerdict(SEMISTABLE, b)
    return KVerdict(UNSTABLE, b)


def all_invariants(data, P) -> dict:
    _require_reflexive(data, P)
    return {
        "pic": picard_rank(data, P, checked=True),
        "degree": degree(data, P, checked=True),
        "fano_index": fano_index(data, P, checked=True),
        "k_verdict": k_verdict(data, P, checked=True),
    }
