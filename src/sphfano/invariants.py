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
from functools import lru_cache
from math import factorial, gcd

from .core import CombinatorialData, NotReflexive, check_reflexive
from .geometry import DegenerateInput, RationalPolytope, dh, dual, integrate, snf

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


@dataclass(frozen=True)
class _Accepted:
    basis: DivisorBasis
    presentation: PicardPresentation
    dual: RationalPolytope


@lru_cache(maxsize=1)
def _accepted(data: CombinatorialData, P: RationalPolytope) -> _Accepted:
    """What every invariant of one accepted polytope reads, computed once.

    The invariants of a polytope are asked for together, one polytope after
    another, so a single cache entry serves them all.
    """
    verdict = check_reflexive(data, P)
    if not verdict.ok:
        raise NotReflexive(f"polytope fails: {verdict.violations}")
    # by C3 every vertex off the color points is an integral point of the
    # valuation cone, that is, a G-stable prime divisor
    color_locs = set(data.color_points())
    g_stable = tuple(tuple(int(c) for c in v) for v in P.vertices if v not in color_locs)
    A = tuple(c.rho for c in data.colors) + g_stable
    U, S, V = snf(A)
    r = data.rank
    if len(A) < r or any(S[i][i] != 1 for i in range(r)):
        # locally factorial embeddings have a free Picard group of the full
        # relation rank; anything else means a transcription bug upstream
        raise RelationRankDeficit(f"relation matrix {A} has Smith form {S}, not {r} leading ones")
    return _Accepted(
        DivisorBasis(data.colors, g_stable),
        PicardPresentation(A, (U, S, V), len(A) - r),
        dual(P),
    )


def divisor_basis(data: CombinatorialData, P: RationalPolytope) -> DivisorBasis:
    """Split the Picard generators: all colors, then the color-free vertices in the cone."""
    return _accepted(data, P).basis


def picard_presentation(data, P) -> PicardPresentation:
    return _accepted(data, P).presentation


def picard_rank(data, P) -> int:
    return _accepted(data, P).presentation.free_rank


def fano_index(data, P) -> int:
    """Largest integer dividing the anticanonical class in the Picard group."""
    acc = _accepted(data, P)
    b = [c.m for c in data.colors] + [1] * len(acc.basis.g_stable)
    U = acc.presentation.snf_data[0]
    c = [sum(U[i][j] * b[j] for j in range(len(b))) for i in range(len(b))]
    g = 0
    for x in c[data.rank :]:
        g = gcd(g, abs(x))
    if g == 0:
        raise AnticanonicalVanishes("anticanonical class vanished in the Picard group")
    return g


def moment_polytope(data, P):
    """The dual polytope (the moment polytope translated back by kappa)."""
    return _accepted(data, P).dual, data.kappa_expr


def degree(data, P) -> int:
    """Anticanonical degree: dim! times the integral of the density over the dual."""
    total = integrate(_accepted(data, P).dual, data.f) * factorial(data.dim)
    if total.denominator != 1 or total <= 0:
        raise NonIntegerDegree(f"degree {total} is not a positive integer")
    return int(total)


def dh_barycenter(data, P) -> tuple:
    """Componentwise integral of x_i * f over the dual polytope (not normalized):
    f with the extra factor 0 + <e_i, x>."""
    Q, f, r = _accepted(data, P).dual, data.f, data.rank
    return tuple(
        integrate(Q, dh(f.prefactor, *f.factors, (0, tuple(int(j == i) for j in range(r)), 1)))
        for i in range(r)
    )


def _det(A) -> int:
    """Determinant of a square matrix of size at most 2."""
    return 1 if not A else A[0][0] if len(A) == 1 else A[0][0] * A[1][1] - A[0][1] * A[1][0]


def k_verdict(data, P) -> KVerdict:
    """Position of the barycenter b in the cone spanned by the spherical roots:
    b = sum t_i sigma_i, with t solved from the Gram system by Cramer's rule."""
    b, sigma = dh_barycenter(data, P), data.sigma
    G = [[sum(x * y for x, y in zip(s, u)) for u in sigma] for s in sigma]
    c = [sum(x * y for x, y in zip(s, b)) for s in sigma]
    det = _det(G)
    if det == 0:
        raise DegenerateInput(f"spherical roots {sigma} are not independent")
    # Cramer's rule, with row i of the symmetric G standing in for column i
    t = [Fraction(_det([c if j == i else row for j, row in enumerate(G)]), det) for i in range(len(G))]
    if any(sum(ti * s[k] for ti, s in zip(t, sigma)) != b[k] for k in range(len(b))):
        value = UNSTABLE  # b outside the span of the roots
    elif all(ti > 0 for ti in t):
        value = STABLE
    elif all(ti >= 0 for ti in t):
        value = SEMISTABLE
    else:
        value = UNSTABLE
    return KVerdict(value, b)


def all_invariants(data, P) -> dict:
    return {
        "pic": picard_rank(data, P),
        "degree": degree(data, P),
        "fano_index": fano_index(data, P),
        "k_verdict": k_verdict(data, P),
    }
