"""Exact rational polytope primitives in one and two dimensions.

All coordinates are `fractions.Fraction`; there is no floating point
anywhere.  The kernels run on the vertices scaled to integers (`scaled_ints`)
and return `Fraction`s; `edge`, `outside` and `half_planes` are the one
half-plane test, shared by the hull, `facets`, `contains`, `dual`, `core` and
the walk.  Polytopes are stored by their vertices in a canonical order so
that equality of polytopes is equality of vertex tuples:

* rank 1: ``(low, high)``
* rank 2: strictly counterclockwise, starting from the lexicographically
  smallest vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Rat = Fraction
Vec = tuple[Fraction, ...]


class DegenerateInput(ValueError):
    """Points or vectors do not span the full space."""


class NotUnimodular(ValueError):
    """An integer matrix without determinant +-1."""


class OriginNotInterior(ValueError):
    """Duality requires the origin strictly inside the polytope."""


class ZeroVector(ValueError):
    pass


def vec(*coords) -> Vec:
    return tuple(Fraction(c) for c in coords)


def primitive(v: tuple[int, ...]) -> tuple[int, ...]:
    """v divided by the gcd of its entries (v must be a nonzero integer vector)."""
    if all(c == 0 for c in v):
        raise ZeroVector("primitive() of the zero vector")
    g = 0
    for c in v:
        g = math.gcd(g, abs(c))
    return tuple(c // g for c in v)


def scaled_ints(points, *denominators) -> tuple[int, list[tuple[int, ...]]]:
    """(S, points * S), S the lcm of the points' denominators and `denominators`,
    so that every scaled coordinate is an integer."""
    S = math.lcm(*(c.denominator for p in points for c in p), *denominators)
    return S, [tuple(c.numerator * (S // c.denominator) for c in p) for p in points]


def edge(p, q):
    """(outward normal, support, vertices) of the edge p -> q of a counterclockwise
    polygon on integer points; the support is positive iff 0 lies strictly left."""
    return (q[1] - p[1], p[0] - q[0]), p[0] * q[1] - p[1] * q[0], (p, q)


def outside(facet, x) -> bool:
    """Whether the integer point x lies strictly outside <normal, x> <= support."""
    n, support, _ = facet
    return (n[0] * x[0] if len(x) == 1 else n[0] * x[0] + n[1] * x[1]) > support


def half_planes(pts) -> list:
    """The facets, as `edge` gives them, of the polytope with integer vertices pts."""
    if len(pts[0]) == 1:
        return [((-1,), -pts[0][0], pts[:1]), ((1,), pts[1][0], pts[1:])]
    return [edge(p, q) for p, q in zip(pts, pts[1:] + pts[:1])]


def rational_primitive(v: Vec) -> tuple[int, ...]:
    """The primitive integer vector on the ray through a nonzero rational v."""
    den = math.lcm(*(c.denominator for c in v))
    return primitive(tuple(int(c * den) for c in v))


def is_lattice_basis(vs) -> bool:
    """True iff vs consists of exactly r integer vectors with determinant +-1."""
    vs = list(vs)
    if not vs:
        return False
    r = len(vs[0])
    if len(vs) != r or any(len(v) != r for v in vs):
        return False
    if any(c.denominator != 1 for v in vs for c in v):
        return False
    if r == 1:
        d = vs[0][0]
    else:
        d = vs[0][0] * vs[1][1] - vs[0][1] * vs[1][0]
    return d in (1, -1)


@dataclass(frozen=True)
class Facet:
    """Supporting hyperplane {x : <normal, x> = support} with <normal, x> <= support on P.

    The normal is a primitive integer vector; incident_vertices index into
    the polytope's stored vertex list.
    """

    normal: tuple[int, ...]
    support: Fraction
    incident_vertices: tuple[int, ...]


@dataclass(frozen=True)
class RationalPolytope:
    rank: int
    vertices: tuple[Vec, ...]

    def __post_init__(self):
        if self.rank == 1:
            if len(self.vertices) != 2 or not self.vertices[0] < self.vertices[1]:
                raise DegenerateInput(
                    "a segment needs two distinct endpoints in increasing order, got "
                    + " ".join(map(vec_str, self.vertices))
                )
        elif len(self.vertices) < 3:
            raise DegenerateInput(
                "a polygon needs three vertices, got " + " ".join(map(vec_str, self.vertices))
            )


def convex_hull(points, rank: int) -> RationalPolytope:
    """Hull of rational points, stored canonically; non-extreme points are dropped."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    # sorted, deduplicated and hulled scaled to ints, which keeps their order
    given = dict(zip(scaled_ints(pts)[1], pts))
    ints = sorted(given)
    if rank == 1:
        if len(ints) < 2:
            raise DegenerateInput("rank-1 hull needs two distinct points")
        return RationalPolytope(1, (given[ints[0]], given[ints[-1]]))

    if len(ints) < 3:
        raise DegenerateInput("rank-2 hull needs three points")

    # Andrew's monotone chain; strict left turns drop collinear points
    def chain(seq):
        out: list[tuple[int, int]] = []
        for p in seq:
            while len(out) >= 2 and not outside(edge(out[-1], out[-2]), p):
                out.pop()
            out.append(p)
        return out

    lower = chain(ints)
    upper = chain(reversed(ints))
    hull = [given[p] for p in lower[:-1] + upper[:-1]]
    if len(hull) < 3:
        raise DegenerateInput("points are collinear")
    # counterclockwise from hull[0], the lexicographic minimum, which the
    # lower chain never pops
    return RationalPolytope(2, tuple(hull))


def vertices_ccw_store(verts) -> tuple[Vec, ...]:
    """Canonical storage order for a list already forming a convex ccw cycle."""
    verts = [tuple(Fraction(c) for c in v) for v in verts]
    k = verts.index(min(verts))
    return tuple(verts[k:] + verts[:k])


def facets(P: RationalPolytope) -> tuple[Facet, ...]:
    """Each half-plane <n, X> <= s of P scaled by D, n of gcd g, is <n/g, x> <= s/(g D)."""
    D, pts = scaled_ints(P.vertices)
    out = []
    for i, (n, s, _) in enumerate(half_planes(pts)):
        g = math.gcd(*n)
        incident = tuple((i + j) % len(pts) for j in range(P.rank))
        out.append(Facet(tuple(c // g for c in n), Fraction(s, g * D), incident))
    return tuple(out)


def contains(P: RationalPolytope, x, strict: bool = False) -> bool:
    """Whether x lies in P, or in its interior if strict, with P and x scaled
    together; on integers, <n, x> < s is <n, x> <= s - 1."""
    _, pts = scaled_ints([*P.vertices, tuple(Fraction(c) for c in x)])
    x = pts.pop()
    return not any(outside((n, s - strict, None), x) for n, s, _ in half_planes(pts))


def dual(P: RationalPolytope) -> RationalPolytope:
    """{y : <x, y> >= -1 for all x in P}; an involution on polytopes with 0 interior.
    Each half-plane <n, X> <= s of P scaled by D gives the vertex -D n / s."""
    D, pts = scaled_ints(P.vertices)
    fs = half_planes(pts)
    if any(s <= 0 for _, s, _ in fs):
        raise OriginNotInterior("dual() needs 0 strictly inside")
    verts = [tuple(Fraction(-D * c, s) for c in n) for n, s, _ in fs]
    return RationalPolytope(P.rank, vertices_ccw_store(verts))


def lattice_points(P: RationalPolytope) -> list[tuple[int, ...]]:
    """All integer points of P, boundary included, in lexicographic order."""
    if P.rank == 1:
        lo, hi = P.vertices[0][0], P.vertices[1][0]
        return [(x,) for x in range(math.ceil(lo), math.floor(hi) + 1)]
    xs = [v[0] for v in P.vertices]
    ys = [v[1] for v in P.vertices]
    out = []
    for x in range(math.ceil(min(xs)), math.floor(max(xs)) + 1):
        for y in range(math.ceil(min(ys)), math.floor(max(ys)) + 1):
            if contains(P, (Fraction(x), Fraction(y))):
                out.append((x, y))
    return out


@dataclass(frozen=True)
class DHPolynomial:
    """prefactor * prod (constant + <linear, x>)^multiplicity; the registry's
    linear parts are integers, `integrate` takes rational ones too."""

    prefactor: Fraction
    factors: tuple[tuple[Fraction, tuple[int, ...], int], ...]

    def total_degree(self) -> int:
        return sum(mult for _, _, mult in self.factors)

    def value_at_origin(self) -> Fraction:
        v = Fraction(self.prefactor)
        for const, _, mult in self.factors:
            v *= Fraction(const) ** mult
        return v


def dh(prefactor, *factors) -> DHPolynomial:
    return DHPolynomial(
        Fraction(prefactor),
        tuple((Fraction(c), tuple(lin), mult) for c, lin, mult in factors),
    )


def integrate(P: RationalPolytope, f: DHPolynomial) -> Fraction:
    """Exact integral of f over P with respect to Lebesgue measure.

    On a simplex S = conv(v_0..v_n) each affine form is h = sum_i t_i h(v_i) in
    barycentric coordinates t, and t^m has mean n! prod m_i! / (n + |m|)! over S;
    so for affine forms h_1..h_p (Baldoni, Berline, De Loera, Koeppe, Vergne,
    "How to integrate a polynomial over a simplex", Math. Comp. 80, 2011)

        int_S prod_j h_j = n! vol(S) / (n + p)! * sum_m [t^m](prod_j h_j) prod_i m_i!.

    S is the segment in rank 1 and each triangle of a fan from the first vertex
    in rank 2.  On vertices X = D x scaled to integers, L D h is an integer form
    in X for L the lcm of h's own denominators; the sums run on ints and one
    `Fraction` is built at the end.
    """
    n = P.rank
    D, pts = scaled_ints(P.vertices)
    forms, scale = [], f.prefactor.denominator * D**n
    for const, lin, mult in f.factors:
        L, ((c, *a),) = scaled_ints([(const, *lin)])
        forms += [(c * D, a)] * mult
        scale *= (L * D) ** mult
    total = 0
    for S in [pts] if n == 1 else [(pts[0], p, q) for p, q in zip(pts[1:], pts[2:])]:
        t_poly = {(0,) * (n + 1): 1}  # exponent of t -> integer coefficient
        for c, a in forms:
            hs = [c + sum(ak * xk for ak, xk in zip(a, x)) for x in S]
            out: dict[tuple[int, ...], int] = {}
            for e, coef in t_poly.items():
                for i, h in enumerate(hs):
                    m = e[:i] + (e[i] + 1,) + e[i + 1 :]
                    out[m] = out.get(m, 0) + coef * h
            t_poly = out
        edges = [tuple(xk - yk for xk, yk in zip(x, S[0])) for x in S[1:]]
        volume = abs(edges[0][0] if n == 1 else det2(*edges))  # n! vol(S) D^n
        total += volume * sum(coef * math.prod(map(math.factorial, e)) for e, coef in t_poly.items())
    return Fraction(f.prefactor.numerator * total, scale * math.factorial(n + len(forms)))


# ---------------------------------------------------------------------------
# integer matrices and Smith normal form


def mat_mul(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0])))
        for i in range(len(A))
    )


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def snf(A):
    """Smith normal form: returns (U, S, V) with U*A*V = S.

    U and V are unimodular; S is diagonal with nonnegative entries and
    d_i | d_{i+1}.  One pass over the diagonal: each step moves a least
    nonzero entry of the remaining block to (t, t) and clears row t and
    column t by floor division.  The step repeats while a remainder is left,
    or while an entry of the rest of the block is not a multiple of the pivot
    (that entry's row is added to row t first); either way the next pivot is
    smaller, so the loop ends.  Each row of A carries its row of U along.
    """
    m, n = len(A), len(A[0]) if A else 0
    A = [list(row) + [int(i == k) for k in range(m)] for i, row in enumerate(A)]
    V = [[int(i == k) for k in range(n)] for i in range(n)]
    for t in range(min(m, n)):
        while True:
            block = [(abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
            if not block:
                break
            _, i, j = min(block)
            A[t], A[i] = A[i], A[t]
            for row in A + V:
                row[t], row[j] = row[j], row[t]
            p = A[t][t]
            for i in range(t + 1, m):
                q = A[i][t] // p
                if q:
                    A[i] = [a - q * b for a, b in zip(A[i], A[t])]
            for j in range(t + 1, n):
                q = A[t][j] // p
                if q:
                    for row in A + V:
                        row[j] -= q * row[t]
            if any(A[i][t] for i in range(t + 1, m)) or any(A[t][t + 1 : n]):
                continue
            bad = next((i for i in range(t + 1, m) if any(a % p for a in A[i][t + 1 : n])), None)
            if bad is None:
                break
            A[t] = [a + b for a, b in zip(A[t], A[bad])]
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
    return tuple(tuple(r[n:]) for r in A), tuple(tuple(r[:n]) for r in A), tuple(map(tuple, V))


def det2(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def unimodular_inverse(M):
    """Inverse of a 2x2 or 1x1 integer matrix with determinant +-1."""
    if len(M) == 1:
        return ((M[0][0],),)
    d = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if d not in (1, -1):
        raise NotUnimodular(f"{M} has determinant {d}")
    return (
        (M[1][1] * d, -M[0][1] * d),
        (-M[1][0] * d, M[0][0] * d),
    )


def apply_matrix(M, v):
    """M v; integer input gives integer output."""
    return tuple(sum(M[i][j] * v[j] for j in range(len(v))) for i in range(len(M)))


def transform_polytope(M, P: RationalPolytope) -> RationalPolytope:
    """Image of P under an invertible integer matrix, restored to canonical order;
    in rank 2, of the vertices scaled by D > 0 (which keeps their order), divided by D once."""
    if P.rank == 1:
        return convex_hull([apply_matrix(M, v) for v in P.vertices], 1)
    D, pts = scaled_ints(P.vertices)
    (a, b), (c, d) = M
    imgs = [(a * x + b * y, c * x + d * y) for x, y in pts]
    if a * d - b * c < 0:
        imgs.reverse()
    k = imgs.index(min(imgs))
    imgs = imgs[k:] + imgs[:k]
    if D == 1:
        return RationalPolytope(2, tuple((Fraction(x), Fraction(y)) for x, y in imgs))
    return RationalPolytope(2, tuple((Fraction(x, D), Fraction(y, D)) for x, y in imgs))


# ---------------------------------------------------------------------------
# serialization of rationals and vectors ("p/q", "(p/q,r/s)")


def rat_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rat(s: str) -> Fraction:
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s.strip()!r}") from None


def vec_str(v) -> str:
    return "(" + ",".join(rat_str(c) for c in v) + ")"


def parse_vec(s: str) -> Vec:
    s = s.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"bad vector literal: {s!r}")
    return tuple(parse_rat(t) for t in s[1:-1].split(","))
