"""Exact-geometry primitives against small frozen examples and slow oracles."""

import math
import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from sphfano.geometry import (
    DegenerateInput,
    OriginNotInterior,
    RationalPolytope,
    ZeroVector,
    contains,
    convex_hull,
    dh,
    dual,
    facets,
    integrate,
    is_lattice_basis,
    lattice_points,
    mat_mul,
    parse_vec,
    primitive,
    rat_str,
    snf,
    transform_polytope,
    vec,
    vec_str,
)

HEXAGON = convex_hull(
    [(0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0)], 2
)
SQUARE = convex_hull([(1, 0), (0, 1), (-1, 0), (0, -1)], 2)


# -- independent oracles -----------------------------------------------------


def hull_oracle(points):
    """Extreme points by the O(n^3) definition: p is extreme iff it is not in
    the hull of the others, tested by pairwise orientation / interval cover."""
    pts = sorted(set(points))
    extreme = []
    for p in pts:
        others = [q for q in pts if q != p]
        if not point_in_hull_oracle(p, others):
            extreme.append(p)
    return set(extreme)


def point_in_hull_oracle(p, pts):
    # p in conv(pts) iff some triangle (or segment) of pts contains it
    for a, b in combinations(pts, 2):
        if on_segment(p, a, b):
            return True
    for a, b, c in combinations(pts, 3):
        if in_triangle(p, a, b, c):
            return True
    return False


def orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def on_segment(p, a, b):
    if orient(a, b, p) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(
        a[1], b[1]
    )


def in_triangle(p, a, b, c):
    if orient(a, b, c) == 0:  # degenerate: conv(a,b,c) is a segment
        return on_segment(p, a, b) or on_segment(p, b, c) or on_segment(p, a, c)
    d1, d2, d3 = orient(p, a, b), orient(p, b, c), orient(p, c, a)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def halfplane_vertices_oracle(halfplanes):
    """Vertices of an intersection of halfplanes {<n,x> <= c} by pairwise
    line intersection plus feasibility filtering."""
    verts = set()
    for (n1, c1), (n2, c2) in combinations(halfplanes, 2):
        det = n1[0] * n2[1] - n1[1] * n2[0]
        if det == 0:
            continue
        x = F(c1 * n2[1] - c2 * n1[1], det)
        y = F(n1[0] * c2 - n2[0] * c1, det)
        if all(n[0] * x + n[1] * y <= c for n, c in halfplanes):
            verts.add((x, y))
    return verts


def rational_points(rng, k):
    """k points whose coordinates have mixed denominators."""
    dens = (1, 2, 3, 5, 7)
    return [
        (F(rng.randint(-9, 9), rng.choice(dens)), F(rng.randint(-9, 9), rng.choice(dens)))
        for _ in range(k)
    ]


# -- convex_hull -------------------------------------------------------------


def test_hull_drops_interior_point():
    P = convex_hull([(0, 1), (1, 0), (-1, -1), (0, 0)], 2)
    assert set(P.vertices) == {vec(0, 1), vec(1, 0), vec(-1, -1)}


def test_hull_rank1():
    P = convex_hull([(-1,), (F(1, 2),)], 1)
    assert P.vertices == (vec(-1), vec(F(1, 2)))


def test_hull_storage_order():
    P = convex_hull([(1, 0), (0, 1), (-1, 0), (0, -1)], 2)
    assert P.vertices[0] == vec(-1, 0)  # lexicographic minimum first
    # strict counterclockwise
    k = len(P.vertices)
    for i in range(k):
        a, b, c = P.vertices[i], P.vertices[(i + 1) % k], P.vertices[(i + 2) % k]
        assert orient(a, b, c) > 0


def test_hull_random_against_extremality_oracle():
    # lattice points, then points with mixed denominators; every point lies
    # in the hull and no vertex lies in its interior
    rng = random.Random(7)
    for k in range(80):
        if k < 40:
            pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(50)]
        else:
            pts = rational_points(rng, 10)
        try:
            P = convex_hull(pts, 2)
        except DegenerateInput:
            continue
        assert set(P.vertices) == {vec(*p) for p in hull_oracle(pts)}
        assert all(contains(P, p) for p in pts)
        assert not any(contains(P, v, strict=True) for v in P.vertices)


def test_hull_degenerate():
    with pytest.raises(DegenerateInput):
        convex_hull([(0, 0), (1, 1), (2, 2)], 2)
    with pytest.raises(DegenerateInput):
        convex_hull([(1,), (1,)], 1)


def test_hull_idempotent():
    rng = random.Random(3)
    for _ in range(30):
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(12)]
        try:
            P = convex_hull(pts, 2)
        except DegenerateInput:
            continue
        assert convex_hull(P.vertices, 2) == P


# -- facets ------------------------------------------------------------------


def test_facets_square():
    fs = facets(SQUARE)
    got = {(f.normal, f.support) for f in fs}
    assert got == {((1, 1), 1), ((1, -1), 1), ((-1, 1), 1), ((-1, -1), 1)}


def test_facets_segment():
    P = convex_hull([(-1,), (F(1, 2),)], 1)
    got = {(f.normal, f.support) for f in facets(P)}
    assert got == {((-1,), 1), ((1,), F(1, 2))}


def check_facets_against_halfplane_oracle(P):
    fs = facets(P)
    hp = [(f.normal, f.support) for f in fs]
    assert halfplane_vertices_oracle(hp) == set(P.vertices)
    for f in fs:
        for i in f.incident_vertices:
            v = P.vertices[i]
            assert f.normal[0] * v[0] + f.normal[1] * v[1] == f.support
        assert math.gcd(*map(abs, f.normal)) == 1
    return fs


def test_facets_hexagon_against_halfplane_oracle():
    fs = check_facets_against_halfplane_oracle(HEXAGON)
    assert len(fs) == 6 and all(f.support == 1 for f in fs)
    # polygons whose vertices have mixed denominators
    rng = random.Random(11)
    for _ in range(40):
        try:
            P = convex_hull(rational_points(rng, 6), 2)
        except DegenerateInput:
            continue
        check_facets_against_halfplane_oracle(P)


# -- dual --------------------------------------------------------------------


def test_dual_segment():
    P = convex_hull([(-1,), (F(1, 2),)], 1)
    assert dual(P).vertices == (vec(-2), vec(1))


def test_dual_square():
    D = dual(SQUARE)
    assert set(D.vertices) == {vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)}


def test_dual_hexagon():
    D = dual(HEXAGON)
    expected = {(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)}
    assert set(D.vertices) == {vec(*p) for p in expected}
    # against the halfplane oracle: dual = {y : <x,y> >= -1 for all vertices x}
    hp = [((-int(v[0] * 1), -int(v[1] * 1)), 1) for v in HEXAGON.vertices]
    assert halfplane_vertices_oracle(hp) == set(D.vertices)


def test_dual_requires_interior_origin():
    P = convex_hull([(0, 1), (1, 0), (1, 1)], 2)
    with pytest.raises(OriginNotInterior):
        dual(P)


def polygon_containing_origin(draw):
    """The hull of the first draw() whose hull has 0 strictly inside."""
    while True:
        try:
            P = convex_hull(draw(), 2)
        except DegenerateInput:
            continue
        if contains(P, (0, 0), strict=True):
            return P


def random_lattice_polygon_containing_origin(rng, span=4):
    return polygon_containing_origin(
        lambda: [(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(8)]
    )


def test_dual_involution_on_1000_random_polygons():
    rng = random.Random(2024)
    for _ in range(1000):
        P = random_lattice_polygon_containing_origin(rng)
        assert dual(dual(P)) == P
    # polygons whose vertices have mixed denominators, against the halfplane
    # oracle: dual = {y : <x,y> >= -1 for all vertices x}
    for _ in range(200):
        P = polygon_containing_origin(lambda: rational_points(rng, 8))
        D = dual(P)
        hp = [((-v[0], -v[1]), 1) for v in P.vertices]
        assert halfplane_vertices_oracle(hp) == set(D.vertices)
        assert dual(D) == P


def test_dual_unimodular_equivariance():
    rng = random.Random(5)
    for _ in range(50):
        P = random_lattice_polygon_containing_origin(rng)
        M = ((1, 2), (1, 3))  # det 1
        Minv_t = ((3, -1), (-2, 1))
        assert dual(transform_polytope(M, P)) == transform_polytope(Minv_t, dual(P))


def test_transform_polytope_against_vertex_map_oracle():
    # map every vertex in Fraction arithmetic, then hull: lattice polygons and
    # polygons with mixed denominators under det +1, det -1 and |det| > 1,
    # and segments
    rng = random.Random(29)
    matrices = (
        ((1, 2), (1, 3)),
        ((0, -1), (1, 0)),
        ((1, 0), (0, -1)),
        ((2, 1), (3, 1)),
        ((2, 1), (1, 3)),
        ((1, 2), (3, 1)),
    )
    for _ in range(150):
        dens = rng.choice(((1,), (1, 2, 3, 5), (1, 2, 7)))
        pts = [
            (F(rng.randint(-9, 9), rng.choice(dens)), F(rng.randint(-9, 9), rng.choice(dens)))
            for _ in range(rng.randint(3, 6))
        ]
        try:
            P = convex_hull(pts, 2)
        except DegenerateInput:
            continue
        for M in matrices:
            image = [tuple(F(a) * v[0] + F(b) * v[1] for a, b in M) for v in P.vertices]
            Q = transform_polytope(M, P)
            assert Q == convex_hull(image, 2)
            assert all(type(c) is F for v in Q.vertices for c in v)
    for _ in range(50):
        a, b = F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4))
        if a == b:
            continue
        for m in (1, -1, 3, -2):
            Q = transform_polytope(((m,),), convex_hull([(a,), (b,)], 1))
            assert Q == convex_hull([(m * a,), (m * b,)], 1)


# -- contains ----------------------------------------------------------------


def test_contains():
    seg = convex_hull([(-1,), (F(1, 2),)], 1)
    assert contains(seg, (0,), strict=True)
    assert not contains(SQUARE, (1, 0), strict=True)
    assert contains(SQUARE, (1, 0), strict=False)
    # (1/2,1/2) sits exactly on the facet x+y=1 of the hexagon
    assert contains(HEXAGON, (F(1, 2), F(1, 2)), strict=False)
    assert not contains(HEXAGON, (F(1, 2), F(1, 2)), strict=True)
    assert contains(HEXAGON, (F(1, 2), F(1, 4)), strict=True)
    # points and polytopes with mixed denominators, against the triangle oracle
    assert contains(seg, (F(1, 3),), strict=True)
    assert not contains(seg, (F(2, 3),))
    rng = random.Random(13)
    for _ in range(30):
        try:
            P = convex_hull(rational_points(rng, 6), 2)
        except DegenerateInput:
            continue
        edges = list(zip(P.vertices, P.vertices[1:] + P.vertices[:1]))
        mids = [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in edges]
        for x in rational_points(rng, 10) + list(P.vertices) + mids:
            inside = point_in_hull_oracle(x, P.vertices)
            boundary = any(on_segment(x, a, b) for a, b in edges)
            assert contains(P, x) == inside
            assert contains(P, x, strict=True) == (inside and not boundary)


# -- lattice_points ----------------------------------------------------------


def test_lattice_points_segment():
    assert lattice_points(convex_hull([(-1,), (1,)], 1)) == [(-1,), (0,), (1,)]
    assert lattice_points(convex_hull([(-1,), (F(1, 2),)], 1)) == [(-1,), (0,)]


def test_lattice_points_triangle_against_scan_oracle():
    P = convex_hull([(1, -1), (1, 1), (-1, 0)], 2)
    got = set(lattice_points(P))
    scan = {
        (x, y)
        for x in range(-2, 3)
        for y in range(-2, 3)
        if contains(P, (x, y))
    }
    assert got == scan == {(1, -1), (1, 0), (1, 1), (0, 0), (-1, 0)}


# -- integrate ---------------------------------------------------------------


def test_integrate_constant_segment():
    P = convex_hull([(-1,), (1,)], 1)
    assert integrate(P, dh(1)) == 2


def test_integrate_segment_against_antiderivative():
    P = convex_hull([(-2,), (1,)], 1)
    f = dh(1, (2, (1,), 2))  # (2+x)^2
    # antiderivative (2+x)^3/3 on [-2, 1]
    assert integrate(P, f) == F(27, 3)


def sympy_rational(c):
    from sympy import Rational

    c = F(c)
    return Rational(c.numerator, c.denominator)


def test_integrate_segment_against_sympy():
    # rational endpoints, rational constants and coefficients, up to degree 6
    from sympy import integrate as sympy_integrate
    from sympy.abc import x

    q = sympy_rational
    rng = random.Random(29)
    for _ in range(40):
        lo = F(rng.randint(-9, 9), rng.randint(1, 5))
        hi = lo + F(rng.randint(1, 9), rng.randint(1, 5))
        factors = [
            (
                F(rng.randint(-5, 5), rng.randint(1, 3)),
                (F(rng.randint(-3, 3), rng.randint(1, 3)),),
                rng.randint(1, 2),
            )
            for _ in range(rng.randint(0, 3))
        ]
        f = dh(F(rng.randint(1, 9), rng.randint(1, 4)), *factors)
        expr = q(f.prefactor)
        for c, (a,), mult in f.factors:
            expr *= (q(c) + q(a) * x) ** mult
        want = sympy_integrate(expr, (x, q(lo), q(hi)))
        assert integrate(convex_hull([(lo,), (hi,)], 1), f) == F(str(want))


def test_integrate_multiplicity_is_repetition():
    segment = convex_hull([(F(-3, 2),), (F(7, 3),)], 1)
    h, g = (F(1, 2), (F(-2, 3),)), (1, (1,))
    assert integrate(segment, dh(F(2, 3), (*h, 2), (*g, 1))) == integrate(
        segment, dh(F(2, 3), (*h, 1), (*g, 1), (*h, 1))
    )
    rng = random.Random(31)
    for _ in range(10):
        P = dual(random_lattice_polygon_containing_origin(rng))
        h, g = (
            (F(rng.randint(1, 9), rng.randint(1, 4)), (rng.randint(-2, 2), rng.randint(-2, 2)))
            for _ in range(2)
        )
        assert integrate(P, dh(F(1, 2), (*h, 2), (*g, 1))) == integrate(
            P, dh(F(1, 2), (*h, 1), (*g, 1), (*h, 1))
        )


def test_integrate_square_separability():
    sq = convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1)], 2)
    f = dh(1, (2, (2, 0), 1))  # 2 + 2x
    # separability: 2*area + 2*int x = 8 + 0
    assert integrate(sq, f) == 8


def test_integrate_triangulation_invariance():
    rng = random.Random(11)
    f = dh(1, (1, (2, -1), 1), (3, (1, 1), 1))
    for _ in range(30):
        P = random_lattice_polygon_containing_origin(rng)
        base = integrate(P, f)
        # rotating the stored vertex list changes the fan apex
        for shift in range(1, len(P.vertices)):
            Q = RationalPolytope(2, P.vertices[shift:] + P.vertices[:shift])
            assert integrate(Q, f) == base


def test_integrate_unimodular_equivariance():
    rng = random.Random(13)
    M = ((2, 1), (1, 1))
    f = dh(1, (2, (1, 1), 1), (1, (0, 1), 1))
    for _ in range(20):
        P = random_lattice_polygon_containing_origin(rng)
        # int over M(P) of f == int over P of f o M
        assert integrate(transform_polytope(M, P), f) == sympy_integral(P, f, M)


def sympy_integral(P, f, M=((1, 0), (0, 1))):
    """The integral of f o M over the polygon P by sympy's polytope_integrate."""
    from sympy import expand
    from sympy.abc import x, y
    from sympy.geometry import Polygon
    from sympy.integrals.intpoly import polytope_integrate

    q = sympy_rational
    X, Y = M[0][0] * x + M[0][1] * y, M[1][0] * x + M[1][1] * y
    expr = q(f.prefactor)
    for c, (a, b), mult in f.factors:
        expr *= (q(c) + q(a) * X + q(b) * Y) ** mult
    # polytope_integrate reads its integrand monomial by monomial, so expand
    # it, and takes the clockwise orientation as positive
    clockwise = Polygon(*reversed(P.vertices))
    return F(str(polytope_integrate(clockwise, expand(expr))))


def test_integrate_against_sympy_polytope_integrate():
    rng = random.Random(19)
    for _ in range(12):
        P = random_lattice_polygon_containing_origin(rng)
        r = rng.randint
        f = dh(
            1,
            (r(-3, 3), (r(-3, 3), F(1, r(1, 3))), 1),
            (F(r(-5, 5), 2), (r(-2, 2), r(-2, 2)), 1),
        )
        assert integrate(P, f) == sympy_integral(P, f)


def test_integrate_densities_on_dual_polygons_against_sympy():
    # the shape the invariants integrate: rational vertices (duals of lattice
    # polygons) and a density of 3 or 4 affine factors with rational
    # constants, alone and with the extra factor x_i as dh_barycenter adds it
    # (sympy takes about half a second per integral, so few cases)
    rng = random.Random(23)
    denominators = set()
    for k, i in ((3, 0), (4, 1), (3, 1), (4, 0)):
        P = dual(random_lattice_polygon_containing_origin(rng))
        denominators |= {c.denominator for v in P.vertices for c in v}
        prefactor, factors = F(1, rng.randint(1, 6)), []
        for _ in range(k):
            const = F(rng.randint(1, 9), rng.randint(1, 4))
            factors.append((const, (rng.randint(-2, 2), rng.randint(-2, 2)), 1))
        for g in (dh(prefactor, *factors), dh(prefactor, *factors, (0, (1 - i, i), 1))):
            assert integrate(P, g) == sympy_integral(P, g)
    assert max(denominators) > 1


# -- snf ---------------------------------------------------------------------


def check_snf(A):
    U, S, V = snf(A)
    assert mat_mul(mat_mul(U, A), V) == S
    m, n = len(A), len(A[0])
    for i in range(m):
        for j in range(n):
            if i != j:
                assert S[i][j] == 0
    diag = [S[i][i] for i in range(min(m, n))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (b % a == 0) if a else (b == 0)
    return diag


def test_snf_identity():
    assert check_snf(((1, 0), (0, 1))) == [1, 1]


def test_snf_diag2():
    assert check_snf(((2, 0), (0, 2))) == [2, 2]


def test_snf_preserves_det():
    diag = check_snf(((2, 4), (6, 8)))
    assert diag == [2, 4]  # elementary row/column reduction oracle
    assert diag[0] * diag[1] == abs(2 * 8 - 4 * 6)


def test_snf_random():
    rng = random.Random(17)
    for _ in range(300):
        m = rng.randint(1, 4)
        n = rng.randint(1, 3)
        A = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m))
        diag = check_snf(A)
        if m == n:
            det = _det(A)
            prod = 1
            for d in diag:
                prod *= d
            assert prod == abs(det)


def test_snf_diagonal_against_sympy():
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form
    from sympy.polys.domains import ZZ

    rng = random.Random(23)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 3)
        A = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m))
        S = smith_normal_form(Matrix(A), domain=ZZ)
        assert check_snf(A) == [abs(int(S[i, i])) for i in range(min(m, n))]


def _det(A):
    n = len(A)
    if n == 1:
        return A[0][0]
    total = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1 :] for row in A[1:])
        total += (-1) ** j * A[0][j] * _det(minor)
    return total


# -- lattice bases and primitivity -------------------------------------------


def test_is_lattice_basis():
    assert is_lattice_basis([(1, 0), (0, 1)])
    assert not is_lattice_basis([(2, 0), (0, 1)])
    assert is_lattice_basis([(1, 1), (1, 2)])
    assert not is_lattice_basis([(1, 0)])
    assert is_lattice_basis([(-1,)])


def test_primitive():
    assert primitive((2, 0)) == (1, 0)
    assert primitive((-4, -6)) == (-2, -3)
    assert primitive((3, 5)) == (3, 5)
    with pytest.raises(ZeroVector):
        primitive((0, 0))


# -- serialization -----------------------------------------------------------


def test_rat_and_vec_roundtrip():
    assert rat_str(F(1, 2)) == "1/2"
    assert rat_str(F(3)) == "3"
    assert vec_str((F(1, 2), F(-2))) == "(1/2,-2)"
    assert parse_vec("(1/2,-2)") == (F(1, 2), F(-2))
