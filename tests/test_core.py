"""The combinatorial-data model and the four-condition polytope checker."""

import importlib.util
import itertools
import json
import random
from collections import Counter
from fractions import Fraction as F
from functools import reduce
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sphfano.core import (
    BOUNDARY,
    INTERIOR,
    OUTSIDE,
    Color,
    CombinatorialData,
    RankMismatch,
    check_reflexive,
    cone_over_face_meets_interior,
    dh,
    edge_violation,
    facet_violation,
    scale_to_ints,
    valuation_cone_position,
)
from sphfano.geometry import (
    DegenerateInput,
    RationalPolytope,
    contains,
    convex_hull,
    det2,
    lattice_points,
    mat_identity,
    mat_mul,
    transform_polytope,
)
from sphfano.registry import FINITE, FULL_UNIMODULAR, SHEAR, build, families, symmetry_group
from test_acceptance import _moved


def seg(lo, hi):
    return RationalPolytope(1, ((F(lo),), (F(hi),)))


# -- valuation cone ------------------------------------------------------------


def test_valuation_positions():
    data = build("SL2xGm.T", {"a1": 0})  # sigma = {(1,0)}
    assert valuation_cone_position(data, (-1, 5)) == INTERIOR
    assert valuation_cone_position(data, (0, 3)) == BOUNDARY
    assert valuation_cone_position(data, (1, 0)) == OUTSIDE

    horo = build("SL2xGm.horo", {"n": 2, "a1": 1})  # sigma empty
    assert valuation_cone_position(horo, (7, -2)) == INTERIOR

    diagb = build("SL2sq.NdiagB", {})  # sigma = {(1,0),(0,1)}
    assert valuation_cone_position(diagb, (0, -1)) == BOUNDARY
    with pytest.raises(RankMismatch):
        valuation_cone_position(diagb, (1,))


def test_color_points():
    assert build("SL2sq.diagSL2", {}).color_points() == [(F(1, 2),)]
    assert build("Sp4.Nsym", {}).color_points() == [(F(2, 3),)]
    assert build("toric", {"n": 2}).color_points() == []


def test_cone_over_face():
    data = build("SL2sq.TxT", {})  # V = third quadrant
    # edge between the two negative generators passes through Int V
    assert cone_over_face_meets_interior(data, ((F(-1), F(0)), (F(0), F(-1))))
    # edge in the closed first quadrant does not
    assert not cone_over_face_meets_interior(data, ((F(1), F(0)), (F(0), F(1))))
    # endpoints outside the open cone but the segment dips into it
    assert cone_over_face_meets_interior(data, ((F(-2), F(1)), (F(1), F(-2))))
    # degenerate: the segment through the origin only spans the line x+y=0
    assert not cone_over_face_meets_interior(data, ((F(-1), F(1)), (F(1), F(-1))))


# -- checker -------------------------------------------------------------------


def test_check_diag_sl2():
    data = build("SL2sq.diagSL2", {})
    assert check_reflexive(data, seg(-1, F(1, 2))).ok
    v = check_reflexive(data, seg(-1, 1))
    assert not v.ok and v.violations[0][0] == "C3"


def test_check_horospherical_a2_rejected():
    # rank-one horospherical with a = 2: the color point rho/m = 1 can only be
    # the vertex, but rho = 2 is not primitive, failing the basis condition
    data = CombinatorialData(
        rank=1,
        dim=2,
        sigma=(),
        colors=(Color("clubs", (2,), 2, frozenset({"a1"})),),
        f=dh(1, (2, (2,), 1)),
        kappa_expr="alpha1",
        m_basis=("2w1+x1",),
        group_name="SL2xGm",
        space_type="horospherical",
    )
    v = check_reflexive(data, seg(-1, 1))
    assert not v.ok
    assert any(cond == "C4b" for cond, _ in v.violations)
    # and no other endpoint works either
    assert not check_reflexive(data, seg(-1, 2)).ok


def test_check_toric_square():
    data = build("toric", {"n": 2})
    P = convex_hull([(1, 0), (0, 1), (-1, 0), (0, -1)], 2)
    assert check_reflexive(data, P).ok


def test_check_rank_mismatch():
    with pytest.raises(RankMismatch):
        check_reflexive(build("toric", {"n": 2}), seg(-1, 1))


def test_check_c1_c2():
    data = build("SL2sq.diagSL2", {})
    v = check_reflexive(data, seg(F(1, 4), F(1, 2)))
    assert not v.ok
    assert any(c == "C1" for c, _ in v.violations)
    v = check_reflexive(data, seg(-1, F(1, 4)))
    assert any(c == "C2" for c, _ in v.violations)


# -- toric case equals smooth Fano polygons -------------------------------------


def is_smooth_fano_polygon(P):
    """Direct definition: integral vertices, 0 interior, each facet a basis."""
    if any(c.denominator != 1 for v in P.vertices for c in v):
        return False
    if not contains(P, (0, 0), strict=True):
        return False
    k = len(P.vertices)
    for i in range(k):
        a, b = P.vertices[i], P.vertices[(i + 1) % k]
        if det2((int(a[0]), int(a[1])), (int(b[0]), int(b[1]))) not in (1, -1):
            return False
    return True


def test_toric_checker_is_smooth_fano_definition():
    data = build("toric", {"n": 2})
    rng = random.Random(99)
    seen_ok = 0
    for _ in range(400):
        pts = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(6)]
        try:
            P = convex_hull(pts, 2)
        except DegenerateInput:
            continue
        expected = is_smooth_fano_polygon(P)
        assert check_reflexive(data, P).ok == expected
        seen_ok += expected
    assert seen_ok > 0


def test_type_t_a0_characterization():
    """For SL2 x Gm, a1 = 0: accepted iff smooth Fano polygon with (1,0) a
    vertex, the rest in {y1 <= 0}, and facets through (1,0) inside {y1 >= 0}."""
    data = build("SL2xGm.T", {"a1": 0})
    rng = random.Random(5)
    agree_accept = 0
    for _ in range(600):
        pts = [(1, 0)] + [(rng.randint(-2, 0), rng.randint(-2, 2)) for _ in range(5)]
        try:
            P = convex_hull(pts, 2)
        except DegenerateInput:
            continue
        expected = is_smooth_fano_polygon(P)
        if expected:
            vs = list(P.vertices)
            if (F(1), F(0)) not in vs:
                expected = False
            else:
                if any(v != (F(1), F(0)) and v[0] > 0 for v in vs):
                    expected = False
                k = len(vs)
                for i in range(k):
                    a, b = vs[i], vs[(i + 1) % k]
                    if (F(1), F(0)) in (a, b) and (a[0] < 0 or b[0] < 0):
                        expected = False
        got = check_reflexive(data, P).ok
        assert got == expected, (P.vertices, got, expected)
        agree_accept += got
    assert agree_accept > 0


def test_n_product_primitive_multiple_basis():
    """Accepted N-product polytopes: primitive multiples of each facet's
    vertices form a lattice basis."""
    from sphfano.geometry import rational_primitive, is_lattice_basis
    from sphfano.search import enumerate_polytopes

    cps = enumerate_polytopes("SL2xGm.N.product", {})
    assert cps
    for cp in cps:
        P = cp.polytope
        k = len(P.vertices)
        for i in range(k):
            a, b = P.vertices[i], P.vertices[(i + 1) % k]
            assert is_lattice_basis([rational_primitive(a), rational_primitive(b)])


def test_horospherical_lattice_points_are_vertices_or_origin():
    from sphfano.search import enumerate_polytopes

    for fid, params in (
        ("SL2xGm.horo", {"n": 2, "a1": 1}),
        ("SL2sq.horo2", {"a1": 1, "a2": 0, "b2": 1}),
    ):
        for cp in enumerate_polytopes(fid, params):
            P = cp.polytope
            verts = set(P.vertices)
            for pt in lattice_points(P):
                q = (F(pt[0]), F(pt[1]))
                assert q == (F(0), F(0)) or q in verts


def _transform_data(data, M, Minv_t):
    sigma = tuple(
        (
            Minv_t[0][0] * s[0] + Minv_t[0][1] * s[1],
            Minv_t[1][0] * s[0] + Minv_t[1][1] * s[1],
        )
        for s in data.sigma
    )
    colors = tuple(
        Color(
            c.label,
            (
                M[0][0] * c.rho[0] + M[0][1] * c.rho[1],
                M[1][0] * c.rho[0] + M[1][1] * c.rho[1],
            ),
            c.m,
            c.zeta,
        )
        for c in data.colors
    )
    return CombinatorialData(
        data.rank, data.dim, sigma, colors, data.f, data.kappa_expr,
        data.m_basis, data.group_name, data.space_type,
    )


def test_checker_unimodular_invariance():
    M = ((1, 1), (2, 3))  # det 1
    Minv_t = ((3, -2), (-1, 1))
    for fid, params, verts in (
        ("SL2sq.diagB", {}, [(0, -1), (1, 0), (0, 1), (-1, 1)]),
        ("SL2sq.GL2", {}, [(F(1, 2), F(1, 2)), (-1, 0), (1, -1)]),
        ("toric", {"n": 2}, [(1, 0), (0, 1), (-1, -1)]),
    ):
        data = build(fid, params)
        P = convex_hull(verts, 2)
        assert check_reflexive(data, P).ok
        assert check_reflexive(_transform_data(data, M, Minv_t), transform_polytope(M, P)).ok
        # and a rejected polytope stays rejected
        bad = convex_hull([(1, 0), (0, 1), (-2, -1)], 2)
        assert (
            check_reflexive(data, bad).ok
            == check_reflexive(_transform_data(data, M, Minv_t), transform_polytope(M, bad)).ok
        )


# published rank-2 polygons, each accepted for its family instance
PUBLISHED_RANK2 = [
    (e["family"], e["params"], [tuple(F(c) for c in v) for v in e["vertices"]])
    for e in json.loads(
        resources.files("sphfano").joinpath("data/identifier_map.json").read_text()
    )
    if len(e["vertices"][0]) == 2
]

# GL2(Z) is generated by the quarter turn, the unit shear and a mirror
_GENERATORS = (((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 0), (0, -1)))
unimodular = st.lists(st.sampled_from(_GENERATORS), max_size=8).map(
    lambda gens: reduce(mat_mul, gens, mat_identity(2))
)


@st.composite
def instance_and_polygon(draw):
    """A published polygon of a rank-2 instance, hulled with up to two extra
    small points, so that the draws mix accepted polygons and near misses."""
    fid, params, verts = draw(st.sampled_from(PUBLISHED_RANK2))
    extra = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=2))
    return fid, params, convex_hull(verts + extra, 2)


def group_element(group):
    if group.kind == FULL_UNIMODULAR:
        return unimodular
    if group.kind == SHEAR:
        signs = (1, -1) if group.reflection else (1,)
        return st.builds(lambda k, s: ((1, k), (0, s)), st.integers(-3, 3), st.sampled_from(signs))
    if group.kind == FINITE:
        return st.sampled_from(group.matrices)
    return st.just(mat_identity(2))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(instance_and_polygon(), unimodular, st.data())
def test_checker_is_gl2z_equivariant(instance, M, draw):
    fid, params, P = instance
    data = build(fid, params)
    ok = check_reflexive(data, P).ok
    # moving the data and the polygon together keeps the verdict
    assert check_reflexive(_moved(data, M), transform_polytope(M, P)).ok == ok
    # an element of the family's group moves the polygon alone
    g = draw.draw(group_element(symmetry_group(fid, params)))
    assert check_reflexive(data, transform_polytope(g, P)).ok == ok


def test_checker_reproduces_recorded_verdicts():
    # seeded polytopes over all 90 instances (tools/record_check_verdicts.py),
    # recorded with the rational checker: verdicts and violation texts
    recorded = json.loads((Path(__file__).parent / "data" / "check_verdicts.json").read_text())
    assert len(recorded) == 360
    for e in recorded:
        vertices = tuple(tuple(F(c) for c in v) for v in e["vertices"])
        v = check_reflexive(build(e["family"], e["params"]), RationalPolytope(len(vertices[0]), vertices))
        assert (v.ok, [list(x) for x in v.violations]) == (e["ok"], e["violations"]), e


def test_check_verdicts_are_fresh():
    # the recorder's draws (hulls and group-moved copies) still reproduce the
    # shipped file byte for byte; nothing is written
    path = Path(__file__).parents[1] / "tools" / "record_check_verdicts.py"
    spec = importlib.util.spec_from_file_location("record_check_verdicts", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    recorded = (Path(__file__).parent / "data" / "check_verdicts.json").read_text()
    assert tool.check_verdicts_text() == recorded


def _kernel_results(data, ints, colors, S, k):
    P = [tuple(k * c for c in p) for p in ints]
    C = [tuple(k * c for c in q) for q in colors]
    if data.rank == 1:
        return [facet_violation(data, (p,), C, k * S) for p in P]
    return [edge_violation(data, p, q, C, k * S) for p in P for q in P if p[0] * q[1] > p[1] * q[0]]


def test_kernel_is_scale_invariant():
    # the integer kernel on the nonzero points of a small box and the color
    # points, scaled by S, 2S and 3S, over every instance: the walk's pair
    # test (rank 2) or the facet test (rank 1) gives identical results, and
    # the cone test agrees on rationals and on scaled integers
    seen = Counter()
    for spec in families(rank_filter=[1, 2]):
        for params in spec.params_list():
            data = build(spec.id, params)
            box = {tuple(map(F, p)) for p in itertools.product(range(-2, 3), repeat=data.rank) if any(p)}
            pts = sorted(box | {q for q in data.color_points() if any(q)})
            S, ints, colors = scale_to_ints(data, pts)
            results = [_kernel_results(data, ints, colors, S, k) for k in (1, 2, 3)]
            assert results[0] == results[1] == results[2], (spec.id, params)
            seen.update(r and r[0] for r in results[0])
            for face in itertools.permutations(range(len(pts)), data.rank):
                assert cone_over_face_meets_interior(
                    data, [pts[i] for i in face]
                ) == cone_over_face_meets_interior(data, [ints[i] for i in face])
    # every outcome of the kernel occurs
    assert set(seen) == {None, "C2", "C4a", "C4b"}


def test_json_roundtrip():
    data = build("SL2sq.PI-T", {"a1": 1, "a2": 1})
    again = CombinatorialData.from_json(data.to_json())
    assert again == data
