"""Invariants of single embeddings against hand-derived and published values."""

from fractions import Fraction as F

import pytest

from sphfano import invariants
from sphfano.core import check_reflexive
from sphfano.cli import main
from sphfano.geometry import RationalPolytope, convex_hull, mat_identity, transform_polytope
from sphfano.invariants import (
    SEMISTABLE,
    STABLE,
    UNSTABLE,
    RelationRankDeficit,
    all_invariants,
    degree,
    dh_barycenter,
    divisor_basis,
    fano_index,
    k_verdict,
    moment_polytope,
    picard_presentation,
    picard_rank,
)
from sphfano.registry import build, symmetry_group
from sphfano.search import NotReflexive, enumerate_polytopes

H = F(1, 2)


def seg(lo, hi):
    return RationalPolytope(1, ((F(lo),), (F(hi),)))


SQUARE = convex_hull([(1, 0), (0, 1), (-1, 0), (0, -1)], 2)


def test_divisor_basis():
    data = build("SL2sq.diagSL2", {})
    b = divisor_basis(data, seg(-1, H))
    assert [c.label for c in b.colors] == ["clubs"]
    assert b.g_stable == ((-1,),)

    data = build("SL2xGm.horo", {"n": 1, "a1": 1})
    b = divisor_basis(data, seg(-1, 1))
    assert len(b.colors) == 1 and b.g_stable == ((-1,), (1,))

    data = build("toric", {"n": 2})
    b = divisor_basis(data, SQUARE)
    assert b.colors == () and len(b.g_stable) == 4


def test_divisor_basis_requires_reflexive():
    data = build("SL2sq.diagSL2", {})
    with pytest.raises(NotReflexive):
        divisor_basis(data, seg(-1, 1))


@pytest.mark.parametrize(
    "fn",
    [
        picard_presentation,
        picard_rank,
        fano_index,
        moment_polytope,
        degree,
        dh_barycenter,
        k_verdict,
        all_invariants,
    ],
)
def test_other_invariants_require_reflexive(fn):
    with pytest.raises(NotReflexive):
        fn(build("SL2sq.diagSL2", {}), seg(-1, 1))


def test_all_invariants_is_one_pass(monkeypatch):
    calls = {"check_reflexive": 0, "dual": 0, "snf": 0}

    def counted(name):
        original = getattr(invariants, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(invariants, name, counted(name))
    # the plane blown up in two points, a polygon no other test uses
    P = convex_hull([(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)], 2)
    inv = all_invariants(build("toric", {"n": 2}), P)
    assert (inv["pic"], inv["degree"], inv["fano_index"]) == (3, 7, 1)
    assert calls == {"check_reflexive": 1, "dual": 1, "snf": 1}


def test_noether_formula_on_the_toric_surfaces():
    # a smooth toric surface with n rays has K^2 = 12 - n
    data = build("toric", {"n": 2})
    surfaces = [cp.polytope for cp in enumerate_polytopes("toric", {"n": 2})]
    assert len(surfaces) == 5
    for P in surfaces:
        assert degree(data, P) == 12 - len(P.vertices)


def test_picard_rank_examples():
    assert picard_rank(build("SL2sq.diagSL2", {}), seg(-1, H)) == 1  # 3-1-1
    assert picard_rank(build("SL2xGm.horo", {"n": 1, "a1": 1}), seg(-1, 1)) == 2  # 2-1-4
    hexagon = convex_hull([(0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0)], 2)
    assert picard_rank(build("toric", {"n": 2}), hexagon) == 4  # 2-2-5


def test_picard_presentation_is_free():
    pres = picard_presentation(build("SL2sq.NdiagSL2", {}), seg(-1, 1))
    U, S, V = pres.snf_data
    assert S[0][0] == 1 and pres.free_rank == 1


@pytest.mark.parametrize("d2", [0, 2], ids=["rank-deficient", "torsion"])
def test_picard_guard(d2, monkeypatch, capsys):
    # a Smith form of lower rank than the data, or with torsion, stops the
    # invariants; the CLI reports it as an internal assertion (exit 3).  The
    # relation matrix of toric P2 has three rows, one per ray.
    S = ((1, 0), (0, d2), (0, 0))
    monkeypatch.setattr(invariants, "snf", lambda A: (mat_identity(3), S, mat_identity(2)))
    invariants._accepted.cache_clear()
    p2 = convex_hull([(1, 0), (0, 1), (-1, -1)], 2)
    with pytest.raises(RelationRankDeficit) as exc:
        picard_rank(build("toric", {"n": 2}), p2)
    assert "(-1, -1)" in str(exc.value) and f"Smith form {S}" in str(exc.value)
    argv = ["check", "--family", "toric", "--params", "n=2", "--vertices", "(1,0);(0,1);(-1,-1)"]
    assert main(argv) == 3
    assert f"Smith form {S}" in capsys.readouterr().err


def test_fano_index_examples():
    # P3 as the unique embedding of SL2^2/N(diag SL2): anticanonical (2,1)
    # against the relation (2,-1) gives index 4
    assert fano_index(build("SL2sq.NdiagSL2", {}), seg(-1, 1)) == 4
    # toric P2 has index 3
    p2 = convex_hull([(1, 0), (0, 1), (-1, -1)], 2)
    assert fano_index(build("toric", {"n": 2}), p2) == 3
    # P1 x P1 under SL2 has index 2
    assert fano_index(build("SL2.T", {}), seg(-1, 1)) == 2
    # P4 under Sp4: index 5
    assert fano_index(build("Sp4.Nsym", {}), seg(-1, F(2, 3))) == 5


def test_moment_polytope():
    D, kappa = moment_polytope(build("SL2sq.diagSL2", {}), seg(-1, H))
    assert D.vertices == ((F(-2),), (F(1),))
    assert kappa == "alpha1+alpha2"
    D, _ = moment_polytope(build("toric", {"n": 2}), SQUARE)
    assert set(D.vertices) == {(F(1), F(1)), (F(1), F(-1)), (F(-1), F(1)), (F(-1), F(-1))}


def test_degree_examples():
    # 3! * int_{[-2,1]} (2+x)^2 = 6 * 9
    assert degree(build("SL2sq.diagSL2", {}), seg(-1, H)) == 54
    # 3! * int_{[-1,1]} 4(1+x)^2 = 6 * 32/3
    assert degree(build("SL2sq.NdiagSL2", {}), seg(-1, 1)) == 64
    # 4! * int_{[-3/2,1]} (3+2x)^3/3 = 625 (projective four-space)
    assert degree(build("Sp4.Nsym", {}), seg(-1, F(2, 3))) == 625
    hexagon = convex_hull([(0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0)], 2)
    assert degree(build("toric", {"n": 2}), hexagon) == 6
    # the quadric Q4 under SL3 x Gm (published via a Pasquier construction)
    assert degree(build("SL3.horo.B", {"a1": 1, "a2": -1}), seg(-H, H)) == 512


def test_degree_of_products_match_multinomial_formula():
    # P2 x P2 under SL3 x SL2 through the parabolic induction family
    assert degree(build("SL3xSL2.QxNT", {}), seg(-1, 2)) == 486
    # P1 x Q3 under SL2^3
    assert degree(build("SL2cube.BdiagSL2", {}), seg(-1, H)) == 432
    # (P1)^4 under SL2^3
    assert degree(build("SL2cube.BBxT", {}), seg(-1, 1)) == 384
    # (P1)^2 x P2 under SL2^3
    assert degree(build("SL2cube.BBxNT", {}), seg(-1, 2)) == 432


def test_dh_barycenter_against_antiderivatives():
    # 2-1-4: int_{-1}^{1} x(2+x) dx = 2/3
    data = build("SL2xGm.horo", {"n": 1, "a1": 1})
    assert dh_barycenter(data, seg(-1, 1)) == (F(2, 3),)
    # 2-1-5: int over the dual [-2,1] of x(2+x) dx = 0
    assert dh_barycenter(data, seg(-1, H)) == (F(0),)
    # 3-2-1: square polytope, f = 2+2x1: separability gives (8/3, 0)
    data = build("SL2xGm.T", {"a1": 0})
    assert dh_barycenter(data, SQUARE) == (F(8, 3), F(0))


def test_k_verdict_cases():
    # single root, positive multiple: stable (P1 x P1 under SL2)
    data = build("SL2.T", {})
    v = k_verdict(data, seg(-1, 1))
    assert v.value == STABLE and v.barycenter == (F(4, 3),)
    # no roots, nonzero barycenter: unstable (2-1-4)
    data = build("SL2xGm.horo", {"n": 1, "a1": 1})
    assert k_verdict(data, seg(-1, 1)).value == UNSTABLE
    # no roots, zero barycenter: stable (2-1-5)
    assert k_verdict(data, seg(-1, H)).value == STABLE
    # one root in rank two (3-2-1)
    data = build("SL2xGm.T", {"a1": 0})
    assert k_verdict(data, SQUARE).value == STABLE
    # two roots (4-2-24, the product embedding of (P1 x P1)^2)
    data = build("SL2sq.TxT", {})
    assert k_verdict(data, SQUARE).value == STABLE
    # P4 under Sp4 x Gm via the unique colored embedding is stable
    data = build("Sp4.Nsym", {})
    assert k_verdict(data, seg(-1, F(2, 3))).value == STABLE


def test_k_verdict_boundary_is_semistable_not_stable():
    # synthetic: single root with barycenter exactly zero
    from sphfano.core import CombinatorialData, Color, dh

    data = CombinatorialData(
        rank=1,
        dim=2,
        sigma=((1,),),
        colors=(Color("clubs", (1,), 1, frozenset({"a1"})), Color("hearts", (1,), 1, frozenset({"a1"}))),
        f=dh(1, (1, (0,), 1)),  # constant density
        kappa_expr="alpha1",
        m_basis=("alpha1",),
        group_name="synthetic",
        space_type="symmetric",
    )
    P = seg(-1, 1)
    assert check_reflexive(data, P).ok
    assert k_verdict(data, P).value == SEMISTABLE


def test_invariants_symmetry_invariance():
    for fid, params in (
        ("SL2sq.diagB", {}),
        ("SL2sq.GL2", {}),
        ("SL2xGm.T", {"a1": 2}),
    ):
        data = build(fid, params)
        group = symmetry_group(fid, params)
        for cp in enumerate_polytopes(fid, params):
            P = cp.polytope
            base = (picard_rank(data, P), degree(data, P), k_verdict(data, P).value)
            for M in group.matrices:
                Q = transform_polytope(M, P)
                datq = _moved(data, M)
                got = (picard_rank(datq, Q), degree(datq, Q), k_verdict(datq, Q).value)
                assert got == base


def _moved(data, M):
    from sphfano.core import Color, CombinatorialData
    from sphfano.geometry import unimodular_inverse

    Minv = unimodular_inverse(M)
    mt = tuple(tuple(Minv[j][i] for j in range(len(Minv))) for i in range(len(Minv)))

    def apply(mat, v):
        return tuple(sum(mat[i][j] * v[j] for j in range(len(v))) for i in range(len(mat)))

    return CombinatorialData(
        data.rank,
        data.dim,
        tuple(apply(mt, s) for s in data.sigma),
        tuple(Color(c.label, apply(M, c.rho), c.m, c.zeta) for c in data.colors),
        data.f,
        data.kappa_expr,
        data.m_basis,
        data.group_name,
        data.space_type,
    )


def test_whole_catalog_rows_3_1_x():
    """Every dim-3 rank-1 row recomputed from its family directly."""
    rows = {
        ("SL2sq.diagSL2", (), (-1, H)): (1, 54, True),
        ("SL2sq.NdiagSL2", (), (-1, 1)): (1, 64, True),
        ("SL2sq.horo1", (0, 0), (-1, 1)): (3, 48, True),
        ("SL2sq.horo1", (1, 0), (-1, 1)): (3, 48, False),
        ("SL2sq.horo1", (1, 0), (-1, H)): (2, 54, True),
        ("SL2sq.horo1", (1, 1), (-1, 1)): (3, 52, False),
        ("SL2sq.horo1", (1, -1), (-1, 1)): (3, 44, True),
        ("SL2sq.horo1", (1, -1), (-1, H)): (2, 54, False),
        ("SL2sq.horo1", (1, -1), (-H, H)): (1, 64, True),
        ("SL3.horo.Q", (0,), (-1, 1)): (2, 54, True),
        ("SL3.horo.Q", (1,), (-1, 1)): (2, 56, False),
        ("SL3.horo.Q", (2,), (-1, 1)): (2, 62, False),
        ("SL3.horo.Q", (1,), (-1, F(1, 3))): (1, 64, True),
    }
    for (fid, pvals, (lo, hi)), (pic, deg, ke) in rows.items():
        if fid == "SL2sq.horo1":
            params = {"a1": pvals[0], "a2": pvals[1]}
        elif fid == "SL3.horo.Q":
            params = {"a1": pvals[0]}
        else:
            params = {}
        data = build(fid, params)
        P = seg(lo, hi)
        assert picard_rank(data, P) == pic
        assert degree(data, P) == deg
        assert (k_verdict(data, P).value == STABLE) == ke
