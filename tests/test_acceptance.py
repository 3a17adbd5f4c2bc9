"""Acceptance criteria: the published classification, reproduced exactly.

One test per criterion; each prints a single PASS line when it holds.
Tolerances are exact everywhere (all arithmetic is rational).
"""

import random
import time

from fractions import Fraction as F

from sphfano.catalog import (
    bundled_expected,
    build_catalog,
    counts_table,
    load_expected_csv,
    verify,
)
from sphfano.core import check_reflexive
from sphfano.geometry import DegenerateInput, contains, convex_hull, dual, snf, mat_mul
from sphfano.invariants import degree, k_verdict, picard_presentation, picard_rank
from sphfano.registry import build, symmetry_group
from sphfano.search import EnumConfig, brute_force_oracle, canonical_form, enumerate_polytopes, enumerate_rank2
from sphfano.geometry import transform_polytope, unimodular_inverse
from sphfano.core import Color, CombinatorialData


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_criterion_1_global_counts(full_build):
    full_catalog, _, build_seconds = full_build
    grid, total = counts_table(full_catalog)
    expected = {
        0: [1, 2, 6, 9],
        1: [1, 5, 13, 57],
        2: [0, 5, 44, 194],
    }
    ok = total == 337 and all(
        [grid[(rank, dim)] for dim in (1, 2, 3, 4)] == row for rank, row in expected.items()
    )
    colsums = [sum(grid[(r, d)] for r in (0, 1, 2)) for d in (1, 2, 3, 4)]
    ok = ok and colsums == [2, 12, 63, 260] and build_seconds < 300
    _report(
        "1 global counts",
        ok,
        f"total={total} colsums={colsums} single-threaded build {build_seconds:.0f}s",
    )


def test_criterion_1_parallel_build_matches():
    from sphfano.catalog import emit

    serial = build_catalog(dims=[3], ranks=[0, 1, 2])
    parallel = build_catalog(dims=[3], ranks=[0, 1, 2], jobs=4)
    _report("1b parallel build agreement", emit(serial, "csv") == emit(parallel, "csv"))


def test_criterion_2_dim2_table(full_catalog):
    expected = load_expected_csv(bundled_expected("expected_dim2.csv"))
    problems = verify(full_catalog, expected)
    by_id = {r.identifier: r for r in full_catalog.records}
    spot = (
        by_id["2-1-2"].pic == 1
        and by_id["2-1-2"].degree == 9
        and by_id["2-1-2"].ke
        and by_id["2-1-4"].pic == 2
        and by_id["2-1-4"].degree == 8
        and not by_id["2-1-4"].ke
    )
    _report("2 dim-2 table", not problems and spot, f"{len(expected)} rows, {problems}")


def test_criterion_3_dim3_table(full_catalog):
    expected = load_expected_csv(bundled_expected("expected_dim3.csv"))
    problems = verify(full_catalog, expected)
    by_id = {r.identifier: r for r in full_catalog.records}
    spot = (
        (by_id["3-1-1"].pic, by_id["3-1-1"].degree, by_id["3-1-1"].ke) == (1, 54, True)
        and (by_id["3-2-17"].pic, by_id["3-2-17"].degree, by_id["3-2-17"].ke) == (3, 40, False)
        and (by_id["3-2-44"].pic, by_id["3-2-44"].degree, by_id["3-2-44"].ke) == (1, 64, True)
    )
    _report("3 dim-3 table", len(expected) == 57 and not problems and spot, str(problems))


def test_criterion_4_dim4_aggregates(full_catalog):
    recs = [r for r in full_catalog.records if r.dim == 4 and r.rank in (1, 2)]
    rank1 = sum(1 for r in recs if r.rank == 1)
    rank2 = sum(1 for r in recs if r.rank == 2)
    stable = sum(1 for r in recs if r.ke)
    non_stable = sum(1 for r in recs if not r.ke)
    pairs = len({(r.pic, r.degree) for r in recs})
    ok = rank1 == 57 and rank2 == 194 and stable >= 24 and non_stable >= 93
    _report(
        "4 dim-4 aggregates",
        ok,
        f"rank1={rank1} rank2={rank2} KE={stable} nonKE={non_stable} "
        f"(distinct (pic,degree) pairs: {pairs}, reported only)",
    )


def test_criterion_5_per_section_counts():
    checks = [
        ("toric surfaces", len(enumerate_polytopes("toric", {"n": 2})), 5),
        (
            "SL2xGm horospherical a1=1 interior+vertex",
            len(enumerate_polytopes("SL2xGm.horo", {"n": 2, "a1": 1})),
            16,
        ),
        ("GL2 compactification", len(enumerate_polytopes("SL2sq.GL2", {})), 8),
        ("diagonal Borel", len(enumerate_polytopes("SL2sq.diagB", {})), 3),
        ("normalized diagonal Borel", len(enumerate_polytopes("SL2sq.NdiagB", {})), 2),
        (
            "type-T products",
            sum(len(enumerate_polytopes("SL2sq.PI-T", {"a1": a, "a2": 0})) for a in (0, 1, 2)),
            14,
        ),
    ]
    # the 16 above splits as 9 with the color interior and 7 with it a vertex
    vertex_count = sum(
        1
        for cp in enumerate_polytopes("SL2xGm.horo", {"n": 2, "a1": 1})
        if (F(1, 2), F(0)) in cp.polytope.vertices
    )
    split_ok = vertex_count == 7
    ok = all(got == want for _, got, want in checks) and split_ok
    detail = ", ".join(f"{name}={got}/{want}" for name, got, want in checks)
    _report("5 per-section counts", ok, detail + f", color-vertex split 9+{vertex_count}")


def test_criterion_6_degree_spot_checks():
    from sphfano.invariants import fano_index
    from sphfano.geometry import RationalPolytope

    sp4 = build("Sp4.Nsym", {})
    cps = enumerate_polytopes("Sp4.Nsym", {})
    ok = len(cps) == 1
    P = cps[0].polytope
    ok = ok and degree(sp4, P) == 625 and fano_index(sp4, P) == 5

    ndiag = build("SL2sq.NdiagSL2", {})
    cps2 = enumerate_polytopes("SL2sq.NdiagSL2", {})
    ok = ok and len(cps2) == 1
    Q = cps2[0].polytope
    ok = ok and degree(ndiag, Q) == 64 and fano_index(ndiag, Q) == 4
    _report("6 degree spot checks", ok, "P4: 625/5, P3: 64/4")


def test_criterion_7_property_suites(full_catalog):
    t0 = time.time()
    # (a) dual involution on 1000 random polygons containing the origin
    rng = random.Random(20240809)
    n_done = 0
    while n_done < 1000:
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(8)]
        try:
            P = convex_hull(pts, 2)
        except DegenerateInput:
            continue
        if not contains(P, (0, 0), strict=True):
            continue
        assert dual(dual(P)) == P
        n_done += 1

    # (b,c) degree integrality/positivity and unit invariant factors across
    # the whole catalog (degree > 0 integral was already asserted at build
    # time; recompute the Smith normal form to check freeness directly)
    free = True
    for r in full_catalog.records:
        if r.rank == 0:
            continue
        assert isinstance(r.degree, int) and r.degree > 0
        assert r.pic >= 1 and (r.fano_index is None or r.fano_index >= 1)
        data = build(r.family, r.params_dict())
        from sphfano.geometry import RationalPolytope

        P = (
            RationalPolytope(1, r.vertices)
            if r.rank == 1
            else RationalPolytope(2, r.vertices)
        )
        pres = picard_presentation(data, P)
        U, S, V = pres.snf_data
        free = free and all(S[i][i] == 1 for i in range(r.rank))
        A = pres.relation_matrix
        assert mat_mul(mat_mul(U, A), V) == S

    # (d) walk vs subset-oracle agreement on four designated families
    agree = True
    for fid, params, cfg in (
        ("toric", {"n": 2}, EnumConfig(2, 7)),
        ("SL2sq.TxT", {}, EnumConfig(3, 6)),
        ("SL2sq.diagB", {}, EnumConfig(3, 6)),
        ("SL2xGm.T", {"a1": 1}, EnumConfig(3, 7)),
    ):
        data = build(fid, params)
        group = symmetry_group(fid, params)
        walk = [c.polytope.vertices for c in enumerate_rank2(data, cfg, group=group)]
        oracle = [c.polytope.vertices for c in brute_force_oracle(data, cfg, group=group)]
        agree = agree and walk == oracle

    # (e) box-doubling stability on five families
    stable = True
    for fid, params in (
        ("SL2xGm.T", {"a1": 1}),
        ("SL2xGm.N.diag", {}),
        ("SL2sq.diagB", {}),
        ("SL2sq.PI-N.diag", {"a2": 1}),
        ("SL2sq.TxT", {}),
    ):
        a = [c.polytope.vertices for c in enumerate_polytopes(fid, params, cfg=EnumConfig(5, 8))]
        b = [c.polytope.vertices for c in enumerate_polytopes(fid, params, cfg=EnumConfig(10, 8))]
        stable = stable and a == b

    # (f) symmetry invariance of (pic, degree, verdict) for every record
    invariant = True
    for r in full_catalog.records:
        if r.rank == 0:
            continue
        data = build(r.family, r.params_dict())
        group = symmetry_group(r.family, r.params_dict())
        from sphfano.geometry import RationalPolytope

        P = RationalPolytope(r.rank, r.vertices)
        gens = list(group.matrices)
        if group.kind == "ShearClass":
            gens = [((1, 1), (0, 1)), ((1, -1), (0, -1))]
        elif group.kind == "FullUnimodular":
            gens = [((0, 1), (1, 0)), ((1, 1), (0, 1))]
        for M in gens:
            moved_data = _moved(data, M)
            Q = transform_polytope(M, P)
            same = (
                picard_rank(moved_data, Q) == r.pic
                and degree(moved_data, Q) == r.degree
                and (k_verdict(moved_data, Q).value == "Stable") == r.ke
            )
            invariant = invariant and same

    elapsed = time.time() - t0
    ok = free and agree and stable and invariant and elapsed < 600
    _report(
        "7 property suites",
        ok,
        f"dual-involution=1000, freeness={free}, oracle={agree}, "
        f"box-doubling={stable}, symmetry={invariant}, {elapsed:.0f}s",
    )


def _moved(data, M):
    if data.rank == 1:
        Minv = ((M[0][0],),)
    else:
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
