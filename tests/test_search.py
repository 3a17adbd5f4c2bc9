"""Enumeration: published per-family counts, canonical forms, oracle agreement."""

import dataclasses
import gc
import itertools
from fractions import Fraction as F

import pytest

import sphfano.search as search
from sphfano.cli import main
from sphfano.core import check_reflexive, edge_violation, scale_to_ints
from sphfano.geometry import RationalPolytope, convex_hull, transform_polytope
from sphfano.registry import (
    FINITE,
    FULL_UNIMODULAR,
    SHEAR,
    TRIVIAL,
    SymmetryGroup,
    build,
    families,
    symmetry_group,
)
from sphfano.search import (
    BoundTooTight,
    CanonicalFormError,
    EnumConfig,
    InvalidConfig,
    NotReflexive,
    PairTestMismatch,
    brute_force_oracle,
    canonical_form,
    enumerate_polytopes,
    enumerate_rank1,
    enumerate_rank2,
)

H = F(1, 2)

RANK2 = [(spec.id, params) for spec in families(rank_filter=[2]) for params in spec.params_list()]


def classes(fid, params, cfg=None):
    return enumerate_polytopes(fid, params, cfg=cfg)


def vertex_sets(cps):
    return [cp.polytope.vertices for cp in cps]


# -- quoted per-family counts ---------------------------------------------------


def test_rank1_counts():
    assert vertex_sets(classes("SL2sq.diagSL2", {})) == [((F(-1),), (H,))]
    assert vertex_sets(classes("SL2sq.NdiagSL2", {})) == [((F(-1),), (F(1),))]
    assert len(classes("SL2xGm.horo", {"n": 1, "a1": 1})) == 2
    assert len(classes("SL2sq.horo1", {"a1": 1, "a2": -1})) == 3
    assert len(classes("Sp4.horo.short", {"a1": 1})) == 2
    assert vertex_sets(classes("Sp4.Nsym", {})) == [((F(-1),), (F(2, 3),))]
    assert classes("SL3.Nhorosym", {}) == []


@pytest.mark.parametrize(
    "fid,params,count",
    [
        ("toric", {"n": 2}, 5),
        ("SL2xGm.T", {"a1": 0}, 3),
        ("SL2xGm.T", {"a1": 1}, 8),
        ("SL2xGm.T", {"a1": 2}, 3),
        ("SL2xGm.N.product", {}, 3),
        ("SL2xGm.N.diag", {}, 6),
        ("SL2xGm.horo", {"n": 2, "a1": 0}, 5),
        ("SL2xGm.horo", {"n": 2, "a1": 1}, 16),
        ("SL2sqxGm.diagSL2", {}, 7),
        ("SL2sqxGm.NdiagSL2", {}, 3),
        ("SL2sq.GL2", {}, 8),
        ("SL2sq.diagB", {}, 3),
        ("SL2sq.NdiagB", {}, 2),
        ("SL2sq.TxT", {}, 2),
        ("SL2sq.NTxT", {}, 2),
        ("SL2sq.NTxNT", {}, 2),
        ("SL2sq.diagNT", {}, 2),
        ("SL2sq.PI-T", {"a1": 0, "a2": 0}, 3),
        ("SL2sq.PI-T", {"a1": 1, "a2": 0}, 8),
        ("SL2sq.PI-T", {"a1": 2, "a2": 0}, 3),
        ("SL2sq.PI-T", {"a1": 0, "a2": 1}, 8),
        ("SL2sq.PI-T", {"a1": 1, "a2": 1}, 7),
        ("SL2sq.PI-T", {"a1": 2, "a2": 1}, 2),
        ("SL2sq.PI-N.product", {"a2": 0}, 3),
        ("SL2sq.PI-N.product", {"a2": 1}, 8),
        ("SL2sq.PI-N.diag", {"a2": 0}, 6),
        ("SL2sq.PI-N.diag", {"a2": 1}, 11),
        ("SL2sq.horo2", {"a1": 0, "a2": 0, "b2": 0}, 5),
        ("SL2sq.horo2", {"a1": 1, "a2": 0, "b2": 0}, 16),
        ("SL2sq.horo2", {"a1": 1, "a2": 0, "b2": 1}, 39),
        ("SL2sq.horo2", {"a1": 1, "a2": 1, "b2": 2}, 3),
        ("SL2sq.horo2", {"a1": 1, "a2": 1, "b2": 3}, 0),
        ("SL2sq.horo2", {"a1": 1, "a2": 2, "b2": 3}, 1),
        ("SL3.horo2", {"a1": 0}, 5),
        ("SL3.horo2", {"a1": 1}, 26),
        ("SL3.horo2", {"a1": 2}, 9),
    ],
)
def test_rank2_counts(fid, params, count):
    assert len(classes(fid, params)) == count


def test_type_t_products_count_14():
    total = sum(len(classes("SL2sq.PI-T", {"a1": a, "a2": 0})) for a in (0, 1, 2))
    assert total == 14


def test_pi_n_products_count_9():
    total = len(classes("SL2sq.PI-N.product", {"a2": 0})) + len(
        classes("SL2sq.PI-N.diag", {"a2": 0})
    )
    assert total == 9


def test_horo2_products_count_21():
    total = len(classes("SL2sq.horo2", {"a1": 0, "a2": 0, "b2": 0})) + len(
        classes("SL2sq.horo2", {"a1": 1, "a2": 0, "b2": 0})
    )
    assert total == 21


# -- canonical forms -------------------------------------------------------------


def test_canonical_full_unimodular_square():
    data = build("toric", {"n": 2})
    group = symmetry_group("toric", {"n": 2})
    P = convex_hull([(1, 0), (0, 1), (-1, 0), (0, -1)], 2)
    M = ((2, 1), (1, 1))
    cp1 = canonical_form(data, P, group=group)
    cp2 = canonical_form(data, transform_polytope(M, P), group=group)
    assert cp1.polytope == cp2.polytope
    # the dihedral group of the square, counted on either copy
    assert cp1.stabilizer_size == cp2.stabilizer_size == 8


# every unimodular matrix with entries in [-3, 3]
_SMALL_UNIMODULAR = [
    ((a, b), (c, d))
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4)
    if a * d - b * c in (1, -1)
]


def brute_stabilizer(P, group):
    """The elements of a finite part of the group that fix P, counted directly."""
    if group.kind == TRIVIAL:
        return 1
    if group.kind == SHEAR:
        signs = (1, -1) if group.reflection else (1,)
        elements = [((1, k), (0, s)) for k in range(-30, 31) for s in signs]
    elif group.kind == FULL_UNIMODULAR:
        elements = _SMALL_UNIMODULAR
    else:
        elements = group.matrices
    return sum(transform_polytope(M, P) == P for M in elements)


def test_stabilizer_size_matches_brute_force(full_catalog):
    # every rank-1 and rank-2 class, in its canonical position
    seen = set()
    for r in full_catalog.records:
        if r.rank not in (1, 2):
            continue
        params = r.params_dict()
        group = symmetry_group(r.family, params)
        P = convex_hull(r.vertices, r.rank)
        cp = canonical_form(build(r.family, params), P, group=group, check=False)
        assert cp.polytope == P
        assert cp.stabilizer_size == brute_stabilizer(P, group), r.identifier
        seen.add(group.kind)
    assert seen == {TRIVIAL, FINITE, SHEAR, FULL_UNIMODULAR}


def test_stabilizer_size_of_moved_toric_classes():
    # the stabiliser is that of the orbit, wherever the copy lies
    data = build("toric", {"n": 2})
    group = symmetry_group("toric", {"n": 2})
    M = ((2, 1), (1, 1))
    sizes = [
        canonical_form(data, transform_polytope(M, cp.polytope), group=group).stabilizer_size
        for cp in classes("toric", {"n": 2})
    ]
    assert sizes == [6, 2, 8, 2, 12]


def test_canonical_shear_and_mirror_identify_published_pairs():
    fid, params = "SL2xGm.horo", {"n": 2, "a1": 1}
    data = build(fid, params)
    group = symmetry_group(fid, params)

    def canon(verts):
        return canonical_form(data, convex_hull(verts, 2), group=group).polytope

    # a mirror pair: the two drawings are one embedding
    a = canon([(H, 0), (0, 1), (-1, 2), (0, -1)])
    b = canon([(H, 0), (0, -1), (-1, -2), (0, 1)])
    assert a == b
    # shear identification of the last walk result with the first
    c = canon([(H, 0), (0, 1), (-1, -2), (0, -1)])
    assert a == c


def test_canonical_rejects_non_reflexive():
    data = build("toric", {"n": 2})
    group = symmetry_group("toric", {"n": 2})
    P = convex_hull([(2, 0), (0, 1), (-1, -1)], 2)
    with pytest.raises(NotReflexive):
        canonical_form(data, P, group=group)


def test_canonical_finite_group_mirror():
    # the diagonal-Borel triple: 4-2-19 and its mirror are one class
    fid = "SL2sq.diagB"
    data = build(fid, {})
    group = symmetry_group(fid, {})
    a = canonical_form(data, convex_hull([(0, -1), (1, 0), (0, 1), (-1, 1)], 2), group=group)
    b = canonical_form(data, convex_hull([(0, 1), (1, 0), (0, -1), (-1, -1)], 2), group=group)
    assert a.polytope == b.polytope


# -- oracle agreement -------------------------------------------------------------


@pytest.mark.parametrize(
    "fid,params,cfg",
    [
        ("SL2sq.TxT", {}, EnumConfig(3, 6)),
        ("SL2sq.diagB", {}, EnumConfig(3, 6)),
        ("SL2xGm.T", {"a1": 1}, EnumConfig(3, 7)),
        ("SL2sq.GL2", {}, EnumConfig(3, 7)),
        ("toric", {"n": 2}, EnumConfig(2, 7)),
        ("SL2sq.diagNT", {}, EnumConfig(3, 6)),
    ],
)
def test_oracle_agreement(fid, params, cfg):
    data = build(fid, params)
    group = symmetry_group(fid, params)
    walk = enumerate_rank2(data, cfg, group=group)
    oracle = brute_force_oracle(data, cfg, group=group)
    assert vertex_sets(walk) == vertex_sets(oracle)


# -- box stability, symmetry soundness, determinism --------------------------------


BOX_DOUBLING_FIRST = [
    ("SL2xGm.T", {"a1": 1}),
    ("SL2xGm.N.diag", {}),
    ("SL2sq.diagB", {}),
    ("SL2sq.PI-N.diag", {"a2": 1}),
    ("SL2sq.TxT", {}),
    ("toric", {"n": 2}),
    ("SL2xGm.horo", {"n": 2, "a1": 1}),
]


@pytest.mark.parametrize(
    "fid,params", BOX_DOUBLING_FIRST + [x for x in RANK2 if x not in BOX_DOUBLING_FIRST]
)
def test_box_doubling_stability(fid, params):
    # every rank-2 instance, the full unimodular and shear ones included
    a = classes(fid, params, cfg=EnumConfig(5, 8))
    b = classes(fid, params, cfg=EnumConfig(10, 8))
    assert vertex_sets(a) == vertex_sets(b)


def test_symmetry_soundness():
    for fid, params in (
        ("SL2sq.diagB", {}),
        ("SL2sq.GL2", {}),
        ("SL2xGm.T", {"a1": 1}),
        ("SL2sq.horo1", {"a1": 1, "a2": -1}),
    ):
        data = build(fid, params)
        group = symmetry_group(fid, params)
        for cp in classes(fid, params):
            for M in group.matrices:
                moved = transform_polytope(M, cp.polytope)
                assert check_reflexive(data, moved).ok
                again = canonical_form(data, moved, group=group, check=False)
                assert again.polytope == cp.polytope


def test_determinism():
    a = classes("SL2sq.horo2", {"a1": 1, "a2": 0, "b2": 1})
    b = classes("SL2sq.horo2", {"a1": 1, "a2": 0, "b2": 1})
    assert vertex_sets(a) == vertex_sets(b)


def test_bound_too_tight_detection():
    # data whose unique polytopes stretch past a tiny box: the certificate
    # must fire rather than silently truncate
    data = build("SL3.horo2", {"a1": 1})
    group = symmetry_group("SL3.horo2", {"a1": 1})
    with pytest.raises(BoundTooTight):
        enumerate_rank2(data, EnumConfig(3, 6), group=group)


def test_rank1_enumeration_is_exhaustive_over_candidates():
    # negative integers below -1 can never be endpoints
    data = build("SL2sq.diagSL2", {})
    group = symmetry_group("SL2sq.diagSL2", {})
    seg = RationalPolytope(1, ((F(-2),), (H,)))
    assert not check_reflexive(data, seg).ok
    assert len(enumerate_rank1(data, group=group)) == 1


# -- search shape and failure modes --------------------------------------------


@pytest.mark.parametrize(
    "fid,params,calls,accepts,n_classes,pair_tests",
    [
        ("toric", {"n": 2}, 12, 12, 5, 158),
        ("SL2xGm.horo", {"n": 2, "a1": 1}, 23, 23, 16, 418),
        ("SL2sq.horo2", {"a1": 1, "a2": 0, "b2": 1}, 66, 66, 39, 529),
    ],
)
def test_walk_search_shape(monkeypatch, fid, params, calls, accepts, n_classes, pair_tests):
    # exact counters of the default-box walk: the pair tests made (only on
    # pairs with a color endpoint or of determinant one), which closed cycles
    # reach the reflexivity check, and how many pass; the pair tests make
    # every closed cycle reflexive, and the full unimodular and shear
    # instances walk normalised polygons only
    verdicts = []
    pairs = []

    def counting(data, P):
        v = check_reflexive(data, P)
        verdicts.append(v.ok)
        return v

    def counting_pairs(*args):
        pairs.append(args[1:3])
        return edge_violation(*args)

    monkeypatch.setattr(search, "check_reflexive", counting)
    monkeypatch.setattr(search, "edge_violation", counting_pairs)
    data = build(fid, params)
    found = enumerate_rank2(data, EnumConfig(), group=symmetry_group(fid, params))
    assert (len(verdicts), sum(verdicts), len(found)) == (calls, accepts, n_classes)
    assert len(pairs) == pair_tests


@pytest.mark.parametrize("fid,params", RANK2)
def test_successor_masks_match_all_pairs(fid, params):
    # the walk skips the pair test where it cannot pass; its successor masks
    # must equal those of edge_violation on every ordered pair with the
    # origin strictly left (C1), on the candidates the walk uses
    data = build(fid, params)
    cands = search._candidate_points(data, EnumConfig())
    if symmetry_group(fid, params).kind == FULL_UNIMODULAR:
        cands = [q for q in cands if q[0] + q[1] <= 1]
    scale, pts, colors = scale_to_ints(data, cands)
    masks = [
        sum(
            1 << j
            for j, q in enumerate(pts)
            if p[0] * q[1] - p[1] * q[0] > 0 and not edge_violation(data, p, q, colors, scale)
        )
        for p in pts
    ]
    assert search._SuccessorGraph(data, cands).succ == masks


def test_closure_rejected_by_the_checker_fails_loudly(monkeypatch, capsys):
    # a closed cycle that check_reflexive rejects means the pair tests and
    # the checker disagree: the walk must raise, not drop the cycle, and the
    # CLI reports it as an internal error (exit 3)
    def rejecting(data, P):
        return dataclasses.replace(check_reflexive(data, P), ok=False)

    monkeypatch.setattr(search, "check_reflexive", rejecting)
    data = build("toric", {"n": 2})
    with pytest.raises(PairTestMismatch):
        enumerate_rank2(data, EnumConfig(), group=symmetry_group("toric", {"n": 2}))
    assert main(["enumerate", "--family", "toric", "--params", "n=2"]) == 3
    assert "closed cycle" in capsys.readouterr().err


def test_walk_leaves_no_garbage():
    # the walk must not build reference cycles that keep its intermediate
    # polytopes alive until a full collection
    data = build("toric", {"n": 2})
    group = symmetry_group("toric", {"n": 2})
    gc.collect()
    enumerate_rank2(data, EnumConfig(), group=group)
    assert gc.collect() == 0


def test_config_and_canonical_form_fail_loudly():
    with pytest.raises(InvalidConfig):
        EnumConfig(1, 8)
    with pytest.raises(InvalidConfig):
        EnumConfig(5, 2)
    data = build("SL2xGm.horo", {"n": 2, "a1": 1})
    P = convex_hull([(1, 0), (0, 1), (-1, 0), (0, -1)], 2)
    with pytest.raises(CanonicalFormError):
        canonical_form(data, P, group=SymmetryGroup(SHEAR, fixed_vector=(0, 1)), check=False)


def test_full_unimodular_normalisation_fails_loudly():
    # every edge of this triangle has determinant 3, so no position of it
    # has the edge e1 -> e2 that the full unimodular walk pins
    data = build("toric", {"n": 2})
    group = symmetry_group("toric", {"n": 2})
    P = convex_hull([(2, 1), (-1, 1), (-1, -2)], 2)
    with pytest.raises(CanonicalFormError):
        canonical_form(data, P, group=group, check=False)
    # a spherical root that puts e1 outside the valuation cone leaves the
    # pinned edge without a start
    data = dataclasses.replace(data, sigma=((1, 1),))
    with pytest.raises(CanonicalFormError):
        enumerate_rank2(data, EnumConfig(), group=group)
