"""Registry consistency: data invariants, symmetry groups, parameter bounds."""

import importlib.util
import json
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

from sphfano.core import Color, CombinatorialData, dh
from sphfano.geometry import primitive
from sphfano.registry import (
    FINITE,
    FULL_UNIMODULAR,
    SHEAR,
    TRIVIAL,
    ROOT_TABLE,
    ParamsOutOfDomain,
    RootDataMismatch,
    UnknownFamily,
    UnsupportedSymmetry,
    _rank2_group,
    build,
    data_preserving_permutation,
    derive,
    families,
    rank0_entries,
    registry_json,
    symmetry_group,
)


def all_instances():
    for spec in families():
        if spec.id == "rank0":
            continue
        for params in spec.params_list():
            yield spec, params


def test_family_filters():
    assert {f.id for f in families([2], [2])} == {"toric"}
    dim3_rank1 = {f.id for f in families([3], [1])}
    assert dim3_rank1 == {"SL2sq.diagSL2", "SL2sq.NdiagSL2", "SL2sq.horo1", "SL3.horo.Q"}
    assert len(families([4], [0])) == 9


def test_rank0_entries():
    rows = rank0_entries()
    assert len(rows) == 18
    by_dim = {}
    for g, s, d, p, deg in rows:
        by_dim[d] = by_dim.get(d, 0) + 1
    assert by_dim == {1: 1, 2: 2, 3: 6, 4: 9}
    assert ("SL5", "P4", 4, 1, 625) in rows
    assert ("SL3", "W", 3, 2, 48) in rows


def test_build_errors():
    with pytest.raises(UnknownFamily):
        build("no-such-family", {})
    with pytest.raises(ParamsOutOfDomain):
        build("SL2xGm.T", {"a1": 7})
    with pytest.raises(UnknownFamily):
        build("rank0", {"row": 0})


def expanded(f, rank) -> dict:
    """The stored factors of a density multiplied out by sympy: exponents -> coefficient."""
    from sympy import Poly, Rational, symbols

    xs = symbols(f"x:{rank}")
    expr = Rational(f.prefactor.numerator, f.prefactor.denominator)
    for c, a, mult in f.factors:
        expr *= (Rational(c.numerator, c.denominator) + sum(k * x for k, x in zip(a, xs))) ** mult
    return {e: F(int(c.p), int(c.q)) for e, c in Poly(expr, *xs).as_dict().items()}


def test_build_examples():
    d = build("SL2xGm.T", {"a1": 1})
    assert d.rank == 2 and d.sigma == ((1, 1),)
    assert [c.rho for c in d.colors] == [(1, 0), (0, 1)]
    assert all(c.m == 1 for c in d.colors)
    assert expanded(d.f, 2) == {(0, 0): F(2), (1, 0): F(1), (0, 1): F(1)}

    d = build("SL2sq.diagSL2", {})
    assert d.rank == 1 and d.sigma == ((1,),)
    assert d.colors[0].rho == (1,) and d.colors[0].m == 2
    assert expanded(d.f, 1) == {(0,): F(4), (1,): F(4), (2,): F(1)}  # (2+x)^2

    d = build("Sp4.Nsym", {})
    assert d.sigma == ((1,),) and d.colors[0].rho == (2,) and d.colors[0].m == 3
    # (3+2x)^3/3 = 9 + 18x + 12x^2 + 8x^3/3
    assert expanded(d.f, 1) == {(0,): 9, (1,): 18, (2,): 12, (3,): F(8, 3)}

    d = build("toric", {"n": 2})
    assert d.sigma == () and d.colors == () and expanded(d.f, 2) == {(0, 0): 1}


# Gram matrices of the simple roots and the positive roots in simple-root
# coordinates; in C2 (Sp4) alpha_1 is short
ROOT_SYSTEMS = {
    "SL2": ([[2]], [(1,)]),
    "SL3": ([[2, -1], [-1, 2]], [(1, 0), (0, 1), (1, 1)]),
    "SL4": (
        [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)],
    ),
    "Sp4": ([[1, -1], [-1, 2]], [(1, 0), (0, 1), (1, 1), (2, 1)]),
    "SL5": (
        [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0),
         (0, 1, 1, 0), (0, 0, 1, 1), (1, 1, 1, 0), (0, 1, 1, 1), (1, 1, 1, 1)],
    ),
}


def root_data(group_name):
    """The Gram matrix and positive roots of a product group, simple roots
    numbered consecutively over the factors; Gm adds none."""
    from sympy import diag

    blocks = []
    for factor in group_name.split("x"):
        name, _, power = factor.partition("^")
        if name != "Gm":
            blocks += [ROOT_SYSTEMS[name]] * int(power or 1)
    gram = diag(*[B for B, _ in blocks])
    roots, k = [], 0
    for B, rs in blocks:
        roots += [(0,) * k + r + (0,) * (gram.rows - k - len(B)) for r in rs]
        k += len(B)
    return gram, roots


def weight(text):
    """A registry weight string over w_i, alpha_i and x_i as a sympy expression."""
    from sympy import sympify

    return sympify(re.sub(r"(\d)([a-z])", r"\1*\2", text))


def test_density_and_kappa_from_root_data():
    # kappa is the sum of the positive roots beta outside the Levi (the simple
    # roots in no color's zeta), and the density is the product over those
    # roots of <beta^v, kappa + x> / <beta^v, rho>, x in the span of m_basis
    from sympy import Poly, Rational, Symbol, symbols

    density_mismatches = []
    for spec, params in all_instances():
        data = build(spec.id, params)
        gram, roots = root_data(data.group_name)
        n = gram.rows
        alphas = [Symbol(f"alpha{j + 1}") for j in range(n)]
        ws = [Symbol(f"w{j + 1}") for j in range(n)]
        zeta = set().union(*(c.zeta for c in data.colors))
        outer = [r for r in roots if any(c and f"a{j + 1}" in zeta for j, c in enumerate(r))]
        kappa = weight(data.kappa_expr)
        assert kappa == sum(c * a for r in outer for c, a in zip(r, alphas)), spec.id

        def pair(beta, expr):
            # <beta^v, lambda> = 2 (beta, lambda) / (beta, beta); (w_j, alpha_j)
            # is half of (alpha_j, alpha_j), and the x_i pair to zero
            inner = [
                sum(expr.coeff(alphas[i]) * gram[i, j] for i in range(n))
                + expr.coeff(ws[j]) * Rational(gram[j, j], 2)
                for j in range(n)
            ]
            length = sum(beta[i] * gram[i, j] * beta[j] for i in range(n) for j in range(n))
            return 2 * sum(c * v for c, v in zip(beta, inner)) / length

        us = symbols(f"u:{data.rank}")
        ms = [weight(m) for m in data.m_basis]
        f = 1
        for beta in outer:
            value = pair(beta, kappa) + sum(u * pair(beta, m) for u, m in zip(us, ms))
            f *= value / pair(beta, sum(ws))
        got = {e: F(int(c.p), int(c.q)) for e, c in Poly(f, *us).as_dict().items()}
        if got != expanded(data.f, data.rank):
            density_mismatches.append((spec.id, params))
    assert density_mismatches == []


# the Levi of each rank-0 row G/P, as simple roots numbered across the
# factors as in root_data; a row not listed is a full flag variety
RANK0_LEVI = {
    ("SL3", "P2"): {2},
    ("Sp4", "Q3"): {1},
    ("Sp4", "P3"): {2},
    ("SL3xSL2", "P2xP1"): {2},
    ("SL4", "P3"): {2, 3},
    ("Sp4xSL2", "Q3xP1"): {1},
    ("Sp4xSL2", "P3xP1"): {2},
    ("SL4", "Q4"): {1, 3},
    ("SL3xSL2^2", "P2xP1xP1"): {2},
    ("SL3^2", "P2xP2"): {2, 4},
    ("SL4xSL2", "P3xP1"): {2, 3},
    ("SL5", "P4"): {2, 3, 4},
}


def test_rank0_table_from_root_data():
    # G/P has dimension the number of positive roots outside the Levi and
    # Picard rank the number of simple roots outside it; its anticanonical
    # weight kappa is the sum of those roots, and the degree is dim! times
    # the product over them of <beta^v, kappa> / <beta^v, rho> (Borel-Weil)
    from sympy import Matrix, Rational, factorial, prod

    rows = rank0_entries()
    assert set(RANK0_LEVI) <= {(g, s) for g, s, *_ in rows}
    for group, space, dim, pic, deg in rows:
        gram, roots = root_data(group)
        levi = RANK0_LEVI.get((group, space), set())
        outer = [r for r in roots if any(c and j + 1 not in levi for j, c in enumerate(r))]
        kappa = Matrix([sum(col) for col in zip(*outer)])
        rho = Matrix([Rational(sum(col), 2) for col in zip(*roots)])

        def coroot(beta, weight):
            b = Matrix(beta)
            return 2 * (b.T * gram * weight)[0] / (b.T * gram * b)[0]

        degree = factorial(len(outer)) * prod(coroot(b, kappa) / coroot(b, rho) for b in outer)
        assert (len(outer), gram.rows - len(levi), degree) == (dim, pic, deg), (group, space)


def coroot_key(expr, gram) -> tuple:
    """A weight by its pairings <lambda, alpha_j^v> with the simple coroots
    and its x-part, so that equal weights written differently (alpha1 = 2w1
    in SL2) compare equal."""
    from sympy import Symbol

    n = gram.rows
    pairings = tuple(
        sum(expr.coeff(Symbol(f"alpha{i + 1}")) * 2 * gram[i, j] / gram[j, j] for i in range(n))
        + expr.coeff(Symbol(f"w{j + 1}"))
        for j in range(n)
    )
    xs = {s.name: expr.coeff(s) for s in expr.free_symbols if s.name.startswith("x")}
    return pairings, frozenset((s, c) for s, c in xs.items() if c)


def test_colors_follow_luna_rules():
    """Every color against Luna's rules (Publ. Math. IHES 94, 2001) for the
    simple roots alpha that move it, on the test's own root systems.

    Type a (alpha in Sigma): two colors D+-, rho(D+) + rho(D-) = alpha^v|_M,
    <rho(D+-), alpha> = 1 and m = 1.  Type 2a (2 alpha in Sigma): one color,
    rho = alpha^v|_M / 2 and m = 1.  Type b (otherwise): one color,
    rho = alpha^v|_M and m = <2 rho_G - 2 rho_{S^p}, alpha^v>, S^p the simple
    roots that move no color (Gagliardi-Hofscheier, arXiv:1404.2785).
    """
    from sympy import Symbol

    checked = Counter()
    for spec, params in all_instances():
        data = build(spec.id, params)
        gram, roots = root_data(data.group_name)
        n = gram.rows
        alphas = [Symbol(f"alpha{j + 1}") for j in range(n)]
        ms = [weight(m) for m in data.m_basis]
        sigma = [(s, coroot_key(sum(c * m for c, m in zip(s, ms)), gram)) for s in data.sigma]
        moving = set().union(*(c.zeta for c in data.colors))
        # 2 rho_G - 2 rho_{S^p}: the positive roots minus those of the Levi of S^p
        levi = [r for r in roots if not any(c and f"a{j + 1}" in moving for j, c in enumerate(r))]
        kappa = sum(c * a for r in roots for c, a in zip(r, alphas))
        kappa -= sum(c * a for r in levi for c, a in zip(r, alphas))
        where = (spec.id, params)
        for j in sorted(moving):
            i = int(j[1:]) - 1
            alpha = coroot_key(alphas[i], gram)
            restriction = tuple(coroot_key(m, gram)[0][i] for m in ms)
            colors = [c for c in data.colors if j in c.zeta]
            type_a = [s for s, key in sigma if key == alpha]
            doubled = (tuple(2 * p for p in alpha[0]), alpha[1])
            if type_a:
                plus, minus = colors  # exactly two colors
                assert tuple(a + b for a, b in zip(plus.rho, minus.rho)) == restriction, where
                for c in colors:
                    assert sum(r * s for r, s in zip(c.rho, type_a[0])) == 1, where
                    assert c.m == 1, where
                checked["a"] += 2
            elif any(key == doubled for _, key in sigma):
                (c,) = colors
                assert tuple(2 * r for r in c.rho) == restriction and c.m == 1, where
                checked["2a"] += 1
            else:
                (c,) = colors
                assert c.rho == restriction, where
                assert c.m == coroot_key(kappa, gram)[0][i], where
                checked["b"] += 1
    # root-color incidences of each type
    assert checked == {"a": 40, "2a": 15, "b": 121}


def flag_invariants(group, space) -> tuple:
    """(dim, pic, degree, Fano index) of the rank-0 row G/P; the index is the
    gcd of <kappa, alpha^v> over the simple roots alpha outside the Levi."""
    from sympy import Matrix, gcd

    ((dim, pic, deg),) = [(d, p, g) for gr, s, d, p, g in rank0_entries() if (gr, s) == (group, space)]
    gram, roots = root_data(group)
    levi = RANK0_LEVI.get((group, space), set())
    outer = [r for r in roots if any(c and j + 1 not in levi for j, c in enumerate(r))]
    doubled = gram * Matrix([sum(col) for col in zip(*outer)])  # 2 (alpha_j, kappa) / 2
    pairings = [2 * doubled[j] / gram[j, j] for j in range(gram.rows) if j + 1 not in levi]
    return dim, pic, deg, int(gcd(pairings))


# each product instance with a flag-variety factor G'/P': (family, params) ->
# (the flag's rank-0 row, the other factor's family and params)
FLAG_PRODUCTS = {
    ("SL3xSL2.QxT", ()): (("SL3", "P2"), "SL2.T", ()),
    ("SL3xSL2.QxNT", ()): (("SL3", "P2"), "SL2.N", ()),
    ("SL2cube.BdiagSL2", ()): (("SL2", "P1"), "SL2sq.diagSL2", ()),
    ("SL2cube.BNdiagSL2", ()): (("SL2", "P1"), "SL2sq.NdiagSL2", ()),
    ("SL2cube.BBxT", ()): (("SL2^2", "P1xP1"), "SL2.T", ()),
    ("SL2cube.BBxNT", ()): (("SL2^2", "P1xP1"), "SL2.N", ()),
    ("SL2xGm.horo", (("a1", 0), ("n", 1))): (("SL2", "P1"), "toric", (("n", 1),)),
    ("SL2xGm.horo", (("a1", 0), ("n", 2))): (("SL2", "P1"), "toric", (("n", 2),)),
    ("SL3.horo.Q", (("a1", 0),)): (("SL3", "P2"), "toric", (("n", 1),)),
    ("SL3.horo2", (("a1", 0),)): (("SL3", "P2"), "toric", (("n", 2),)),
    ("SL3.horo.B", (("a1", 0), ("a2", 0))): (("SL3", "W"), "toric", (("n", 1),)),
    ("Sp4.horo.short", (("a1", 0),)): (("Sp4", "P3"), "toric", (("n", 1),)),
    ("Sp4.horo.long", (("a2", 0),)): (("Sp4", "Q3"), "toric", (("n", 1),)),
    ("SL4.horo", (("a1", 0),)): (("SL4", "P3"), "toric", (("n", 1),)),
    ("SL2sq.PI-N.product", (("a2", 0),)): (("SL2", "P1"), "SL2xGm.N.product", ()),
    ("SL2sq.PI-N.diag", (("a2", 0),)): (("SL2", "P1"), "SL2xGm.N.diag", ()),
}
# where the parameter of one SL2 or SL3 factor's color is 0, that factor's
# flag splits off: P1 (P2 for SL3xSL2.horo a1=0) times the other factors' space
for a1 in (0, 1):
    FLAG_PRODUCTS[("SL2sq.horo1", (("a1", a1), ("a2", 0)))] = (
        ("SL2", "P1"), "SL2xGm.horo", (("a1", a1), ("n", 1)),
    )
    FLAG_PRODUCTS[("SL2sq.horo2", (("a1", a1), ("a2", 0), ("b2", 0)))] = (
        ("SL2", "P1"), "SL2xGm.horo", (("a1", a1), ("n", 2)),
    )
    FLAG_PRODUCTS[("SL3xSL2.horo", (("a1", 0), ("a3", a1)))] = (
        ("SL3", "P2"), "SL2xGm.horo", (("a1", a1), ("n", 1)),
    )
for a1, a2 in ((0, 0), (1, 0), (1, 1), (1, -1)):
    FLAG_PRODUCTS[("SL2cube.horo", (("a1", a1), ("a2", a2), ("a3", 0)))] = (
        ("SL2", "P1"), "SL2sq.horo1", (("a1", a1), ("a2", a2)),
    )
for a1 in (1, 2):
    FLAG_PRODUCTS[("SL3xSL2.horo", (("a1", a1), ("a3", 0)))] = (
        ("SL2", "P1"), "SL3.horo.Q", (("a1", a1),),
    )
for a1 in (0, 1, 2):
    FLAG_PRODUCTS[("SL2sq.PI-T", (("a1", a1), ("a2", 0)))] = (
        ("SL2", "P1"), "SL2xGm.T", (("a1", a1),),
    )


def test_products_with_a_flag_factor(full_catalog):
    """Every embedding of G'/P' x Y is G'/P' x (an embedding of Y): pic adds,
    the degree is C(m+n, m) deg deg', the Fano index is the gcd of the two and
    the KE verdict is Y's, G'/P' being Kahler-Einstein.  Products of two
    positive-rank spaces, such as `SL2xGm.T` a1=0, are left out: not every
    embedding of such a product is a product of embeddings."""
    from math import comb, gcd

    records = {}
    for r in full_catalog.records:
        records.setdefault((r.family, r.params), []).append(r)
    for instance, (flag, *factor) in FLAG_PRODUCTS.items():
        dim, pic, deg, index = flag_invariants(*flag)
        expected = Counter(
            (pic + r.pic, comb(dim + r.dim, dim) * deg * r.degree, gcd(index, r.fano_index), r.ke)
            for r in records[tuple(factor)]
        )
        got = Counter((r.pic, r.degree, r.fano_index, r.ke) for r in records[instance])
        assert got == expected, instance


def test_root_data_mismatches_raise(monkeypatch):
    import sphfano.registry as R

    spec = next(f for f in families() if f.id == "SL3.sym")
    # a Gram matrix under which <(alpha1 + alpha2)^v, rho> = 6/4; the memo of
    # derived terms is emptied so that the instance is derived again
    monkeypatch.setitem(ROOT_TABLE, "SL3", (((2, -1), (-1, 4)), ROOT_TABLE["SL3"][1]))
    R._root_terms.cache_clear()
    with pytest.raises(RootDataMismatch, match="not integral"):
        derive(spec, {})


def test_type_b_colors_whose_roots_disagree_raise():
    # one color moved by both simple roots of SL2^2 on M = Z alpha1, where
    # <alpha1, alpha1^v> = 2 but <alpha1, alpha2^v> = 0
    from sphfano.registry import FamilySpec

    def builder(p):
        return dict(
            sigma=((1,),),
            colors=(("clubs", {"a1", "a2"}),),
            m_basis=({"alpha1": 1},),
            group_name="SL2^2",
            space_type="symmetric",
        )

    spec = FamilySpec("disagreeing", 3, 1, builder, "no parameters", ((),))
    with pytest.raises(RootDataMismatch, match="restrict differently"):
        derive(spec, {})


def test_data_invariants():
    total = 0
    for spec, params in all_instances():
        data = build(spec.id, params)
        total += 1
        assert data.dim == spec.dim and data.rank == spec.rank
        assert data.f.value_at_origin() > 0
        assert data.f.total_degree() == data.dim - data.rank
        for s in data.sigma:
            assert primitive(s) == s
        for c in data.colors:
            assert 1 <= c.m <= 4
        # colors sharing a location never share a label
        labels = [c.label for c in data.colors]
        assert len(set(labels)) == len(labels)
    assert total == 90


def test_symmetry_generators_preserve_data():
    for spec, params in all_instances():
        g = symmetry_group(spec.id, params)
        data = build(spec.id, params)
        if g.kind == FINITE:
            assert len(g.matrices) == len(g.color_perms)
            for M, perm in zip(g.matrices, g.color_perms):
                check = data_preserving_permutation(data, M)
                assert check is not None, (spec.id, params, M)
                assert perm == check or data_preserving_permutation(data, M) is not None
        elif g.kind == SHEAR:
            assert tuple(g.fixed_vector) == (1, 0)
            for k in (-2, -1, 1, 2):
                assert data_preserving_permutation(data, ((1, k), (0, 1))) is not None
                assert data_preserving_permutation(data, ((1, k), (0, -1))) is not None
        elif g.kind == FULL_UNIMODULAR:
            for M in (((0, 1), (1, 0)), ((1, 1), (0, 1)), ((2, 1), (1, 1))):
                assert data_preserving_permutation(data, M) is not None


SMALL_UNIMODULAR = [
    ((a, b), (c, d))
    for a, b, c, d in product(range(-3, 4), repeat=4)
    if a * d - b * c in (1, -1)
]


def test_no_missing_small_symmetries():
    """Completeness probe: any unimodular matrix with entries up to 3 that
    preserves the data must already lie in the declared group."""
    for spec, params in all_instances():
        if spec.rank != 2:
            continue
        g = symmetry_group(spec.id, params)
        if g.kind in (FULL_UNIMODULAR, SHEAR):
            continue
        declared = set(g.matrices) if g.kind == FINITE else {((1, 0), (0, 1))}
        data = build(spec.id, params)
        for M in SMALL_UNIMODULAR:
            if data_preserving_permutation(data, M) is None:
                continue
            # must equal a declared element, possibly composed with a shear
            # that is itself declared; for finite groups: direct membership
            assert M in declared, (spec.id, params, M)


def test_symmetry_groups_match_recorded_table():
    """The derived group of every instance equals, element by element, the
    group that the former hand-written per-family table declared."""
    recorded = json.loads((Path(__file__).parent / "data" / "symmetry_groups.json").read_text())
    assert len(recorded) == 90
    for e in recorded:
        g = symmetry_group(e["family"], e["params"])
        derived = {
            "family": e["family"],
            "params": e["params"],
            "kind": g.kind,
            "matrices": [[list(r) for r in M] for M in g.matrices],
            "color_perms": [list(p) for p in g.color_perms],
            "fixed_vector": list(g.fixed_vector),
            "reflection": g.reflection,
        }
        assert derived == e


def test_registry_matches_recorded_data():
    """The `families` text, the `families --json` rows and the data of all 90
    instances equal, line by line, what tools/record_registry.py recorded."""
    path = Path(__file__).parents[1] / "tools" / "record_registry.py"
    spec = importlib.util.spec_from_file_location("record_registry", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    recorded = (Path(__file__).parent / "data" / "registry.json").read_text()
    assert len(json.loads(recorded)["instances"]) == 90
    assert tool.registry_text() == recorded


def _synthetic(*rhos):
    return CombinatorialData(
        rank=2,
        dim=3,
        sigma=(),
        colors=tuple(Color(f"D{i}", rho, 1) for i, rho in enumerate(rhos)),
        f=dh(1),
        kappa_expr="0",
        m_basis=("e1", "e2"),
        group_name="synthetic",
        space_type="synthetic",
    )


@pytest.mark.parametrize(
    "f, M, preserved",
    [
        # (1 + x)(2 + 2y) = 2(1 + x)(1 + y), symmetric under the swap
        (dh(1, (1, (1, 0), 1), (2, (0, 2), 1)), ((0, 1), (1, 0)), True),
        # xy = (-x)(-y)
        (dh(1, (0, (1, 0), 1), (0, (0, 1), 1)), ((-1, 0), (0, -1)), True),
        (dh(1, (0, (1, 0), 1)), ((-1, 0), (0, -1)), False),
        (dh(1, (0, (1, 0), 2)), ((-1, 0), (0, -1)), True),
        (dh(3, (2, (0, 0), 1), (1, (1, 1), 1)), ((0, 1), (1, 0)), True),
        (dh(1, (1, (1, 0), 1), (1, (0, 2), 1)), ((0, 1), (1, 0)), False),
    ],
)
def test_density_invariance_up_to_factor_scaling(f, M, preserved):
    # the factors of f(M^T x) are compared with those of f after scaling
    # each to constant 1 (or first coefficient 1), as in unique factorisation
    data = replace(_synthetic(), f=f)
    assert (data_preserving_permutation(data, M) is not None) == preserved


@pytest.mark.parametrize(
    "rhos",
    [
        ((1, 0), (-1, 0)),  # ((-1,0),(0,1)) swaps the two colors
        ((0, 1),),  # anchors on the y-axis
    ],
)
def test_one_line_anchors_outside_the_shear_class_raise(rhos):
    with pytest.raises(UnsupportedSymmetry):
        _rank2_group(_synthetic(*rhos))


def test_one_line_anchors_on_the_x_axis_give_shears():
    g = _rank2_group(_synthetic((1, 0)))
    assert (g.kind, g.fixed_vector, g.reflection) == (SHEAR, (1, 0), True)


def test_rank1_negation_admissibility():
    cases = {
        ("SL2sq.horo1", (("a1", 1), ("a2", -1))): True,
        ("SL2sq.horo1", (("a1", 1), ("a2", 1))): False,
        ("SL3.horo.B", (("a1", 1), ("a2", -1))): True,
        ("SL2cube.horo", (("a1", 1), ("a2", 1), ("a3", -1))): False,
        ("SL2cube.horo", (("a1", 1), ("a2", -1), ("a3", 0))): True,
        ("SL3xSL2.horo", (("a1", 1), ("a3", -1))): False,
        ("Sp4.sym", ()): False,
    }
    for (fid, pk), expected in cases.items():
        g = symmetry_group(fid, dict(pk))
        has_negation = g.kind == FINITE and ((-1,),) in g.matrices
        assert has_negation == expected, (fid, pk)


def test_bound_safety_out_of_bound_params_give_nothing():
    """The first value beyond each hard-coded bound admits no polytope."""
    from sphfano.search import enumerate_rank1, enumerate_rank2, EnumConfig
    from sphfano.registry import FamilySpec, SymmetryGroup

    triv = SymmetryGroup(TRIVIAL)
    cfg = EnumConfig()

    import sphfano.registry as R

    def forced(fid, params):
        return derive(next(f for f in R.FAMILY_ROWS if f.id == fid), params)

    # type T at a1 = 3 (odd table)
    data = forced("SL2xGm.T", {"a1": 3})
    assert enumerate_rank2(data, cfg, group=triv) == []
    # type T at a1 = 4 (even table)
    data = forced("SL2xGm.T", {"a1": 4})
    assert enumerate_rank2(data, cfg, group=triv) == []
    # N-horosymmetric: in-bound but provably empty
    assert enumerate_rank1(build("SL3.Nhorosym", {}), group=triv) == []
    # horospherical SL2 x Gm at a1 = 2
    data = forced("SL2xGm.horo", {"n": 1, "a1": 2})
    assert enumerate_rank1(data, group=triv) == []
    # parabolic induction type T at a2 = 2
    data = forced("SL2sq.PI-T", {"a1": 1, "a2": 2})
    assert enumerate_rank2(data, cfg, group=triv) == []
    # rank-one SL2^2 x Gm horospherical at (2, 0)
    data = forced("SL2sq.horo1", {"a1": 2, "a2": 0})
    assert enumerate_rank1(data, group=triv) == []
    # rank-two horospherical at the explored-and-empty (1, 3)
    assert (
        enumerate_rank2(build("SL2sq.horo2", {"a1": 1, "a2": 1, "b2": 3}), cfg, group=triv)
        == []
    )
    # Sp4 short-root horospherical at a1 = 4 (m = 4)
    data = forced("Sp4.horo.short", {"a1": 4})
    assert enumerate_rank1(data, group=triv) == []


def test_registry_json_shape():
    data = registry_json()
    by_id = {}
    for e in data:
        by_id.setdefault(e["id"], []).append(e)
    assert "SL2sq.horo2" in by_id
    entry = by_id["SL2sq.horo2"][0]
    kinds = {s["kind"] for s in entry["symmetry"]}
    assert {FULL_UNIMODULAR, SHEAR, FINITE} <= kinds
