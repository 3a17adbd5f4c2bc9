"""Registry of the spherical homogeneous-space families and their data.

Each row of `FAMILY_ROWS` is the one declaration of a family in one
dimension and rank: its id, dimension, rank, builder (a parameterized
constructor of its spherical roots, colors, M-basis, group and type) and the
finite list of admissible parameter values.  `derive` completes the
builder's data by kappa and the Duistermaat-Heckman density, which the
group's root system, the colors' zeta and the M-basis fix (Brion, Duke
Math. J. 58, 1989), and by every color's m and every type-b color's rho,
which Luna's rules fix (Publ. Math. IHES 94, 2001).  The products of a flag
variety with a smaller space are built from the smaller space's builder
(`_times`).  The lattice-symmetry group under which embeddings of an instance
are considered equivalent is derived from its combinatorial data
(`symmetry_group`): every unimodular matrix that permutes the spherical
roots, the colors and the factors of the density, as decided by
`data_preserving_permutation`.

Parameter bounds are hard-coded from the impossibility arguments in the
classification (each carries a short comment); a test exercises the first
out-of-bound value of several families and checks that the enumerator finds
nothing there.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .core import Color, CombinatorialData, dh
from .geometry import apply_matrix, det2, primitive, unimodular_inverse


class UnknownFamily(KeyError):
    pass


class ParamsOutOfDomain(ValueError):
    pass


class InvalidConfig(ValueError):
    """Search bounds or a scope outside the admitted range."""


class UnsupportedSymmetry(AssertionError):
    """Data whose automorphisms no `SymmetryGroup` kind describes."""


class RootDataMismatch(AssertionError):
    """A coroot pairing of the root data that is not an integer, or a color
    whose simple roots give it different rho or m."""


# symmetry group kinds
TRIVIAL = "Trivial"
FINITE = "FiniteList"
FULL_UNIMODULAR = "FullUnimodular"
SHEAR = "ShearClass"


@dataclass(frozen=True)
class SymmetryGroup:
    kind: str
    # FiniteList: unimodular matrices (identity included) with color permutations
    matrices: tuple = ()
    color_perms: tuple = ()
    # ShearClass: the primitive vector fixed by every element; reflection allowed
    fixed_vector: tuple = ()
    reflection: bool = True


@dataclass(frozen=True)
class FamilySpec:
    """One registry row: a family in one dimension and rank, with its builder.

    The builder maps admissible params to the keyword arguments of
    `CombinatorialData` other than `rank` and `dim`, which the row states,
    and `f` and `kappa_expr`, which `derive` computes.  It states each M-basis
    vector as a coefficient dict over the alpha_i, w_i and x_i, which `derive`
    writes as a label, and each color as its label, its zeta (the set of
    simple roots a_i that move it) and, for a color of type a or 2a only, its
    rho; `derive` fills in every m and the rho of every other color.  The
    static rank-0 rows have none.
    """

    id: str
    dim: int
    rank: int
    builder: Callable[[dict], dict] | None
    param_domain: str
    param_bound: tuple[tuple[tuple[str, int], ...], ...]
    product_note: str | None = None

    def params_list(self) -> list[dict]:
        return [dict(p) for p in self.param_bound]


def _pb(*dicts) -> tuple:
    return tuple(tuple(sorted(d.items())) for d in dicts)


def params_key(params: dict) -> tuple:
    return tuple(sorted(params.items()))


_ID = ((1, 0), (0, 1))
_NEG1 = ((-1,),)
_ID1 = ((1,),)


def _basis_str(coeffs: dict[str, int]) -> str:
    parts = []
    for sym, c in coeffs.items():
        if c == 0:
            continue
        if c == 1:
            term = sym
        elif c == -1:
            term = f"-{sym}"
        else:
            term = f"{c}{sym}"
        parts.append(term if not parts or term.startswith("-") else f"+{term}")
    return "".join(parts) if parts else "0"


# the scope of the classification
DIMS = (1, 2, 3, 4)
RANKS = (0, 1, 2)


# ---------------------------------------------------------------------------
# Table of projective homogeneous spaces of dimension <= 4 (static rank-0 data)

RANK0_TABLE = (
    ("SL2", "P1", 1, 1, 2),
    ("SL3", "P2", 2, 1, 9),
    ("SL2^2", "P1xP1", 2, 2, 8),
    ("SL3", "W", 3, 2, 48),
    ("Sp4", "Q3", 3, 1, 54),
    ("Sp4", "P3", 3, 1, 64),
    ("SL2^3", "P1xP1xP1", 3, 3, 48),
    ("SL3xSL2", "P2xP1", 3, 2, 54),
    ("SL4", "P3", 3, 1, 64),
    ("SL3xSL2", "WxP1", 4, 3, 384),
    ("Sp4xSL2", "Q3xP1", 4, 2, 432),
    ("Sp4xSL2", "P3xP1", 4, 2, 512),
    ("SL4", "Q4", 4, 1, 512),
    ("SL2^4", "P1^4", 4, 4, 384),
    ("SL3xSL2^2", "P2xP1xP1", 4, 3, 432),
    ("SL3^2", "P2xP2", 4, 2, 486),
    ("SL4xSL2", "P3xP1", 4, 2, 512),
    ("SL5", "P4", 4, 1, 625),
)


def rank0_entries():
    """The static (group, space, dim, pic, degree) records, as published."""
    return list(RANK0_TABLE)


# ---------------------------------------------------------------------------
# data constructors


def _toric(p):
    n = p["n"]
    return dict(
        sigma=(),
        colors=(),
        m_basis=tuple({f"x{i + 1}": 1} for i in range(n)),
        group_name="Gm" if n == 1 else f"Gm^{n}",
        space_type="toric",
    )


def _sl2_t(p):
    return dict(
        sigma=((1,),),
        colors=(("clubs", {"a1"}, (1,)), ("hearts", {"a1"}, (1,))),
        m_basis=({"alpha1": 1},),
        group_name="SL2",
        space_type="symmetric",
    )


def _sl2_n(p):
    return dict(
        sigma=((1,),),
        colors=(("clubs", {"a1"}, (2,)),),
        m_basis=({"alpha1": 2},),
        group_name="SL2",
        space_type="symmetric",
    )


def _sl2gm_horo(p):
    n, a1 = p["n"], p["a1"]
    basis = ({"w1": a1, "x1": 1},) + tuple({f"x{i}": 1} for i in range(2, n + 1))
    return dict(
        sigma=(),
        colors=(("clubs", {"a1"}),),
        m_basis=basis,
        group_name=f"SL2xGm^{n}" if n > 1 else "SL2xGm",
        space_type="horospherical",
    )


def _horo(group, *roots):
    """A rank-one horospherical space of group x Gm, with params a_i: one color
    moved by each simple root a_i named in roots."""

    def builder(p):
        return dict(
            sigma=(),
            colors=tuple(zip(("clubs", "hearts", "spades"), ({a} for a in roots))),
            m_basis=({f"w{a[1:]}": p[a] for a in roots} | {"x1": 1},),
            group_name=f"{group}xGm",
            space_type="horospherical",
        )

    return builder


def _times(factor, group, *labels):
    """The product of a flag variety G'/P' with the space of the builder
    `factor`, a space of `group` = G' x (the factor's group).  The simple
    roots of G' come first, so the factor's a_i, alpha_i and w_i are
    renumbered past them, and its a_j moves one more color, labels[j - 1],
    at rho = 0."""

    def builder(p):
        fields = factor(p)
        k = len(_root_data(group)[0]) - len(_root_data(fields["group_name"])[0])

        def shift(sym):
            kind = sym.rstrip("0123456789")
            return sym if kind == "x" else f"{kind}{int(sym[len(kind):]) + k}"

        return fields | dict(
            colors=tuple((c[0], set(map(shift, c[1])), *c[2:]) for c in fields["colors"])
            + tuple((label, {f"a{j + 1}"}) for j, label in enumerate(labels)),
            m_basis=tuple({shift(s): c for s, c in b.items()} for b in fields["m_basis"]),
            group_name=group,
        )

    return builder


def _sl2sq_diag_sl2(p):
    return dict(
        sigma=((1,),),
        colors=(("clubs", {"a1", "a2"}),),
        m_basis=({"w1": 1, "w2": 1},),
        group_name="SL2^2",
        space_type="symmetric",
    )


def _sl2sq_ndiag_sl2(p):
    return dict(
        sigma=((1,),),
        colors=(("clubs", {"a1", "a2"}),),
        m_basis=({"alpha1": 1, "alpha2": 1},),
        group_name="SL2^2",
        space_type="symmetric",
    )


def _sl2gm_t(p):
    a1 = p["a1"]
    if a1 % 2 == 0:
        half = a1 // 2
        return dict(
            sigma=((1, 0),),
            colors=(("clubs", {"a1"}, (1, half)), ("hearts", {"a1"}, (1, -half))),
            m_basis=({"alpha1": 1}, {"x1": 1}),
            group_name="SL2xGm",
            space_type="symmetric" if a1 == 0 else "typeT",
        )
    hi, lo = (a1 + 1) // 2, (1 - a1) // 2
    return dict(
        sigma=((1, 1),),
        colors=(("clubs", {"a1"}, (hi, lo)), ("hearts", {"a1"}, (lo, hi))),
        m_basis=({"w1": 1, "x1": 1}, {"w1": 1, "x1": -1}),
        group_name="SL2xGm",
        space_type="typeT",
    )


def _sl2gm_n_product(p):
    return dict(
        sigma=((1, 0),),
        colors=(("clubs", {"a1"}, (2, 0)),),
        m_basis=({"alpha1": 2}, {"x1": 1}),
        group_name="SL2xGm",
        space_type="symmetric",
    )


def _sl2gm_n_diag(p):
    return dict(
        sigma=((1, 1),),
        colors=(("clubs", {"a1"}, (1, 1)),),
        m_basis=({"alpha1": 1, "x1": 1}, {"alpha1": 1, "x1": -1}),
        group_name="SL2xGm",
        space_type="symmetric",
    )


def _sl3_sym(p):
    return dict(
        sigma=((1,),),
        colors=(("clubs", {"a1"}), ("hearts", {"a2"})),
        m_basis=({"alpha1": 1, "alpha2": 1},),
        group_name="SL3",
        space_type="symmetric",
    )


def _sl3_horosym(p):
    return dict(
        sigma=((1,),),
        colors=(("clubs", {"a1"}), ("hearts", {"a2"}, (1,)), ("diamonds", {"a2"}, (1,))),
        m_basis=({"alpha2": 1},),
        group_name="SL3",
        space_type="horosymmetric",
    )


def _sl3_nhorosym(p):
    return dict(
        sigma=((1,),),
        colors=(("clubs", {"a1"}), ("hearts", {"a2"}, (2,))),
        m_basis=({"alpha2": 2},),
        group_name="SL3",
        space_type="horosymmetric",
    )


def _sp4_nsym(p):
    return dict(
        sigma=((1,),),
        colors=(("clubs", {"a2"}),),
        m_basis=({"alpha1": 2, "alpha2": 2},),
        group_name="Sp4",
        space_type="symmetric",
    )


def _sp4_sym(p):
    return dict(
        sigma=((1,),),
        colors=(("clubs", {"a2"}),),
        m_basis=({"alpha1": 1, "alpha2": 1},),
        group_name="Sp4",
        space_type="symmetric",
    )


def _sl2sqgm_diag_sl2(p):
    return dict(
        sigma=((1, 0),),
        colors=(("clubs", {"a1", "a2"}),),
        m_basis=({"w1": 1, "w2": 1}, {"x1": 1}),
        group_name="SL2^2xGm",
        space_type="group-compactification",
    )


def _sl2sqgm_ndiag_sl2(p):
    return dict(
        sigma=((1, 0),),
        colors=(("clubs", {"a1", "a2"}),),
        m_basis=({"alpha1": 1, "alpha2": 1}, {"x1": 1}),
        group_name="SL2^2xGm",
        space_type="group-compactification",
    )


def _sl2sq_gl2(p):
    return dict(
        sigma=((1, 1),),
        colors=(("clubs", {"a1", "a2"}),),
        m_basis=({"w1": 1, "w2": 1, "x1": 1}, {"w1": 1, "w2": 1, "x1": -1}),
        group_name="SL2^2xGm",
        space_type="group-compactification",
    )


def _sl2sq_diag_b(p):
    return dict(
        sigma=((1, 1), (1, -1)),
        colors=(
            ("clubs", {"a1"}, (0, 1)),
            ("hearts", {"a1", "a2"}, (1, 0)),
            ("diamonds", {"a2"}, (0, -1)),
        ),
        m_basis=({"w1": 1, "w2": 1}, {"w1": 1, "w2": -1}),
        group_name="SL2^2",
        space_type="diag-Borel",
    )


def _sl2sq_ndiag_b(p):
    return dict(
        sigma=((1, 0), (0, 1)),
        colors=(
            ("clubs", {"a1"}, (1, -1)),
            ("hearts", {"a1", "a2"}, (1, 1)),
            ("diamonds", {"a2"}, (-1, 1)),
        ),
        m_basis=({"alpha1": 1}, {"alpha2": 1}),
        group_name="SL2^2",
        space_type="diag-Borel",
    )


def _sl2sq_txt(p):
    return dict(
        sigma=((1, 0), (0, 1)),
        colors=(
            ("clubs", {"a1"}, (1, 0)),
            ("hearts", {"a1"}, (1, 0)),
            ("spades", {"a2"}, (0, 1)),
            ("diamonds", {"a2"}, (0, 1)),
        ),
        m_basis=({"alpha1": 1}, {"alpha2": 1}),
        group_name="SL2^2",
        space_type="symmetric",
    )


def _sl2sq_ntxt(p):
    return dict(
        sigma=((1, 0), (0, 1)),
        colors=(
            ("clubs", {"a1"}, (2, 0)),
            ("spades", {"a2"}, (0, 1)),
            ("diamonds", {"a2"}, (0, 1)),
        ),
        m_basis=({"alpha1": 2}, {"alpha2": 1}),
        group_name="SL2^2",
        space_type="symmetric",
    )


def _sl2sq_ntxnt(p):
    return dict(
        sigma=((1, 0), (0, 1)),
        colors=(("clubs", {"a1"}, (2, 0)), ("spades", {"a2"}, (0, 2))),
        m_basis=({"alpha1": 2}, {"alpha2": 2}),
        group_name="SL2^2",
        space_type="symmetric",
    )


def _sl2sq_diag_nt(p):
    return dict(
        sigma=((1, 1), (1, -1)),
        colors=(("clubs", {"a1"}, (1, 1)), ("spades", {"a2"}, (1, -1))),
        m_basis=({"alpha1": 1, "alpha2": 1}, {"alpha1": 1, "alpha2": -1}),
        group_name="SL2^2",
        space_type="symmetric",
    )


def _sl2sq_pi_t(p):
    a1, a2 = p["a1"], p["a2"]
    if a1 % 2 == 0:
        half = a1 // 2
        return dict(
            sigma=((1, 0),),
            colors=(
                ("clubs", {"a1"}, (1, half)), ("hearts", {"a1"}, (1, -half)), ("diamonds", {"a2"})
            ),
            m_basis=({"alpha1": 1}, {"w2": a2, "x1": 1}),
            group_name="SL2^2xGm",
            space_type="typeT",
        )
    hi, lo = (a1 + 1) // 2, (1 - a1) // 2
    return dict(
        sigma=((1, 1),),
        colors=(("clubs", {"a1"}, (hi, lo)), ("hearts", {"a1"}, (lo, hi)), ("diamonds", {"a2"})),
        m_basis=({"w1": 1, "w2": a2, "x1": 1}, {"w1": 1, "w2": -a2, "x1": -1}),
        group_name="SL2^2xGm",
        space_type="typeT",
    )


def _sl2sq_pi_n_product(p):
    a2 = p["a2"]
    return dict(
        sigma=((1, 0),),
        colors=(("clubs", {"a1"}, (2, 0)), ("diamonds", {"a2"})),
        m_basis=({"alpha1": 2}, {"w2": a2, "x1": 1}),
        group_name="SL2^2xGm",
        space_type="typeN",
    )


def _sl2sq_pi_n_diag(p):
    a2 = p["a2"]
    return dict(
        sigma=((1, 1),),
        colors=(("clubs", {"a1"}, (1, 1)), ("diamonds", {"a2"})),
        m_basis=({"alpha1": 1, "w2": a2, "x1": 1}, {"alpha1": 1, "w2": -a2, "x1": -1}),
        group_name="SL2^2xGm",
        space_type="typeN",
    )


def _sl2sq_horo2(p):
    a1, a2, b2 = p["a1"], p["a2"], p["b2"]
    return dict(
        sigma=(),
        colors=(("clubs", {"a1"}), ("hearts", {"a2"})),
        m_basis=({"w1": a1, "w2": a2, "x1": 1}, {"w2": b2, "x2": 1}),
        group_name="SL2^2xGm^2",
        space_type="horospherical",
    )


def _sl3_horo2(p):
    a1 = p["a1"]
    return dict(
        sigma=(),
        colors=(("clubs", {"a1"}),),
        m_basis=({"w1": a1, "x1": 1}, {"x2": 1}),
        group_name="SL3xGm^2",
        space_type="horospherical",
    )


# ---------------------------------------------------------------------------
# family table


FAMILY_ROWS: list[FamilySpec] = [
    # dimension 1
    FamilySpec("toric", 1, 1, _toric, "n = 1", _pb({"n": 1})),

    # dimension 2, rank 1
    FamilySpec("SL2.T", 2, 1, _sl2_t, "no parameters", _pb({})),
    FamilySpec("SL2.N", 2, 1, _sl2_n, "no parameters", _pb({})),
    FamilySpec(
        "SL2xGm.horo",
        2,
        1,
        _sl2gm_horo,
        "n = 1, a1 in {0, 1}",  # a1 >= 2 has no locally factorial Fano embedding
        _pb({"n": 1, "a1": 0}, {"n": 1, "a1": 1}),
        product_note="a1=0: product P1 x P1 with the toric factor",
    ),

    # dimension 2, rank 2
    FamilySpec("toric", 2, 2, _toric, "n = 2", _pb({"n": 2})),

    # dimension 3, rank 1
    FamilySpec("SL2sq.diagSL2", 3, 1, _sl2sq_diag_sl2, "no parameters", _pb({})),
    FamilySpec("SL2sq.NdiagSL2", 3, 1, _sl2sq_ndiag_sl2, "no parameters", _pb({})),
    FamilySpec(
        "SL2sq.horo1",
        3,
        1,
        _horo("SL2^2", "a1", "a2"),
        "a1 >= |a2|, both in {-1, 0, 1}",  # |ai| >= 2 excluded by the color conditions
        _pb({"a1": 0, "a2": 0}, {"a1": 1, "a2": 0}, {"a1": 1, "a2": 1}, {"a1": 1, "a2": -1}),
        product_note="a2=0: product of P1 with a rank-one horospherical SL2xGm space",
    ),
    FamilySpec(
        "SL3.horo.Q",
        3,
        1,
        _horo("SL3", "a1"),
        "a1 in {0, 1, 2}",  # a1/3 interior forces a1 <= 2; vertex forces a1 = 1
        _pb({"a1": 0}, {"a1": 1}, {"a1": 2}),
        product_note="a1=0: product P2 x Gm",
    ),

    # dimension 3, rank 2
    FamilySpec(
        "SL2xGm.T",
        3,
        2,
        _sl2gm_t,
        "a1 in {0, 1, 2}",  # no reflexive polytopes for a1 >= 3
        _pb({"a1": 0}, {"a1": 1}, {"a1": 2}),
        product_note="a1=0: product of SL2/T surface with the torus factor",
    ),
    FamilySpec("SL2xGm.N.product", 3, 2, _sl2gm_n_product, "no parameters", _pb({})),
    FamilySpec("SL2xGm.N.diag", 3, 2, _sl2gm_n_diag, "no parameters", _pb({})),
    FamilySpec(
        "SL2xGm.horo",
        3,
        2,
        _sl2gm_horo,
        "n = 2, a1 in {0, 1}",
        _pb({"n": 2, "a1": 0}, {"n": 2, "a1": 1}),
        product_note="a1=0: products of P1 with the five toric surfaces",
    ),

    # dimension 4, rank 1
    FamilySpec("SL3.sym", 4, 1, _sl3_sym, "no parameters", _pb({})),
    FamilySpec("SL3.horosym", 4, 1, _sl3_horosym, "no parameters", _pb({})),
    FamilySpec("SL3.Nhorosym", 4, 1, _sl3_nhorosym, "no parameters", _pb({})),  # zero embeddings
    FamilySpec(
        "SL3.horo.B",
        4,
        1,
        _horo("SL3", "a1", "a2"),
        "a1 >= |a2|, both in {-1, 0, 1}",
        _pb({"a1": 0, "a2": 0}, {"a1": 1, "a2": 0}, {"a1": 1, "a2": 1}, {"a1": 1, "a2": -1}),
        product_note="(0,0): product W x P1",
    ),
    FamilySpec("Sp4.Nsym", 4, 1, _sp4_nsym, "no parameters", _pb({})),
    FamilySpec("Sp4.sym", 4, 1, _sp4_sym, "no parameters", _pb({})),
    FamilySpec(
        "SL3xSL2.QxT", 4, 1, _times(_sl2_t, "SL3xSL2", "diamonds"), "no parameters",
        _pb({}), product_note="P2 x (SL2/T)",
    ),
    FamilySpec(
        "SL3xSL2.QxNT", 4, 1, _times(_sl2_n, "SL3xSL2", "diamonds"), "no parameters",
        _pb({}), product_note="P2 x (SL2/N(T))",
    ),
    FamilySpec(
        "SL2cube.BdiagSL2", 4, 1, _times(_sl2sq_diag_sl2, "SL2^3", "diamonds"), "no parameters",
        _pb({}), product_note="P1 x Q3",
    ),
    FamilySpec(
        "SL2cube.BNdiagSL2", 4, 1, _times(_sl2sq_ndiag_sl2, "SL2^3", "diamonds"), "no parameters",
        _pb({}), product_note="P1 x P3",
    ),
    FamilySpec(
        "SL2cube.BBxT", 4, 1, _times(_sl2_t, "SL2^3", "diamonds", "spades"), "no parameters",
        _pb({}), product_note="P1 x P1 x (SL2/T)",
    ),
    FamilySpec(
        "SL2cube.BBxNT", 4, 1, _times(_sl2_n, "SL2^3", "diamonds", "spades"), "no parameters",
        _pb({}), product_note="P1 x P1 x (SL2/N(T))",
    ),
    FamilySpec(
        "SL2cube.horo",
        4,
        1,
        _horo("SL2^3", "a1", "a2", "a3"),
        "a1 >= |a2| >= |a3| in {-1, 0, 1}, signs up to a global flip",
        # (1,-1,-1) is the same subgroup as (1,1,-1) after replacing chi by -chi
        # and permuting the factors, so it is not listed separately.
        _pb(
            {"a1": 0, "a2": 0, "a3": 0},
            {"a1": 1, "a2": 0, "a3": 0},
            {"a1": 1, "a2": 1, "a3": 0},
            {"a1": 1, "a2": -1, "a3": 0},
            {"a1": 1, "a2": 1, "a3": 1},
            {"a1": 1, "a2": 1, "a3": -1},
        ),
        product_note="a3=0: product of P1 with a rank-one horospherical SL2^2xGm space",
    ),
    FamilySpec(
        "SL3xSL2.horo",
        4,
        1,
        _horo("SL3xSL2", "a1", "a3"),
        "a1 in {0, 1, 2}; a3 in {-1, 0, 1}, a3 >= 0 when a1 = 0",
        _pb(
            {"a1": 0, "a3": 0},
            {"a1": 0, "a3": 1},
            {"a1": 1, "a3": 0},
            {"a1": 2, "a3": 0},
            {"a1": 1, "a3": 1},
            {"a1": 1, "a3": -1},
            {"a1": 2, "a3": 1},
            {"a1": 2, "a3": -1},
        ),
        product_note="a1=0 or a3=0: product with P2 or P1 factors",
    ),
    FamilySpec(
        "Sp4.horo.short",
        4,
        1,
        _horo("Sp4", "a1"),
        "a1 in {0, 1, 2, 3}",  # m = 4 allows a1/4 interior up to a1 = 3
        _pb({"a1": 0}, {"a1": 1}, {"a1": 2}, {"a1": 3}),
        product_note="a1=0: P3 x P1",
    ),
    FamilySpec(
        "Sp4.horo.long",
        4,
        1,
        _horo("Sp4", "a2"),
        "a2 in {0, 1, 2}",
        _pb({"a2": 0}, {"a2": 1}, {"a2": 2}),
        product_note="a2=0: Q3 x P1",
    ),
    FamilySpec(
        "SL4.horo",
        4,
        1,
        _horo("SL4", "a1"),
        "a1 in {0, 1, 2, 3}",
        _pb({"a1": 0}, {"a1": 1}, {"a1": 2}, {"a1": 3}),
        product_note="a1=0: P3 x P1",
    ),

    # dimension 4, rank 2
    FamilySpec("SL2sqxGm.diagSL2", 4, 2, _sl2sqgm_diag_sl2, "no parameters", _pb({})),
    FamilySpec("SL2sqxGm.NdiagSL2", 4, 2, _sl2sqgm_ndiag_sl2, "no parameters", _pb({})),
    FamilySpec("SL2sq.GL2", 4, 2, _sl2sq_gl2, "no parameters", _pb({})),
    FamilySpec("SL2sq.diagB", 4, 2, _sl2sq_diag_b, "no parameters", _pb({})),
    FamilySpec("SL2sq.NdiagB", 4, 2, _sl2sq_ndiag_b, "no parameters", _pb({})),
    FamilySpec("SL2sq.TxT", 4, 2, _sl2sq_txt, "no parameters", _pb({})),
    FamilySpec("SL2sq.NTxT", 4, 2, _sl2sq_ntxt, "no parameters", _pb({})),
    FamilySpec("SL2sq.NTxNT", 4, 2, _sl2sq_ntxnt, "no parameters", _pb({})),
    FamilySpec("SL2sq.diagNT", 4, 2, _sl2sq_diag_nt, "no parameters", _pb({})),
    FamilySpec(
        "SL2sq.PI-T",
        4,
        2,
        _sl2sq_pi_t,
        "a1 in {0, 1, 2}, a2 in {0, 1}",  # a1 >= 3 empty; a2 >= 2 excluded by the color point conditions
        _pb(
            {"a1": 0, "a2": 0},
            {"a1": 1, "a2": 0},
            {"a1": 2, "a2": 0},
            {"a1": 0, "a2": 1},
            {"a1": 1, "a2": 1},
            {"a1": 2, "a2": 1},
        ),
        product_note="a2=0: products of P1 with the type-T threefolds (14 of them)",
    ),
    FamilySpec(
        "SL2sq.PI-N.product",
        4,
        2,
        _sl2sq_pi_n_product,
        "a2 in {0, 1}",
        _pb({"a2": 0}, {"a2": 1}),
        product_note="a2=0: products of P1 with the N-product threefolds",
    ),
    FamilySpec(
        "SL2sq.PI-N.diag",
        4,
        2,
        _sl2sq_pi_n_diag,
        "a2 in {0, 1}",
        _pb({"a2": 0}, {"a2": 1}),
        product_note="a2=0: products of P1 with the N-diagonal threefolds",
    ),
    FamilySpec(
        "SL2sq.horo2",
        4,
        2,
        _sl2sq_horo2,
        "(a2,b2) in {(0,0),(0,1),(1,2),(1,3),(2,3)} with a1 = 1 unless a2 = b2 = 0",
        _pb(
            {"a1": 0, "a2": 0, "b2": 0},
            {"a1": 1, "a2": 0, "b2": 0},
            {"a1": 1, "a2": 0, "b2": 1},
            {"a1": 1, "a2": 1, "b2": 2},
            {"a1": 1, "a2": 1, "b2": 3},  # explored and empty
            {"a1": 1, "a2": 2, "b2": 3},
        ),
        product_note="a2=b2=0: products of P1 with rank-two horospherical SL2xGm^2 threefolds",
    ),
    FamilySpec(
        "SL3.horo2",
        4,
        2,
        _sl3_horo2,
        "a1 in {0, 1, 2}",
        _pb({"a1": 0}, {"a1": 1}, {"a1": 2}),
        product_note="a1=0: products of P2 with the five toric surfaces",
    ),
]

# rank 0 static rows
FAMILY_ROWS += [
    FamilySpec("rank0", d, 0, None, f"row {k}: {g} acting on {s}", _pb({"row": k}))
    for k, (g, s, d, _, _) in enumerate(RANK0_TABLE)
]


def families(dim_filter=None, rank_filter=None) -> list[FamilySpec]:
    """Registry rows whose dimension and rank match filters within DIMS and RANKS."""
    dims = sorted(set(dim_filter)) if dim_filter is not None else list(DIMS)
    ranks = sorted(set(rank_filter)) if rank_filter is not None else list(RANKS)
    if not set(dims).issubset(DIMS) or not set(ranks).issubset(RANKS):
        raise InvalidConfig(f"dims must lie in 1..4 and ranks in 0..2, got {dims} and {ranks}")
    return [f for f in FAMILY_ROWS if f.dim in dims and f.rank in ranks]


def family_spec(fid: str, params: dict) -> FamilySpec:
    key = params_key(params)
    for f in FAMILY_ROWS:
        if f.id == fid and key in f.param_bound:
            return f
    for f in FAMILY_ROWS:
        if f.id == fid:
            raise ParamsOutOfDomain(f"{fid}: params {params} not in the admissible bound")
    raise UnknownFamily(fid)


# ---------------------------------------------------------------------------
# kappa and the density from the root system (Brion, Duke Math. J. 58, 1989)


# per simple factor: the Gram matrix of the simple roots and the positive
# roots in simple-root coordinates; in C2 (Sp4) alpha_1 is short
ROOT_TABLE = {
    "SL2": (((2,),), ((1,),)),
    "SL3": (((2, -1), (-1, 2)), ((1, 0), (0, 1), (1, 1))),
    "SL4": (
        ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)),
    ),
    "Sp4": (((1, -1), (-1, 2)), ((1, 0), (0, 1), (1, 1), (2, 1))),
}


def _root_data(group_name: str) -> tuple[list, list]:
    """The Gram matrix and the positive roots of a product group, the simple
    roots numbered across its factors in order; Gm adds none."""
    gram, roots = [], []
    for factor in group_name.split("x"):
        name, _, power = factor.partition("^")
        for _ in range(0 if name == "Gm" else int(power or 1)):
            g, rs = ROOT_TABLE[name]
            k, n = len(gram), len(g)
            gram = [row + [0] * n for row in gram] + [[0] * k + list(row) for row in g]
            roots = [r + (0,) * n for r in roots] + [(0,) * k + r for r in rs]
    return gram, roots


def _doubled_products(weight: dict[str, int], gram: list) -> list[int]:
    """2 (alpha_j, lambda) for each simple root alpha_j, where lambda = sum c s
    over the alpha_i, the fundamental weights w_i, with (w_i, alpha_j) half of
    (alpha_j, alpha_j) if i = j and 0 otherwise, and the x_i, which are
    orthogonal to every root."""
    out = [0] * len(gram)
    for sym, c in weight.items():
        kind = sym.rstrip("0123456789")
        i = int(sym[len(kind):]) - 1
        if kind == "alpha":
            out = [o + 2 * c * g for o, g in zip(out, gram[i])]
        elif kind == "w":
            out[i] += c * gram[i][i]
    return out


def derive(spec: FamilySpec, params: dict) -> CombinatorialData:
    """The builder's data at params, completed from the root system by
    `_root_terms`; params are not checked against the bound."""
    fields = spec.builder(params)
    f, kappa_expr, fields["m_basis"], fields["colors"] = _root_terms(spec, params_key(params))
    return CombinatorialData(spec.rank, spec.dim, f=f, kappa_expr=kappa_expr, **fields)


@cache
def _root_terms(spec: FamilySpec, key: tuple) -> tuple:
    """The density, kappa, the basis labels and the colors of one instance,
    memoised, so that a repeated `build` costs the builder call alone.

    kappa is the sum of the positive roots beta outside the Levi, whose
    simple roots lie in no color's zeta.  The density is the product over
    those roots of <beta^v, kappa + x> / <beta^v, rho> with x = sum u_i m_i:
    one factor per root in table order, equal factors merged into one with a
    multiplicity.  A color with a stated rho (type a or 2a) has m = 1; any
    other (type b) has rho = alpha^v|_M and m = <kappa, alpha^v> for each
    simple root alpha that moves it (Luna, Publ. Math. IHES 94, 2001;
    Gagliardi-Hofscheier, arXiv:1404.2785).
    """
    params = dict(key)
    fields = spec.builder(params)
    gram, roots = _root_data(fields["group_name"])
    zeta = set().union(*(c[1] for c in fields["colors"]))
    outer = [b for b in roots if any(c and f"a{j + 1}" in zeta for j, c in enumerate(b))]
    kappa = [sum(col) for col in zip(*outer)]
    kappa_products = [2 * sum(k * g for k, g in zip(kappa, row)) for row in gram]
    m_products = [_doubled_products(m, gram) for m in fields["m_basis"]]
    norms = {b: sum(x * g * y for x, row in zip(b, gram) for g, y in zip(row, b)) for b in outer}

    def coroot(beta, products) -> int:
        # <beta^v, lambda> = 2 (beta, lambda) / (beta, beta)
        q, r = divmod(sum(b * p for b, p in zip(beta, products)), norms[beta])
        if r:
            raise RootDataMismatch(f"{spec.id} {params}: a pairing with {beta}^v is not integral")
        return q

    def color(label, moved_by, rho=None):
        if rho is not None:
            return Color(label, rho, 1, frozenset(moved_by))
        simple = [tuple(int(j == int(a[1:]) - 1) for j in range(len(gram))) for a in moved_by]
        found = {(tuple(coroot(e, m) for m in m_products), coroot(e, kappa_products)) for e in simple}
        if len(found) != 1:
            raise RootDataMismatch(f"{spec.id} {params}: the roots moving {label} restrict differently")
        ((rho, m),) = found
        return Color(label, rho, m, frozenset(moved_by))

    colors = tuple(color(*c) for c in fields["colors"])
    denominator, factors = 1, Counter()
    for beta in outer:
        denominator *= coroot(beta, [row[j] for j, row in enumerate(gram)])  # rho = sum w_j
        factors[coroot(beta, kappa_products), tuple(coroot(beta, m) for m in m_products)] += 1
    f = dh(Fraction(1, denominator), *((c, lin, k) for (c, lin), k in factors.items()))
    kappa_expr = _basis_str({f"alpha{j + 1}": k for j, k in enumerate(kappa)})
    return f, kappa_expr, tuple(map(_basis_str, fields["m_basis"])), colors


def build(fid: str, params: dict | None = None) -> CombinatorialData:
    """The combinatorial data of one homogeneous space, in its fixed M-basis."""
    params = dict(params or {})
    spec = family_spec(fid, params)
    if spec.builder is None:
        raise UnknownFamily(f"{fid} has no combinatorial data (static rank-0 entry)")
    return derive(spec, params)


# ---------------------------------------------------------------------------
# admissible symmetry groups


def data_preserving_permutation(data: CombinatorialData, M) -> tuple | None:
    """A color permutation making M an automorphism of the data, or None.

    Checks exactly: M maps the spherical roots to themselves (via the inverse
    transpose on weights), permutes the color points compatibly with rho and
    m, and leaves the density f invariant.
    """
    Minv = unimodular_inverse(M)
    # action on weights is the transpose of the inverse action on N
    mt = tuple(tuple(Minv[j][i] for j in range(len(Minv))) for i in range(len(Minv)))
    sigma_img = {apply_matrix(mt, s) for s in data.sigma}
    if sigma_img != set(data.sigma):
        return None
    # match colors: image of rho must hit a color with the same m
    n = len(data.colors)
    taken = [False] * n
    perm = [None] * n
    for i, c in enumerate(data.colors):
        img = apply_matrix(M, c.rho)
        for j, d in enumerate(data.colors):
            if not taken[j] and d.rho == img and d.m == c.m:
                taken[j] = True
                perm[i] = j
                break
        else:
            return None
    # f invariance: f(M^T x) == f(x), where c + <l, M^T x> = c + <M l, x>
    moved = [(c, apply_matrix(M, lin), mult) for c, lin, mult in data.f.factors]
    if _factored(data.f.prefactor, moved) != _factored(data.f.prefactor, data.f.factors):
        return None
    return tuple(perm)


def _factored(prefactor, factors) -> tuple:
    """The prefactor and the factor multiset of prefactor * prod (c + <l, x>)^mult,
    normalised so that equal densities give equal results.

    Each factor is divided by c, or, when c = 0, by the first nonzero entry
    of l; factors with l = 0 fold into the prefactor.  The normalised linear
    factors are irreducible and pairwise non-associate, so by unique
    factorisation in Q[x] two densities are equal exactly when these agree.
    """
    pre, out = Fraction(prefactor), Counter()
    for c, lin, mult in factors:
        if not any(lin):
            pre *= c**mult
            continue
        unit = Fraction(c or next(a for a in lin if a))
        pre *= unit**mult
        out[c / unit, tuple(a / unit for a in lin)] += mult
    return pre, out


def _anchors(data: CombinatorialData) -> list[tuple[int, int]]:
    """The primitive directions, both signs, that every automorphism permutes.

    These are the nonzero color rho's, the nonzero linear parts of the
    density factors and the kernels of the spherical roots: an automorphism
    M maps rho to rho, the factors of f to factors of f, and the kernel of
    each root to the kernel of its image root.
    """
    dirs = [c.rho for c in data.colors]
    dirs += [lin for _, lin, _ in data.f.factors]
    dirs += [(-s[1], s[0]) for s in data.sigma]
    out = set()
    for d in dirs:
        if any(d):
            p = primitive(d)
            out.update((p, (-p[0], -p[1])))
    return sorted(out)


def _rank2_group(data: CombinatorialData) -> SymmetryGroup:
    anchors = _anchors(data)
    if not anchors:
        return SymmetryGroup(FULL_UNIMODULAR)
    a = anchors[0]
    b = next((v for v in anchors if det2(a, v)), None)
    if b is None:
        # every anchor on one line: shears along it, possibly with the
        # reflection.  The shear class fixes the x-axis pointwise, so it cannot
        # hold another line or an automorphism negating the line, and it
        # assumes the unit shear, hence every shear, preserves the data
        line = max(anchors)
        preserved = [
            data_preserving_permutation(data, M) is not None
            for M in (((1, 1), (0, 1)), ((-1, 0), (0, 1)), ((-1, 0), (0, -1)))
        ]
        if line != (1, 0) or preserved != [True, False, False]:
            raise UnsupportedSymmetry(f"anchors on the line through {line} need another group kind")
        return SymmetryGroup(
            SHEAR,
            fixed_vector=line,
            reflection=data_preserving_permutation(data, ((1, 0), (0, -1))) is not None,
        )
    # an automorphism is fixed by the images of the independent pair (a, b),
    # and those images are anchors: M = [a' b'] [a b]^-1
    d = det2(a, b)
    found = []
    for a2 in anchors:
        for b2 in anchors:
            if abs(det2(a2, b2)) != abs(d):
                continue
            num = tuple(
                (a2[i] * b[1] - b2[i] * a[1], b2[i] * a[0] - a2[i] * b[0]) for i in range(2)
            )
            if any(x % d for row in num for x in row):
                continue
            M = tuple(tuple(x // d for x in row) for row in num)
            perm = data_preserving_permutation(data, M)
            if perm is not None:
                found.append((M != _ID, M, perm))
    if len(found) == 1:
        return SymmetryGroup(TRIVIAL)
    found.sort()
    return SymmetryGroup(
        FINITE, tuple(M for _, M, _ in found), tuple(perm for _, _, perm in found)
    )


def symmetry_group(fid: str, params: dict | None = None) -> SymmetryGroup:
    """The admissible lattice-symmetry group of one family instance.

    Derived from the combinatorial data alone and memoised per instance.
    """
    return _symmetry_group(fid, params_key(dict(params or {})))


@cache
def _symmetry_group(fid: str, key: tuple) -> SymmetryGroup:
    params = dict(key)
    if fid == "rank0":
        family_spec(fid, params)
        return SymmetryGroup(TRIVIAL)
    data = build(fid, params)
    if data.rank == 2:
        return _rank2_group(data)
    # rank 1: negation is admissible exactly when it preserves the data
    perms = tuple(data_preserving_permutation(data, M) for M in (_ID1, _NEG1))
    if perms[1] is None:
        return SymmetryGroup(TRIVIAL)
    return SymmetryGroup(FINITE, (_ID1, _NEG1), perms)


def registry_json() -> list[dict]:
    """The whole registry as JSON-ready rows, with each instance's derived group
    (the output of `sphfano families --json`)."""
    out = []
    for spec in FAMILY_ROWS:
        entry = {
            "id": spec.id,
            "dim": spec.dim,
            "rank": spec.rank,
            "param_domain": spec.param_domain,
            "param_bound": [dict(p) for p in spec.param_bound],
            "product_note": spec.product_note,
        }
        if spec.id != "rank0":
            syms = []
            for p in spec.params_list():
                g = symmetry_group(spec.id, p)
                syms.append(
                    {
                        "params": p,
                        "kind": g.kind,
                        "matrices": [[list(r) for r in m] for m in g.matrices],
                        "fixed_vector": list(g.fixed_vector),
                        "reflection": g.reflection,
                    }
                )
            entry["symmetry"] = syms
        out.append(entry)
    return out
