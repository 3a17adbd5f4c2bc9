"""Combinatorial data of a spherical homogeneous space and the Fano polytope test.

A homogeneous space enters all computations through its combinatorial
invariants: the rank of its weight lattice, the spherical roots written in a
fixed basis, the colors (each with a lattice vector rho, a positive weight m
and a formal set zeta of simple-root labels), and the Duistermaat-Heckman
density as an explicit product of affine forms.

`check_reflexive` evaluates, literally and exactly, the four conditions
defining the polytopes that classify locally factorial Fano equivariant
embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import (
    Polynomial,
    RationalPolytope,
    is_lattice_basis,
    rat_str,
    parse_rat,
    within_facets,
)

INTERIOR = "Interior"
BOUNDARY = "Boundary"
OUTSIDE = "Outside"


class RankMismatch(ValueError):
    pass


@dataclass(frozen=True)
class Color:
    label: str
    rho: tuple[int, ...]
    m: int
    zeta: frozenset[str] = frozenset()

    def point(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.m) for c in self.rho)


@dataclass(frozen=True)
class DHPolynomial:
    """prefactor * prod (constant + <linear, x>)^multiplicity."""

    prefactor: Fraction
    factors: tuple[tuple[Fraction, tuple[int, ...], int], ...]

    def expand(self, rank: int) -> Polynomial:
        p = Polynomial.constant(rank, self.prefactor)
        for const, lin, mult in self.factors:
            base = Polynomial.affine(rank, const, lin)
            for _ in range(mult):
                p = p * base
        return p

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


@dataclass(frozen=True)
class CombinatorialData:
    rank: int
    dim: int
    sigma: tuple[tuple[int, ...], ...]
    colors: tuple[Color, ...]
    f: DHPolynomial
    kappa_expr: str
    m_basis: tuple[str, ...]
    group_name: str
    space_type: str

    def color_points(self) -> list[tuple[Fraction, ...]]:
        return [c.point() for c in self.colors]

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "dim": self.dim,
            "sigma": [list(s) for s in self.sigma],
            "colors": [
                {"label": c.label, "rho": list(c.rho), "m": c.m, "zeta": sorted(c.zeta)}
                for c in self.colors
            ],
            "f": {
                "prefactor": rat_str(self.f.prefactor),
                "factors": [
                    {"c": rat_str(c), "a": list(a), "mult": m} for c, a, m in self.f.factors
                ],
            },
            "kappa": self.kappa_expr,
            "basis": list(self.m_basis),
            "group": self.group_name,
            "type": self.space_type,
        }

    @staticmethod
    def from_json(d: dict) -> "CombinatorialData":
        return CombinatorialData(
            rank=d["rank"],
            dim=d["dim"],
            sigma=tuple(tuple(s) for s in d["sigma"]),
            colors=tuple(
                Color(c["label"], tuple(c["rho"]), c["m"], frozenset(c["zeta"]))
                for c in d["colors"]
            ),
            f=DHPolynomial(
                parse_rat(d["f"]["prefactor"]),
                tuple(
                    (parse_rat(f["c"]), tuple(f["a"]), f["mult"]) for f in d["f"]["factors"]
                ),
            ),
            kappa_expr=d["kappa"],
            m_basis=tuple(d["basis"]),
            group_name=d["group"],
            space_type=d["type"],
        )


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violations: tuple[tuple[str, str], ...] = ()

    def __bool__(self):
        return self.ok


def valuation_cone_position(data: CombinatorialData, x) -> str:
    """Position of x relative to the cone {y : <sigma, y> <= 0 for all sigma}."""
    x = tuple(Fraction(c) for c in x)
    if len(x) != data.rank:
        raise RankMismatch(f"point of length {len(x)} against rank {data.rank}")
    on_boundary = False
    for s in data.sigma:
        v = sum(Fraction(a) * b for a, b in zip(s, x))
        if v > 0:
            return OUTSIDE
        if v == 0:
            on_boundary = True
    return BOUNDARY if on_boundary else INTERIOR


def color_points(data: CombinatorialData) -> list[tuple[Fraction, ...]]:
    return data.color_points()


def cone_over_face_meets_interior(data: CombinatorialData, face_vertices) -> bool:
    """Whether the cone over a facet meets the (relative) interior of the valuation cone.

    Rank 1: the facet is one point and the test is whether its ray lies in the
    open cone.  Rank 2: every ray of the cone over the edge [v1, v2] passes
    through the segment, so the test reduces to a rational interval
    intersection, one interval per spherical root.
    """
    if not data.sigma:
        return True
    if len(face_vertices) == 1:
        return valuation_cone_position(data, face_vertices[0]) == INTERIOR
    v1, v2 = face_vertices
    lo, hi = Fraction(0), Fraction(1)
    lo_strict = hi_strict = False
    for s in data.sigma:
        a = sum(Fraction(si) * c for si, c in zip(s, v1))
        b = sum(Fraction(si) * c for si, c in zip(s, v2))
        # need a + t(b - a) < 0 on [0, 1]
        d = b - a
        if d == 0:
            if a >= 0:
                return False
            continue
        t0 = -a / d
        if d > 0:
            # t < t0
            if t0 < hi or (t0 == hi and not hi_strict):
                hi, hi_strict = t0, True
        else:
            # t > t0
            if t0 > lo or (t0 == lo and not lo_strict):
                lo, lo_strict = t0, True
    if lo > hi:
        return False
    if lo == hi and (lo_strict or hi_strict):
        return False
    return True


def _on_face(face_vertices, q) -> bool:
    """Whether q lies on the closed face: the point itself, or the segment."""
    if len(face_vertices) == 1:
        return q == face_vertices[0]
    (vx, vy), (wx, wy) = face_vertices
    dx, dy, rx, ry = wx - vx, wy - vy, q[0] - vx, q[1] - vy
    return dx * ry == dy * rx and 0 <= dx * rx + dy * ry <= dx * dx + dy * dy


def facet_violation(data: CombinatorialData, face_vertices, color_points):
    """Condition C4 on one facet: None, or the violated condition and its detail.

    The facet is given by its vertices alone, so the walk applies the same
    test to a candidate edge before any polygon exists; `color_points` are
    `data.color_points()`, computed once by the caller.  Only facets whose
    cone meets the open valuation cone are constrained.
    """
    if not cone_over_face_meets_interior(data, face_vertices):
        return None
    on_face = [
        (c.rho, q) for c, q in zip(data.colors, color_points) if _on_face(face_vertices, q)
    ]
    rhos = [rho for rho, _ in on_face]
    if any(rhos.count(rho) > 1 for rho in rhos):
        return "C4a", "colors with equal rho on a constrained facet"
    locs = [q for _, q in on_face]
    if any(q not in face_vertices for q in locs):
        return "C4b", "a color point lies on the facet but is not a vertex"
    rest = [v for v in face_vertices if v not in locs]
    if any(c.denominator != 1 for v in rest for c in v):
        return "C4b", "non-integral non-color vertex"
    basis = rhos + [tuple(int(c) for c in v) for v in rest]
    if not is_lattice_basis(basis):
        return "C4b", f"{basis} is not a lattice basis"
    return None


def check_reflexive(data: CombinatorialData, P: RationalPolytope) -> Verdict:
    """The four-condition test for locally factorial reflexivity of P.

    C1: 0 strictly interior.  C2: every color point in P.  C3: every vertex
    is an integer point of the closed valuation cone or coincides with a
    color point.  C4: on each facet whose cone meets the open valuation cone,
    the colors lying on the facet have pairwise distinct rho (C4a), all lie
    at vertices, and their rho vectors together with the remaining vertices
    form a basis of the lattice (C4b).
    """
    if P.rank != data.rank:
        raise RankMismatch(f"polytope rank {P.rank} against data rank {data.rank}")
    violations: list[tuple[str, str]] = []
    fs = P.facets()
    origin = (Fraction(0),) * data.rank
    if not within_facets(fs, origin, strict=True):
        violations.append(("C1", "origin is not strictly interior"))

    pts = data.color_points()
    for c, q in zip(data.colors, pts):
        if not within_facets(fs, q):
            violations.append(("C2", f"color {c.label} point {q} outside the polytope"))

    color_locations = set(pts)
    for v in P.vertices:
        if v in color_locations:
            continue
        if any(c.denominator != 1 for c in v):
            violations.append(("C3", f"vertex {v} is neither integral nor a color point"))
        elif valuation_cone_position(data, v) == OUTSIDE:
            violations.append(("C3", f"integral vertex {v} outside the valuation cone"))

    for f in fs:
        found = facet_violation(data, [P.vertices[i] for i in f.incident_vertices], pts)
        if found:
            violations.append((found[0], f"facet {f.normal}: {found[1]}"))
    return Verdict(not violations, tuple(violations))
