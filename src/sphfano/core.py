"""Combinatorial data of a spherical homogeneous space and the Fano polytope test.

A homogeneous space enters all computations through its combinatorial
invariants: the rank of its weight lattice, the spherical roots written in a
fixed basis, the colors (each with a lattice vector rho, a positive weight m
and a formal set zeta of simple-root labels), and the Duistermaat-Heckman
density as an explicit product of affine forms.

`check_reflexive` evaluates, literally and exactly, the four conditions
defining the polytopes that classify locally factorial Fano equivariant
embeddings.  It scales the polytope and the color points to integers once
and tests C1 and C2 on the half-planes of `geometry`'s integer kernel, and
C4 facet by facet; `edge_violation` (C2 and C4 on one edge) is the pair test
of the rank-2 walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import (
    DHPolynomial,
    RationalPolytope,
    dh,
    edge,
    half_planes,
    is_lattice_basis,
    outside,
    primitive,
    rat_str,
    parse_rat,
    scaled_ints,
    vec_str,
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
    """Position of x, rational or scaled, relative to {y : <sigma, y> <= 0}."""
    if len(x) != data.rank:
        raise RankMismatch(f"point of length {len(x)} against rank {data.rank}")
    on_boundary = False
    for s in data.sigma:
        v = sum(a * b for a, b in zip(s, x))
        if v > 0:
            return OUTSIDE
        if v == 0:
            on_boundary = True
    return BOUNDARY if on_boundary else INTERIOR


def cone_over_face_meets_interior(data: CombinatorialData, face_vertices) -> bool:
    """Whether the cone over a facet meets the (relative) interior of the valuation cone.

    Rank 1: the facet is one point and the test is whether its ray lies in the
    open cone.  Rank 2: every ray of the cone over the edge [v1, v2] passes
    through the segment, so the test reduces to an interval intersection, one
    interval per spherical root.  Bounds n/d (d > 0) are compared by
    cross-multiplication: exact on rational and on scaled integer points.
    """
    if not data.sigma:
        return True
    if len(face_vertices) == 1:
        return valuation_cone_position(data, face_vertices[0]) == INTERIOR
    v1, v2 = face_vertices
    lo_n, lo_d, hi_n, hi_d = 0, 1, 1, 1
    for s in data.sigma:
        a = sum(si * c for si, c in zip(s, v1))
        d = sum(si * c for si, c in zip(s, v2)) - a
        # need a + t d < 0 on [0, 1]
        if d == 0:
            if a >= 0:
                return False
            continue
        if d > 0:
            # t < -a / d
            if -a * hi_d <= hi_n * d:
                hi_n, hi_d = -a, d
        else:
            # t > a / -d
            if a * lo_d >= -lo_n * d:
                lo_n, lo_d = a, -d
    return lo_n * hi_d < hi_n * lo_d


# ---------------------------------------------------------------------------
# conditions C1, C2 and C4 on points scaled to integers


def scale_to_ints(data: CombinatorialData, points):
    """(S, points * S, color points * S), S the lcm of the points' denominators
    and the colors' m, so that every scaled coordinate is an integer."""
    S, pts = scaled_ints(points, *(c.m for c in data.colors))
    return S, pts, [tuple(r * S // c.m for r in c.rho) for c in data.colors]


def _on_face(face_vertices, q) -> bool:
    """Whether q lies on the closed face: the point itself, or the segment."""
    if len(face_vertices) == 1:
        return q == face_vertices[0]
    (vx, vy), (wx, wy) = face_vertices
    dx, dy, rx, ry = wx - vx, wy - vy, q[0] - vx, q[1] - vy
    return dx * ry == dy * rx and 0 <= dx * rx + dy * ry <= dx * dx + dy * dy


def facet_violation(data: CombinatorialData, face, colors, scale: int):
    """Condition C4 on one facet: None, or the violated condition and its detail.

    `face` holds the facet's vertices and `colors` the color points, all
    scaled by `scale` to integers (`scale_to_ints`).  The facet is given by
    its vertices alone, so the walk applies the same test to a candidate edge
    before any polygon exists.  Only facets whose cone meets the open
    valuation cone are constrained.
    """
    if not cone_over_face_meets_interior(data, face):
        return None
    rhos, locs = [], []
    for c, q in zip(data.colors, colors):
        if _on_face(face, q):
            if c.rho in rhos:
                return "C4a", "colors with equal rho on a constrained facet"
            rhos.append(c.rho)
            locs.append(q)
    if any(q not in face for q in locs):
        return "C4b", "a color point lies on the facet but is not a vertex"
    basis = rhos  # the colors' rho, then the remaining vertices
    for v in face:
        if v not in locs:
            if any(c % scale for c in v):
                return "C4b", "non-integral non-color vertex"
            basis.append(tuple(c // scale for c in v))
    if not is_lattice_basis(basis):
        return "C4b", f"[{', '.join(map(vec_str, basis))}] is not a lattice basis"
    return None


def edge_violation(data: CombinatorialData, p, q, colors, scale: int):
    """C2 and C4 on the counterclockwise edge p -> q, points scaled as for
    `facet_violation`: a polygon holds a point exactly when the point lies
    weakly left of each of its edges."""
    e = edge(p, q)
    for c, x in zip(data.colors, colors):
        if outside(e, x):
            return "C2", f"color {c.label} lies right of the edge"
    return facet_violation(data, e[2], colors, scale)


class NotReflexive(ValueError):
    """A polytope that `check_reflexive` rejects, where an accepted one is required."""


def check_reflexive(data: CombinatorialData, P: RationalPolytope) -> Verdict:
    """The four-condition test for locally factorial reflexivity of P.

    C1: 0 strictly interior.  C2: every color point in P.  C3: every vertex
    is an integer point of the closed valuation cone or coincides with a
    color point.  C4: on each facet whose cone meets the open valuation cone,
    the colors lying on the facet have pairwise distinct rho (C4a), all lie
    at vertices, and their rho vectors together with the remaining vertices
    form a basis of the lattice (C4b).  The violation texts print the
    rational points; the tests run on P scaled to integers.
    """
    if P.rank != data.rank:
        raise RankMismatch(f"polytope rank {P.rank} against data rank {data.rank}")
    violations: list[tuple[str, str]] = []
    scale, verts, colors = scale_to_ints(data, P.vertices)
    fs = half_planes(verts)
    if any(support <= 0 for _, support, _ in fs):
        violations.append(("C1", "origin is not strictly interior"))

    for c, q in zip(data.colors, colors):
        if any(outside(f, q) for f in fs):
            violations.append(("C2", f"color {c.label} point {vec_str(c.point())} outside the polytope"))

    color_locations = set(colors)
    for v, w in zip(P.vertices, verts):
        if w in color_locations:
            continue
        if any(c % scale for c in w):
            violations.append(("C3", f"vertex {vec_str(v)} is neither integral nor a color point"))
        elif valuation_cone_position(data, w) == OUTSIDE:
            violations.append(("C3", f"integral vertex {vec_str(v)} outside the valuation cone"))

    for n, _, f in fs:
        found = facet_violation(data, f, colors, scale)
        if found:
            violations.append((found[0], f"facet {vec_str(primitive(n))}: {found[1]}"))
    return Verdict(not violations, tuple(violations))
