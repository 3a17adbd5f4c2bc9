"""Exhaustive enumeration of the admissible polytopes of one homogeneous space.

Rank 1 is a finite check over candidate endpoint pairs.  Rank 2 is a
depth-first walk over strictly counterclockwise vertex sequences around the
origin, drawn from the integer points of a search box together with the
color points.  The walk runs in integer arithmetic on a successor graph of
the candidates, with the half-plane tests as bitmasks (`_SuccessorGraph`).
The pairwise test is `edge_violation`, conditions C2 and C4 of
`check_reflexive` on the candidates scaled to integers, through the same
kernel, so every closed cycle is reflexive by construction; it runs only on
pairs with a color endpoint or determinant one, the only possible edges.
Only closed cycles become polytopes; each still passes the reflexivity
check, and one that fails raises `PairTestMismatch`.

Where the family's group is infinite, the walk visits only normalised
copies.  For the full unimodular group it is rooted at the edge
(1,0) -> (0,1), which every canonical representative has; for the shears it
drops each closed cycle that `_shear`, the normalisation of the canonical
form, would move.  Every other walk, the shears' included, roots each cycle
at its lexicographic minimum.  Accepted polytopes are reduced to canonical
representatives, the least of finitely many images under the family's group
(`_normalisers`), and the result is certified afterwards: no canonical
representative may touch the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd as math_gcd

from .core import (
    BOUNDARY,
    INTERIOR,
    CombinatorialData,
    NotReflexive,
    RankMismatch,
    check_reflexive,
    edge_violation,
    scale_to_ints,
    valuation_cone_position,
)
from .geometry import (
    RationalPolytope,
    edge,
    outside,
    transform_polytope,
    unimodular_inverse,
    vertices_ccw_store,
)
from .registry import FULL_UNIMODULAR, SHEAR, TRIVIAL, InvalidConfig, SymmetryGroup, build
from .registry import symmetry_group


class BoundTooTight(RuntimeError):
    """An accepted polytope touched the search box; results may be incomplete."""


class CanonicalFormError(RuntimeError):
    """A polytope or group breaks an assumption the canonical form relies on."""


class PairTestMismatch(RuntimeError):
    """A closed cycle of the walk fails `check_reflexive`: the pair tests and
    the checker disagree."""


@dataclass(frozen=True)
class EnumConfig:
    box_bound: int = 5
    max_vertices: int = 8

    def __post_init__(self):
        # tiny boxes are admitted for oracle and certificate runs: a box too
        # small for a family surfaces as BoundTooTight after the walk.  The
        # default leaves room, as the largest published polygon is a hexagon
        # and the largest canonical vertex coordinate is 3
        if self.box_bound < 2 or self.max_vertices < 3:
            raise InvalidConfig(
                f"need box_bound >= 2 and max_vertices >= 3, got {self.box_bound}, {self.max_vertices}"
            )


@dataclass(frozen=True)
class CanonicalPolytope:
    polytope: RationalPolytope
    stabilizer_size: int


# ---------------------------------------------------------------------------
# canonical forms


def _store_key(P: RationalPolytope):
    return (len(P.vertices), P.vertices)


def _shear(verts) -> int:
    """The k for which the shear (x, y) -> (x + k y, y) puts the leftmost top
    vertex into [0, h), h the height (shears fix the x-axis, so no image is
    lexicographically least); scaling the points leaves k unchanged."""
    h = max(y for _, y in verts)
    return -(min(x for x, y in verts if y == h) // h)


def _normalisers(P: RationalPolytope, group: SymmetryGroup):
    """Finitely many group elements, among them every element that puts P in
    normal position; the canonical form is the least of their images.

    Trivial and finite groups give all their elements.  A shear family gives,
    per allowed sign s, the shear after diag(1, s) that normalises the top
    vertex (`_shear`).  The full unimodular group gives, per edge of P or of
    its mirror that is a lattice basis, the element sending it to e1 -> e2:
    Obro's edge normalisation (arXiv:0704.0049).
    """
    if group.kind == TRIVIAL:
        return [tuple(tuple(int(i == j) for j in range(P.rank)) for i in range(P.rank))]
    if group.kind == SHEAR:
        if tuple(group.fixed_vector) != (1, 0):
            raise CanonicalFormError("shear families fix (1,0)")
        out = []
        for s in (1, -1) if group.reflection else (1,):
            Q = [(x, s * y) for x, y in P.vertices]
            h = max(y for _, y in Q)
            if h.denominator != 1 or h <= 0:
                raise CanonicalFormError(f"shear family polytope of height {h}")
            out.append(((1, _shear(Q) * s), (0, s)))
        return out
    if group.kind == FULL_UNIMODULAR:
        if any(c.denominator != 1 for v in P.vertices for c in v):
            raise CanonicalFormError("full unimodular families have integral polytopes")
        out = []
        for s in (1, -1):
            # the counterclockwise cycle of diag(1, s) P
            ws = [(int(x), s * int(y)) for x, y in P.vertices[::s]]
            for a, b in zip(ws, ws[1:] + ws[:1]):
                if a[0] * b[1] - a[1] * b[0] in (1, -1):
                    (p, q), (r, t) = unimodular_inverse(((a[0], b[0]), (a[1], b[1])))
                    out.append(((p, q * s), (r, t * s)))
        if not out:
            raise CanonicalFormError("no edge of the polytope is a lattice basis")
        return out
    return group.matrices


def canonical_form(
    data: CombinatorialData,
    P: RationalPolytope,
    *,
    group: SymmetryGroup,
    check: bool = True,
) -> CanonicalPolytope:
    """The distinguished representative of P's orbit under the family group:
    the least image under `_normalisers`.  As the elements sending P to it
    form a coset of P's stabiliser, their count is the stabiliser's order."""
    if check and not check_reflexive(data, P).ok:
        raise NotReflexive("canonical_form expects an accepted polytope")
    images = [transform_polytope(g, P) for g in _normalisers(P, group)]
    best = min(images, key=_store_key)
    return CanonicalPolytope(best, images.count(best))


# ---------------------------------------------------------------------------
# rank 1


def enumerate_rank1(data: CombinatorialData, *, group: SymmetryGroup):
    """All admissible segments, canonically deduplicated.

    A non-color endpoint whose ray meets the open valuation cone must by
    itself be a lattice basis, so candidate endpoints are -1, +1 and the
    color points.
    """
    if data.rank != 1:
        raise RankMismatch("enumerate_rank1 needs rank-1 data")
    cands = {Fraction(-1), Fraction(1)}
    cands.update(q[0] for q in data.color_points())
    lows = sorted(c for c in cands if c < 0)
    highs = sorted(c for c in cands if c > 0)
    found = {}
    for lo in lows:
        for hi in highs:
            P = RationalPolytope(1, ((lo,), (hi,)))
            if check_reflexive(data, P).ok:
                cp = canonical_form(data, P, group=group, check=False)
                found[cp.polytope.vertices] = cp
    return sorted(found.values(), key=lambda c: _store_key(c.polytope))


# ---------------------------------------------------------------------------
# rank 2


def _candidate_points(data: CombinatorialData, cfg: EnumConfig):
    B = cfg.box_bound
    pts = {
        (Fraction(x), Fraction(y))
        for x in range(-B, B + 1)
        for y in range(-B, B + 1)
        if (x, y) != (0, 0)
        and valuation_cone_position(data, (x, y)) in (INTERIOR, BOUNDARY)
    }
    for q in data.color_points():
        if any(q):
            pts.add(q)
    return sorted(pts)


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


class _SuccessorGraph:
    """The candidates as scaled integer points, with the walk's pairwise tests.

    Candidate i keeps its index in the lexicographic order of the rational
    points; scaling by a common positive integer preserves that order.
    `succ[i]` is the bitmask of the successors j: the origin lies strictly
    left of i -> j (cross(v_i, v_j) > 0, C1) and the edge passes
    `edge_violation` (C2 and C4) on the scaled integers, tested only where it
    can pass: on a pair with a color endpoint or of determinant one (cross =
    S^2, S the scale).  Two non-color candidates with cross > 0 span a cone
    meeting the open valuation cone, so C4 fails on a color inside their
    edge and otherwise asks for a lattice basis (Obro, arXiv:0704.0049).
    `left(i, j)` is the bitmask of the candidates strictly left of the line
    i -> j, that is, strictly outside the edge j -> i.
    """

    def __init__(self, data: CombinatorialData, cands):
        scale, self.pts, colors = scale_to_ints(data, cands)
        self.succ = []
        for p in self.pts:
            mask = 0
            for j, q in enumerate(self.pts):
                c = p[0] * q[1] - p[1] * q[0]
                if (
                    c > 0
                    and (c == scale * scale or p in colors or q in colors)
                    and not edge_violation(data, p, q, colors, scale)
                ):
                    mask |= 1 << j
            self.succ.append(mask)
        self._left = {}

    def left(self, i, j):
        mask = self._left.get((i, j))
        if mask is None:
            e = edge(self.pts[j], self.pts[i])
            mask = 0
            for k, x in enumerate(self.pts):
                if outside(e, x):
                    mask |= 1 << k
            self._left[(i, j)] = mask
        return mask


def _closable_cycles(g: _SuccessorGraph, seq, allowed, inner, max_vertices):
    """Every closable extension of the vertex sequence seq, depth first.

    `allowed` is the mask of candidates strictly left of every committed edge,
    and for a walk rooted at its lexicographic minimum also after seq[0]; it
    subsumes the turn test and excludes every vertex of seq, each of which lies
    on a committed edge.  `inner` is the mask of seq[:-1].  The walk yields seq
    itself (mutated afterwards) whenever the edge seq[-1] -> seq[0] closes it
    into a strictly convex counterclockwise polygon around the origin.
    """
    last, first = seq[-1], seq[0]
    if (
        len(seq) >= 3
        and g.succ[last] >> first & 1
        and g.left(seq[-2], last) >> first & 1
        and not (inner ^ (1 << first)) & ~g.left(last, first)
    ):
        yield seq
    if len(seq) >= max_vertices:
        return
    cand = allowed & g.succ[last]
    while cand:
        low = cand & -cand
        cand ^= low
        j = low.bit_length() - 1
        edge = g.left(last, j)
        if inner & ~edge:  # an earlier vertex not strictly left of last -> j
            continue
        seq.append(j)
        yield from _closable_cycles(g, seq, allowed & edge, inner | (1 << last), max_vertices)
        seq.pop()


def enumerate_rank2(
    data: CombinatorialData,
    cfg: EnumConfig | None = None,
    *,
    group: SymmetryGroup,
):
    """Exhaustive counterclockwise vertex walk within the certified box."""
    if data.rank != 2:
        raise RankMismatch("enumerate_rank2 needs rank-2 data")
    cfg = cfg or EnumConfig()
    cands = _candidate_points(data, cfg)
    if group.kind == FULL_UNIMODULAR:
        # every canonical representative has the counterclockwise edge
        # e1 -> e2 (`_normalisers`), so walk only polygons
        # with that facet: their vertices satisfy x + y <= 1
        cands = [q for q in cands if q[0] + q[1] <= 1]
    g = _SuccessorGraph(data, cands)
    if group.kind == FULL_UNIMODULAR:
        e1, e2 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
        if e1 not in cands or e2 not in cands:
            raise CanonicalFormError("full unimodular families need e1 and e2 as candidates")
        i, j = cands.index(e1), cands.index(e2)
        roots = [([i, j], g.left(i, j), 1 << i)] if g.succ[i] >> j & 1 else []
    else:
        # one root per lexicographic minimum: the candidates after it
        roots = [([i0], (1 << len(cands)) - (2 << i0), 0) for i0 in range(len(cands))]
    accepted = []
    for seq, allowed, inner in roots:
        for cycle in _closable_cycles(g, seq, allowed, inner, cfg.max_vertices):
            if group.kind == SHEAR and _shear([g.pts[i] for i in cycle]):
                continue
            P = RationalPolytope(2, vertices_ccw_store([cands[i] for i in cycle]))
            verdict = check_reflexive(data, P)
            if not verdict.ok:
                raise PairTestMismatch(f"closed cycle {P.vertices} fails {verdict.violations}")
            accepted.append(P)

    found = {}
    for P in accepted:
        cp = canonical_form(data, P, group=group, check=False)
        found[cp.polytope.vertices] = cp

    # certification on canonical representatives: an infinite symmetry group
    # (shears, the full unimodular group) always produces equivalent copies
    # stretched against any box, so rawly accepted polytopes may touch it;
    # each class, however, must have its distinguished representative well
    # inside, otherwise the box plausibly truncated the search
    B = cfg.box_bound
    for cp in found.values():
        P = cp.polytope
        if len(P.vertices) > cfg.max_vertices - 1:
            raise BoundTooTight(f"polytope with {len(P.vertices)} vertices at the cap")
        for v in P.vertices:
            if abs(v[0]) > B - 1 or abs(v[1]) > B - 1:
                raise BoundTooTight(f"canonical vertex {v} touches the search box")

    return sorted(found.values(), key=lambda c: _store_key(c.polytope))


def enumerate_polytopes(fid, params=None, cfg=None):
    """Dispatch by rank; the entry point used by the catalog builder."""
    data, group = build(fid, params), symmetry_group(fid, params)
    if data.rank == 1:
        return enumerate_rank1(data, group=group)
    return enumerate_rank2(data, cfg=cfg, group=group)


def _angular_order(points):
    """Points sorted by angle around the origin, exactly (no floating point)."""

    def half(p):
        return 0 if (p[1] > 0 or (p[1] == 0 and p[0] > 0)) else 1

    def cmp(p, q):
        hp, hq = half(p), half(q)
        if hp != hq:
            return -1 if hp < hq else 1
        c = _cross(p, q)
        if c:
            return -1 if c > 0 else 1
        # same ray: nearer point first (any fixed tie-break works)
        return -1 if (abs(p[0]) + abs(p[1])) < (abs(q[0]) + abs(q[1])) else 1

    return sorted(points, key=cmp_to_key(cmp))


def brute_force_oracle(data: CombinatorialData, cfg: EnumConfig, *, group: SymmetryGroup):
    """Independent check path over raw vertex subsets.

    Generates every subset of the candidate points (up to max_vertices) whose
    convex hull contains the origin strictly and has the subset itself as
    vertex set, then filters by the full reflexivity check alone.  No
    facet-level feasibility pruning, no lexicographic anchoring and no
    position filtering is used, so agreement with enumerate_rank2, which
    leans on all three, is a meaningful cross-check.  Subsets in convex
    position are produced by a backtracking scan of the angular order; for a
    subset of angularly sorted points, being exactly the vertex set of its
    hull with the origin strictly inside is equivalent to all consecutive
    angular steps and all boundary turns being strictly positive.
    """
    if data.rank != 2:
        raise RankMismatch("brute_force_oracle needs rank-2 data")
    B = cfg.box_bound
    color_locs = {q for q in data.color_points() if any(q)}

    def eligible(q):
        # a vertex must be a color point or an integral point of the closed
        # valuation cone; stated inline so the oracle does not share the main
        # enumerator's candidate construction
        if q in color_locs:
            return True
        if any(c.denominator != 1 for c in q):
            return False
        return all(
            sum(si * ci for si, ci in zip(s, q)) <= 0 for s in data.sigma
        )

    pool = {
        (Fraction(x), Fraction(y))
        for x in range(-B, B + 1)
        for y in range(-B, B + 1)
        if (x, y) != (0, 0)
    }
    pool.update(color_locs)
    cands = _angular_order(sorted(q for q in pool if eligible(q)))
    # run the scan in scaled integer arithmetic
    scale = 1
    for q in cands:
        for c in q:
            scale = scale * c.denominator // math_gcd(scale, c.denominator)
    ints = [(int(q[0] * scale), int(q[1] * scale)) for q in cands]
    n = len(ints)
    found = {}

    def close(seq):
        if len(seq) < 3:
            return
        k = len(seq)
        for i in range(k):
            a, b, c = seq[i], seq[(i + 1) % k], seq[(i + 2) % k]
            if a[0] * b[1] - a[1] * b[0] <= 0:
                return
            if (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0]) <= 0:
                return
        verts = [(Fraction(x, scale), Fraction(y, scale)) for x, y in seq]
        P = RationalPolytope(2, vertices_ccw_store(verts))
        if check_reflexive(data, P).ok:
            cp = canonical_form(data, P, group=group, check=False)
            found[cp.polytope.vertices] = cp

    def walk(start, seq):
        close(seq)
        if len(seq) >= cfg.max_vertices:
            return
        for j in range(start, n):
            q = ints[j]
            if seq:
                p = seq[-1]
                if p[0] * q[1] - p[1] * q[0] <= 0:
                    continue
                if len(seq) >= 2:
                    r = seq[-2]
                    if (p[0] - r[0]) * (q[1] - p[1]) - (p[1] - r[1]) * (q[0] - p[0]) <= 0:
                        continue
                # the origin must be strictly left of every edge of any
                # closable cycle (a geometric fact, not a reflexivity prune)
                if (q[0] - p[0]) * (-p[1]) - (q[1] - p[1]) * (-p[0]) <= 0:
                    continue
            seq.append(q)
            walk(j + 1, seq)
            seq.pop()

    walk(0, [])
    return sorted(found.values(), key=lambda c: _store_key(c.polytope))
