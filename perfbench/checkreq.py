"""Seeded `check` requests built from the pinned vertex lists.

A *moved copy* applies a random element of the family's admissible group to
a pinned polytope, so the request must be accepted and canonicalise back to
its pinned key.  A *near-miss* shifts one vertex of a pinned polytope by a
unit step while keeping the origin strictly interior; the engine may accept
or reject it.  Vertex order is shuffled in both, as a user would type it.

Only the group description is taken from the engine (`symmetry_group`); the
geometry here (hull, interior test) is the benchmark's own, so the inputs do
not depend on the code under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

MOVED = "moved"
NEAR = "near"

# generators of GL2(Z), composed into short random words for the full group
_GL2_GENERATORS = (
    ((0, -1), (1, 0)),
    ((1, 1), (0, 1)),
    ((1, -1), (0, 1)),
    ((1, 0), (0, -1)),
)
_MAX_WORD = 4
_MAX_SHEAR = 3
_NEAR_TRIES = 1000


@dataclass(frozen=True)
class Pinned:
    ident: str
    family: str
    params: dict
    vertices: tuple  # tuple of tuples of Fraction


@dataclass(frozen=True)
class Request:
    kind: str
    pinned: Pinned
    vertices: tuple


def load_pinned(path) -> list[Pinned]:
    with open(path) as fh:
        raw = json.load(fh)
    return [
        Pinned(
            e["id"],
            e["family"],
            dict(e["params"]),
            tuple(tuple(Fraction(c) for c in v) for v in e["vertices"]),
        )
        for e in raw
    ]


def _mat_mul(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0])))
        for i in range(len(A))
    )


def _apply(M, v):
    return tuple(sum(M[i][j] * v[j] for j in range(len(v))) for i in range(len(M)))


def group_element(rng: random.Random, group, rank: int):
    """A random element of an admissible group (see sphfano.registry.SymmetryGroup)."""
    if group.kind == "FiniteList":
        return rng.choice(group.matrices)
    if group.kind == "ShearClass":
        if tuple(group.fixed_vector) != (1, 0):
            raise ValueError(f"unsupported shear fixed vector {group.fixed_vector}")
        s = rng.choice((1, -1)) if group.reflection else 1
        return ((1, rng.randint(-_MAX_SHEAR, _MAX_SHEAR)), (0, s))
    if group.kind == "FullUnimodular":
        M = ((1, 0), (0, 1))
        for _ in range(rng.randint(1, _MAX_WORD)):
            M = _mat_mul(M, rng.choice(_GL2_GENERATORS))
        return M
    if group.kind == "Trivial":
        return tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    raise ValueError(f"unknown group kind {group.kind!r}")


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_ccw(points) -> list:
    """Counterclockwise extreme points (Andrew's monotone chain, exact)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = chain(pts), chain(reversed(pts))
    return lower[:-1] + upper[:-1]


def origin_strictly_inside(points) -> bool:
    """Whether the origin lies strictly inside the convex hull of the points."""
    if len(points[0]) == 1:
        xs = [p[0] for p in points]
        return min(xs) < 0 < max(xs)
    h = hull_ccw(points)
    if len(h) < 3:
        return False
    origin = (0, 0)
    return all(_cross(h[i], h[(i + 1) % len(h)], origin) > 0 for i in range(len(h)))


def moved_copy(rng: random.Random, pinned: Pinned, group) -> Request:
    rank = len(pinned.vertices[0])
    M = group_element(rng, group, rank)
    verts = [_apply(M, v) for v in pinned.vertices]
    rng.shuffle(verts)
    return Request(MOVED, pinned, tuple(verts))


def near_miss(rng: random.Random, pinned: Pinned) -> Request:
    rank = len(pinned.vertices[0])
    steps = [tuple(s * int(i == j) for j in range(rank)) for i in range(rank) for s in (1, -1)]
    for _ in range(_NEAR_TRIES):
        i = rng.randrange(len(pinned.vertices))
        step = rng.choice(steps)
        verts = list(pinned.vertices)
        verts[i] = tuple(c + d for c, d in zip(verts[i], step))
        if len(set(verts)) == len(verts) and origin_strictly_inside(verts):
            rng.shuffle(verts)
            return Request(NEAR, pinned, tuple(verts))
    raise ValueError(f"no near-miss of {pinned.ident} keeps the origin interior")


class RequestStream:
    """Blocks of requests, half moved copies and half near-misses, drawn
    uniformly over the pinned polytopes.  The same seed gives the same blocks
    in the same order."""

    def __init__(self, seed: int, pinned: list, groups: dict):
        self.rng = random.Random(seed)
        self.pinned = pinned
        self.groups = groups  # pinned ident -> SymmetryGroup

    def block(self, size: int) -> list:
        kinds = [MOVED] * (size // 2) + [NEAR] * (size - size // 2)
        self.rng.shuffle(kinds)
        out = []
        for kind in kinds:
            p = self.rng.choice(self.pinned)
            if kind == MOVED:
                out.append(moved_copy(self.rng, p, self.groups[p.ident]))
            else:
                out.append(near_miss(self.rng, p))
        return out
