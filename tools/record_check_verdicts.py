#!/usr/bin/env python3
"""Record tests/data/check_verdicts.json, the checker's golden verdicts.

For every rank-1 and rank-2 family instance the script draws a few seeded
polytopes: copies of a published polytope moved by an element of the
family's group, near misses (one published vertex shifted by a unit step,
then hulled), and hulls of small random points with and without a color
point.  Each is stored with the `check_reflexive` verdict and its full
violation list.  `tests/test_core.py` asserts that the checker reproduces
the file exactly and that `check_verdicts_text()` still regenerates it, so
the file pins the checker's behaviour, its violation texts and the draws;
regenerate it only when that behaviour is meant to change.

Run from the repository root:  python3 tools/record_check_verdicts.py
"""

import json
import random
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sphfano.core import check_reflexive  # noqa: E402
from sphfano.geometry import (  # noqa: E402
    DegenerateInput,
    convex_hull,
    mat_identity,
    mat_mul,
    rat_str,
    transform_polytope,
)
from sphfano.registry import FINITE, FULL_UNIMODULAR, SHEAR, build, families, symmetry_group  # noqa: E402

SEED = 20261018
PER_INSTANCE = 4
OUT = ROOT / "tests" / "data" / "check_verdicts.json"

# GL2(Z) is generated by the quarter turn, the unit shear and a mirror
_GL2 = (((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 0), (0, -1)))
_SMALL = [Fraction(k, d) for d in (1, 2, 3) for k in range(-3 * d, 3 * d + 1)]


def _group_element(rng, group, rank):
    if group.kind == FULL_UNIMODULAR:
        return reduce(mat_mul, [rng.choice(_GL2) for _ in range(rng.randint(0, 4))], mat_identity(2))
    if group.kind == SHEAR:
        s = rng.choice((1, -1)) if group.reflection else 1
        return ((1, rng.randint(-3, 3)), (0, s))
    if group.kind == FINITE:
        return rng.choice(group.matrices)
    return mat_identity(rank)


def _draw(rng, data, group, published):
    """One polytope and its kind; without a published polytope, random ones."""
    rank = data.rank
    colors = [q for q in data.color_points() if any(q)]
    while True:
        kinds = ("moved", "near", "random", "color") if published else ("random", "color")
        kind = rng.choice(kinds)
        if kind in ("moved", "near"):
            pts = [list(v) for v in rng.choice(published)]
            if kind == "near":
                v = rng.choice(pts)
                i = rng.randrange(rank)
                v[i] += rng.choice((1, -1))
        else:
            if rank == 1:
                pts = [[rng.choice(_SMALL)], [rng.choice(_SMALL)]]
            else:
                pts = [[rng.randint(-3, 3), rng.randint(-3, 3)] for _ in range(rng.randint(2, 5))]
            if kind == "color" and colors:
                pts.append(list(rng.choice(colors)))
        try:
            P = convex_hull([tuple(v) for v in pts], rank)
        except DegenerateInput:
            continue
        if kind == "moved":
            P = transform_polytope(_group_element(rng, group, rank), P)
        return kind, P


def record() -> list[dict]:
    published = {}
    for e in json.loads((ROOT / "src" / "sphfano" / "data" / "identifier_map.json").read_text()):
        key = (e["family"], json.dumps(e["params"], sort_keys=True))
        published.setdefault(key, []).append([[Fraction(c) for c in v] for v in e["vertices"]])
    rng = random.Random(SEED)
    out = []
    for spec in families(rank_filter=[1, 2]):
        for params in spec.params_list():
            data = build(spec.id, params)
            group = symmetry_group(spec.id, params)
            pub = published.get((spec.id, json.dumps(params, sort_keys=True)), [])
            for _ in range(PER_INSTANCE):
                kind, P = _draw(rng, data, group, pub)
                v = check_reflexive(data, P)
                out.append(
                    {
                        "family": spec.id,
                        "params": params,
                        "kind": kind,
                        "vertices": [[rat_str(c) for c in w] for w in P.vertices],
                        "ok": v.ok,
                        "violations": [list(x) for x in v.violations],
                    }
                )
    return out


def check_verdicts_text() -> str:
    # one polytope per line keeps the file short and its diffs readable
    return "[\n" + ",\n".join(json.dumps(e) for e in record()) + "\n]\n"


def main():
    OUT.write_text(check_verdicts_text())


if __name__ == "__main__":
    main()
