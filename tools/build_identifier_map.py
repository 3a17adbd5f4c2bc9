#!/usr/bin/env python3
"""Regenerate src/sphfano/data/identifier_map.json.

The tables below transcribe, once, the published correspondence between
identifiers and polytopes: every drawn polytope is entered verbatim
(vertex lists, colors implicit in the family parameters), and product
embeddings reuse the vertex list of their lower-dimensional factor.  A few
entries were drawn in a condensed style (one normalized polygon, with the
possible color locations printed inside); those are reconstructed by the
inverse unimodular map sending the color back to its standard position.

Run from the repository root:  python3 tools/build_identifier_map.py
`identifier_map_text()` returns the file's text without writing it.
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sphfano.core import check_reflexive
from sphfano.geometry import RationalPolytope, convex_hull, unimodular_inverse, transform_polytope
from sphfano.registry import build

ENTRIES = []


def seg(ident, family, params, lo, hi):
    ENTRIES.append(
        {
            "id": ident,
            "family": family,
            "params": params,
            "vertices": [[str(Fraction(lo))], [str(Fraction(hi))]],
        }
    )


def poly(ident, family, params, verts):
    ENTRIES.append(
        {
            "id": ident,
            "family": family,
            "params": params,
            "vertices": [[str(Fraction(c)) for c in v] for v in verts],
        }
    )


H = Fraction(1, 2)
T = Fraction(1, 3)
Q = Fraction(1, 4)

# ---------------------------------------------------------------------------
# dimension 1 and 2

seg("1-1-1", "toric", {"n": 1}, -1, 1)
seg("2-1-1", "SL2.T", {}, -1, 1)
seg("2-1-2", "SL2.N", {}, -1, 2)
seg("2-1-3", "SL2xGm.horo", {"n": 1, "a1": 0}, -1, 1)
seg("2-1-4", "SL2xGm.horo", {"n": 1, "a1": 1}, -1, 1)
seg("2-1-5", "SL2xGm.horo", {"n": 1, "a1": 1}, -1, H)

TORIC_SURFACES = {
    "2-2-1": [(-1, 1), (0, -1), (1, 0)],
    "2-2-2": [(-1, 1), (0, -1), (1, -1), (1, 0)],
    "2-2-3": [(0, 1), (-1, 0), (0, -1), (1, 0)],
    "2-2-4": [(0, 1), (-1, 1), (-1, 0), (0, -1), (1, 0)],
    "2-2-5": [(0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0)],
}
for ident, verts in TORIC_SURFACES.items():
    poly(ident, "toric", {"n": 2}, verts)

# ---------------------------------------------------------------------------
# dimension 3, rank 1

seg("3-1-1", "SL2sq.diagSL2", {}, -1, H)
seg("3-1-2", "SL2sq.NdiagSL2", {}, -1, 1)
seg("3-1-3", "SL2sq.horo1", {"a1": 0, "a2": 0}, -1, 1)
seg("3-1-4", "SL2sq.horo1", {"a1": 1, "a2": 0}, -1, 1)
seg("3-1-5", "SL2sq.horo1", {"a1": 1, "a2": 0}, -1, H)
seg("3-1-6", "SL2sq.horo1", {"a1": 1, "a2": 1}, -1, 1)
seg("3-1-7", "SL2sq.horo1", {"a1": 1, "a2": -1}, -1, 1)
seg("3-1-8", "SL2sq.horo1", {"a1": 1, "a2": -1}, -1, H)
seg("3-1-9", "SL2sq.horo1", {"a1": 1, "a2": -1}, -H, H)
seg("3-1-10", "SL3.horo.Q", {"a1": 0}, -1, 1)
seg("3-1-11", "SL3.horo.Q", {"a1": 1}, -1, 1)
seg("3-1-12", "SL3.horo.Q", {"a1": 2}, -1, 1)
seg("3-1-13", "SL3.horo.Q", {"a1": 1}, -1, T)

# ---------------------------------------------------------------------------
# dimension 3, rank 2

TYPE_T = {
    "3-2-1": (0, [(1, 0), (0, 1), (-1, 0), (0, -1)]),
    "3-2-2": (0, [(1, 0), (0, 1), (-1, 1), (0, -1)]),
    "3-2-3": (0, [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)]),
    "3-2-4": (1, [(1, 0), (0, 1), (-1, -1)]),
    "3-2-5": (1, [(1, 0), (0, 1), (-1, 0), (0, -1)]),
    "3-2-6": (1, [(1, 0), (0, 1), (-1, 0), (-1, -1)]),
    "3-2-7": (1, [(1, 0), (0, 1), (-1, 0), (1, -1)]),
    "3-2-8": (1, [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)]),
    "3-2-9": (1, [(1, 0), (0, 1), (-1, 0), (-1, -1), (0, -1)]),
    "3-2-10": (1, [(1, 0), (0, 1), (-1, 1), (-1, 0), (1, -1)]),
    "3-2-11": (1, [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]),
    "3-2-12": (2, [(1, -1), (1, 1), (-1, 0)]),
    "3-2-13": (2, [(1, -1), (1, 1), (0, 1), (-1, 0)]),
    "3-2-14": (2, [(1, -1), (1, 1), (0, 1), (-1, 0), (0, -1)]),
}
for ident, (a1, verts) in TYPE_T.items():
    poly(ident, "SL2xGm.T", {"a1": a1}, verts)

TYPE_N_PRODUCT = {
    "3-2-15": [(2, 0), (0, 1), (-1, 0), (0, -1)],
    "3-2-16": [(2, 0), (0, 1), (-1, 1), (0, -1)],
    "3-2-17": [(2, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)],
}
for ident, verts in TYPE_N_PRODUCT.items():
    poly(ident, "SL2xGm.N.product", {}, verts)

TYPE_N_DIAG = {
    "3-2-18": [(1, 1), (-1, 0), (0, -1)],
    "3-2-19": [(1, 1), (-1, 0), (-1, -1), (0, -1)],
    "3-2-20": [(1, 1), (-1, 1), (0, -1)],
    "3-2-21": [(1, 1), (-1, 1), (-1, 0), (0, -1)],
    "3-2-22": [(1, 1), (-1, 1), (-1, 0), (1, -1)],
    "3-2-23": [(1, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)],
}
for ident, verts in TYPE_N_DIAG.items():
    poly(ident, "SL2xGm.N.diag", {}, verts)

# products of P1 with the five toric surfaces
for k, ident in enumerate(("3-2-24", "3-2-25", "3-2-26", "3-2-27", "3-2-28"), start=1):
    poly(ident, "SL2xGm.horo", {"n": 2, "a1": 0}, TORIC_SURFACES[f"2-2-{k}"])

SL2GM_HORO_A1 = {
    "3-2-29": [(0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0)],
    "3-2-30": [(0, 1), (-1, 1), (-1, 0), (0, -1), (1, 0)],
    "3-2-31": [(0, 1), (-1, 0), (0, -1), (1, -1), (1, 0)],
    "3-2-32": [(1, 0), (1, 1), (0, 1), (-1, -1), (0, -1)],
    "3-2-33": [(-1, 1), (0, -1), (1, -1), (1, 0)],
    "3-2-34": [(-1, 1), (-1, 0), (0, -1), (1, 0)],
    "3-2-35": [(1, 0), (1, 1), (-1, 0), (0, -1)],
    "3-2-36": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    "3-2-37": [(1, 0), (-1, 1), (0, -1)],
    "3-2-38": [(H, 0), (0, 1), (-1, 2), (0, -1)],
    "3-2-39": [(H, 0), (0, 1), (-1, 2), (-1, 1), (0, -1)],
    "3-2-40": [(H, 0), (0, 1), (-1, 1), (0, -1)],
    "3-2-41": [(H, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)],
    "3-2-42": [(H, 0), (0, 1), (-1, 0), (0, -1)],
    "3-2-43": [(H, 0), (0, 1), (-1, 0), (-1, -1)],
    "3-2-44": [(H, 0), (0, 1), (-1, -1)],
}
for ident, verts in SL2GM_HORO_A1.items():
    poly(ident, "SL2xGm.horo", {"n": 2, "a1": 1}, verts)

# ---------------------------------------------------------------------------
# dimension 4, rank 1

seg("4-1-1", "SL3.sym", {}, -1, H)
seg("4-1-2", "SL3.horosym", {}, -H, 1)
seg("4-1-3", "SL3.horosym", {}, -1, 1)
seg("4-1-4", "SL3.horo.B", {"a1": 0, "a2": 0}, -1, 1)
seg("4-1-5", "SL3.horo.B", {"a1": 1, "a2": 1}, -1, 1)
seg("4-1-6", "SL3.horo.B", {"a1": 1, "a2": 0}, -1, 1)
seg("4-1-7", "SL3.horo.B", {"a1": 1, "a2": 0}, -1, H)
seg("4-1-8", "SL3.horo.B", {"a1": 1, "a2": -1}, -1, 1)
seg("4-1-9", "SL3.horo.B", {"a1": 1, "a2": -1}, -1, H)
seg("4-1-10", "SL3.horo.B", {"a1": 1, "a2": -1}, -H, H)
seg("4-1-11", "Sp4.Nsym", {}, -1, Fraction(2, 3))
seg("4-1-12", "Sp4.sym", {}, -1, T)
seg("4-1-13", "SL3xSL2.QxT", {}, -1, 1)
seg("4-1-14", "SL3xSL2.QxNT", {}, -1, 2)
seg("4-1-15", "SL2cube.BdiagSL2", {}, -1, H)
seg("4-1-16", "SL2cube.BNdiagSL2", {}, -1, 1)
seg("4-1-17", "SL2cube.BBxT", {}, -1, 1)
seg("4-1-18", "SL2cube.BBxNT", {}, -1, 2)
# products of P1 with the rank-one horospherical SL2^2 x Gm threefolds
seg("4-1-19", "SL2cube.horo", {"a1": 0, "a2": 0, "a3": 0}, -1, 1)
seg("4-1-20", "SL2cube.horo", {"a1": 1, "a2": 0, "a3": 0}, -1, 1)
seg("4-1-21", "SL2cube.horo", {"a1": 1, "a2": 0, "a3": 0}, -1, H)
seg("4-1-22", "SL2cube.horo", {"a1": 1, "a2": 1, "a3": 0}, -1, 1)
seg("4-1-23", "SL2cube.horo", {"a1": 1, "a2": -1, "a3": 0}, -1, 1)
seg("4-1-24", "SL2cube.horo", {"a1": 1, "a2": -1, "a3": 0}, -1, H)
seg("4-1-25", "SL2cube.horo", {"a1": 1, "a2": -1, "a3": 0}, -H, H)
seg("4-1-26", "SL2cube.horo", {"a1": 1, "a2": 1, "a3": 1}, -1, 1)
seg("4-1-27", "SL2cube.horo", {"a1": 1, "a2": 1, "a3": -1}, -1, 1)
# published with parameters (1,-1,-1) as [-1,1/2]; our sign normalization
# keeps (1,1,-1) and the polytope negated
seg("4-1-28", "SL2cube.horo", {"a1": 1, "a2": 1, "a3": -1}, -H, 1)
seg("4-1-29", "SL3xSL2.horo", {"a1": 0, "a3": 0}, -1, 1)
seg("4-1-30", "SL3xSL2.horo", {"a1": 0, "a3": 1}, -1, 1)
seg("4-1-31", "SL3xSL2.horo", {"a1": 0, "a3": 1}, -1, H)
seg("4-1-32", "SL3xSL2.horo", {"a1": 1, "a3": 0}, -1, 1)
seg("4-1-33", "SL3xSL2.horo", {"a1": 1, "a3": 0}, -1, T)
seg("4-1-34", "SL3xSL2.horo", {"a1": 2, "a3": 0}, -1, 1)
seg("4-1-35", "SL3xSL2.horo", {"a1": 1, "a3": 1}, -1, 1)
seg("4-1-36", "SL3xSL2.horo", {"a1": 1, "a3": -1}, -1, 1)
seg("4-1-37", "SL3xSL2.horo", {"a1": 2, "a3": 1}, -1, 1)
seg("4-1-38", "SL3xSL2.horo", {"a1": 2, "a3": -1}, -1, 1)
seg("4-1-39", "SL3xSL2.horo", {"a1": 1, "a3": -1}, -1, T)
seg("4-1-40", "SL3xSL2.horo", {"a1": 1, "a3": -1}, -H, 1)
seg("4-1-41", "SL3xSL2.horo", {"a1": 2, "a3": -1}, -H, 1)
seg("4-1-42", "SL3xSL2.horo", {"a1": 1, "a3": 1}, -1, H)
seg("4-1-43", "SL3xSL2.horo", {"a1": 1, "a3": -1}, -H, T)
seg("4-1-44", "Sp4.horo.short", {"a1": 0}, -1, 1)
seg("4-1-45", "Sp4.horo.long", {"a2": 0}, -1, 1)
seg("4-1-46", "Sp4.horo.short", {"a1": 1}, -1, 1)
seg("4-1-47", "Sp4.horo.short", {"a1": 2}, -1, 1)
seg("4-1-48", "Sp4.horo.short", {"a1": 3}, -1, 1)
seg("4-1-49", "Sp4.horo.short", {"a1": 1}, -1, Q)
seg("4-1-50", "Sp4.horo.long", {"a2": 1}, -1, 1)
seg("4-1-51", "Sp4.horo.long", {"a2": 2}, -1, 1)
seg("4-1-52", "Sp4.horo.long", {"a2": 1}, -1, T)
seg("4-1-53", "SL4.horo", {"a1": 0}, -1, 1)
seg("4-1-54", "SL4.horo", {"a1": 1}, -1, 1)
seg("4-1-55", "SL4.horo", {"a1": 2}, -1, 1)
seg("4-1-56", "SL4.horo", {"a1": 3}, -1, 1)
seg("4-1-57", "SL4.horo", {"a1": 1}, -1, Q)

# ---------------------------------------------------------------------------
# dimension 4, rank 2

GROUP_COMPACT = {
    "4-2-1": ("SL2sqxGm.diagSL2", [(H, 0), (0, 1), (-1, 2), (-1, 1), (0, -1)]),
    "4-2-2": ("SL2sqxGm.diagSL2", [(H, 0), (0, 1), (-1, 2), (0, -1)]),
    "4-2-3": ("SL2sqxGm.diagSL2", [(H, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)]),
    "4-2-4": ("SL2sqxGm.diagSL2", [(H, 0), (0, 1), (-1, 1), (0, -1)]),
    "4-2-5": ("SL2sqxGm.diagSL2", [(H, 0), (0, 1), (-1, 0), (0, -1)]),
    "4-2-6": ("SL2sqxGm.diagSL2", [(H, 0), (0, 1), (-1, -1)]),
    "4-2-7": ("SL2sqxGm.diagSL2", [(H, 0), (-1, 1), (-1, 0), (0, -1)]),
    "4-2-8": ("SL2sqxGm.NdiagSL2", [(1, 0), (0, 1), (-1, 0), (0, -1)]),
    "4-2-9": ("SL2sqxGm.NdiagSL2", [(1, 0), (0, 1), (-1, 1), (0, -1)]),
    "4-2-10": ("SL2sqxGm.NdiagSL2", [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)]),
    "4-2-11": ("SL2sq.GL2", [(H, H), (-1, 1), (-2, 1), (-1, 0), (1, -1)]),
    "4-2-12": ("SL2sq.GL2", [(H, H), (-1, 1), (-1, 0), (1, -1)]),
    "4-2-13": ("SL2sq.GL2", [(H, H), (-1, 1), (-1, 0), (0, -1), (1, -1)]),
    "4-2-14": ("SL2sq.GL2", [(H, H), (-1, 1), (1, -2), (1, -1)]),
    "4-2-15": ("SL2sq.GL2", [(H, H), (-1, 0), (-1, -1), (0, -1)]),
    "4-2-16": ("SL2sq.GL2", [(H, H), (-1, 0), (0, -1)]),
    "4-2-17": ("SL2sq.GL2", [(H, H), (-1, 0), (0, -1), (1, -1)]),
    "4-2-18": ("SL2sq.GL2", [(H, H), (-1, 0), (1, -1)]),
    "4-2-19": ("SL2sq.diagB", [(0, -1), (1, 0), (0, 1), (-1, 1)]),
    "4-2-20": ("SL2sq.diagB", [(0, -1), (1, 0), (0, 1), (-1, 0)]),
    "4-2-21": ("SL2sq.diagB", [(0, -1), (1, 0), (0, 1), (-1, 1), (-1, 0)]),
    "4-2-22": ("SL2sq.NdiagB", [(1, -1), (1, 1), (-1, 1), (-1, 0), (0, -1)]),
    "4-2-23": ("SL2sq.NdiagB", [(1, -1), (1, 1), (-1, 1), (-1, 0)]),
    "4-2-24": ("SL2sq.TxT", [(1, 0), (0, 1), (-1, 0), (0, -1)]),
    "4-2-25": ("SL2sq.TxT", [(1, 0), (0, 1), (-1, 0), (-1, -1), (0, -1)]),
    "4-2-26": ("SL2sq.NTxT", [(2, 0), (0, 1), (-1, 0), (0, -1)]),
    "4-2-27": ("SL2sq.NTxT", [(2, 0), (0, 1), (-1, 0), (-1, -1), (0, -1)]),
    "4-2-28": ("SL2sq.NTxNT", [(2, 0), (0, 2), (-1, 0), (0, -1)]),
    "4-2-29": ("SL2sq.NTxNT", [(2, 0), (0, 2), (-1, 0), (-1, -1), (0, -1)]),
    "4-2-30": ("SL2sq.diagNT", [(1, -1), (1, 1), (-1, 1), (-1, 0)]),
    "4-2-31": ("SL2sq.diagNT", [(1, -1), (1, 1), (-1, 0)]),
}
for ident, (family, verts) in GROUP_COMPACT.items():
    poly(ident, family, {}, verts)

# parabolic induction, type T: the 14 products, then a2 = 1
for k in range(1, 15):
    a1 = 0 if k <= 3 else (1 if k <= 11 else 2)
    poly(f"4-2-{31 + k}", "SL2sq.PI-T", {"a1": a1, "a2": 0}, TYPE_T[f"3-2-{k}"][1])

PI_T_A2_1 = {
    "4-2-46": (0, [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)]),
    "4-2-47": (0, [(1, 0), (0, 1), (-1, 1), (0, -1)]),
    "4-2-48": (0, [(1, 0), (0, 1), (-1, 0), (0, -1)]),
    "4-2-49": (0, [(1, 0), (0, 1), (-1, 0), (-1, -1), (0, -1)]),
    "4-2-50": (0, [(1, 0), (0, 1), (-1, -1), (0, -1)]),
    "4-2-51": (0, [(1, 0), (0, H), (-1, -1), (0, -1)]),
    "4-2-52": (0, [(1, 0), (0, H), (-1, 0), (0, -1)]),
    "4-2-53": (0, [(1, 0), (0, H), (-1, 0), (-1, -1), (0, -1)]),
    "4-2-54": (1, [(1, 0), (0, 1), (-1, 1), (-1, 0), (1, -1)]),
    "4-2-55": (1, [(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1)]),
    "4-2-56": (1, [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]),
    "4-2-57": (1, [(1, 0), (0, 1), (-1, 1), (0, -1), (1, -1)]),
    "4-2-58": (1, [(1, 0), (0, 1), (-1, 0), (1, -1)]),
    "4-2-59": (1, [(1, 0), (0, 1), (-1, 0), (H, -H)]),
    "4-2-60": (1, [(1, 0), (0, 1), (-1, 1), (-1, 0), (H, -H)]),
    "4-2-61": (2, [(1, 1), (0, 1), (-1, 0), (1, -1)]),
    "4-2-62": (2, [(1, 1), (0, 1), (-1, 0), (0, -1), (1, -1)]),
}
for ident, (a1, verts) in PI_T_A2_1.items():
    poly(ident, "SL2sq.PI-T", {"a1": a1, "a2": 1}, verts)

# parabolic induction, type N: 9 products, then a2 = 1
for k, ident in enumerate(("4-2-63", "4-2-64", "4-2-65"), start=15):
    poly(ident, "SL2sq.PI-N.product", {"a2": 0}, TYPE_N_PRODUCT[f"3-2-{k}"])
for k, ident in enumerate(
    ("4-2-66", "4-2-67", "4-2-68", "4-2-69", "4-2-70", "4-2-71"), start=18
):
    poly(ident, "SL2sq.PI-N.diag", {"a2": 0}, TYPE_N_DIAG[f"3-2-{k}"])

PI_N_DIAG_1 = {
    "4-2-72": [(1, 1), (-1, 1), (0, -1), (1, -1)],
    "4-2-73": [(1, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)],
    "4-2-74": [(1, 1), (-1, 0), (0, -1), (1, -1)],
    "4-2-75": [(1, 1), (-1, 0), (1, -1)],
    "4-2-76": [(1, 1), (-1, 1), (-1, 0), (1, -1)],
    "4-2-77": [(1, 1), (-1, 1), (0, -1), (H, -H)],
    "4-2-78": [(1, 1), (-1, 0), (0, -1), (H, -H)],
    "4-2-79": [(1, 1), (-1, 1), (-1, 0), (0, -1), (H, -H)],
    "4-2-80": [(1, 1), (-1, 0), (-1, -1), (0, -1), (H, -H)],
    "4-2-81": [(1, 1), (-1, 0), (H, -H)],
    "4-2-82": [(1, 1), (-1, 1), (-1, 0), (H, -H)],
}
for ident, verts in PI_N_DIAG_1.items():
    poly(ident, "SL2sq.PI-N.diag", {"a2": 1}, verts)

PI_N_PRODUCT_1 = {
    "4-2-83": [(2, 0), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    "4-2-84": [(2, 0), (0, 1), (-1, 0), (0, -1)],
    "4-2-85": [(2, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)],
    "4-2-86": [(2, 0), (0, 1), (-1, 1), (0, -1)],
    "4-2-87": [(2, 0), (0, 1), (-1, -1), (0, -1)],
    "4-2-88": [(2, 0), (0, H), (-1, 0), (-1, -1), (0, -1)],
    "4-2-89": [(2, 0), (0, H), (-1, -1), (0, -1)],
    "4-2-90": [(2, 0), (0, H), (-1, 0), (0, -1)],
}
for ident, verts in PI_N_PRODUCT_1.items():
    poly(ident, "SL2sq.PI-N.product", {"a2": 1}, verts)

# rank-two horospherical under SL2^2 x Gm^2: 21 products, then the four
# non-product parameter pairs
for k, ident in enumerate(
    ("4-2-91", "4-2-92", "4-2-93", "4-2-94", "4-2-95"), start=1
):
    poly(ident, "SL2sq.horo2", {"a1": 0, "a2": 0, "b2": 0}, TORIC_SURFACES[f"2-2-{k}"])
for k in range(29, 45):
    poly(
        f"4-2-{67 + k}",  # 96..111
        "SL2sq.horo2",
        {"a1": 1, "a2": 0, "b2": 0},
        SL2GM_HORO_A1[f"3-2-{k}"],
    )

HORO2_01 = {
    "4-2-112": [(1, 0), (0, 1), (-1, -1)],
    "4-2-113": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    "4-2-114": [(1, 0), (0, 1), (-1, 0), (-1, -1)],
    "4-2-115": [(1, 0), (0, 1), (-1, 1), (0, -1)],
    "4-2-116": [(1, 0), (1, 1), (0, 1), (-1, -1)],
    "4-2-117": [(1, 0), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    "4-2-118": [(1, 0), (0, 1), (-1, 1), (-1, 0), (1, -1)],
    "4-2-119": [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)],
    "4-2-120": [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1)],
    "4-2-121": [(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)],
    "4-2-122": [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    "4-2-123": [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)],
    "4-2-124": [(H, 0), (0, 1), (-1, 2), (0, -1)],
    "4-2-126": [(H, 0), (0, 1), (-1, -2), (0, -1)],
    "4-2-127": [(H, 0), (0, 1), (-1, 2), (-1, 1), (0, -1)],
    "4-2-128": [(H, 0), (1, 1), (1, 2), (0, 1), (-1, -1)],
    "4-2-130": [(H, 0), (0, 1), (-1, -1), (-1, -2), (0, -1)],
    "4-2-131": [(H, 0), (0, 1), (-1, 1), (0, -1)],
    "4-2-132": [(H, 0), (0, 1), (-1, -1), (0, -1)],
    "4-2-133": [(H, 0), (1, 1), (0, 1), (-1, -1)],
    "4-2-134": [(H, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)],
    "4-2-135": [(H, 0), (1, 1), (0, 1), (-1, 0), (-1, -1)],
    "4-2-136": [(H, 0), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    "4-2-137": [(H, 0), (0, 1), (-1, 0), (0, -1)],
    "4-2-138": [(H, 0), (0, 1), (-1, 0), (-1, -1)],
    "4-2-139": [(H, 0), (0, 1), (-1, -1)],
    "4-2-140": [(H, 0), (1, 1), (0, H), (-1, -1)],
    "4-2-141": [(H, 0), (0, H), (-1, 1), (-2, 1), (1, -1)],
    "4-2-142": [(H, 0), (0, H), (-1, 1), (-2, 1), (-1, 0), (1, -1)],
    "4-2-143": [(H, 0), (0, H), (-1, 1), (0, -1), (1, -1)],
    "4-2-144": [(H, 0), (0, H), (-1, 1), (-1, 0), (0, -1), (1, -1)],
    "4-2-145": [(H, 0), (0, H), (-1, 1), (-1, 0), (0, -1)],
    "4-2-146": [(H, 0), (0, H), (-1, 1), (0, -1)],
    "4-2-147": [(H, 0), (0, H), (-1, 0), (-2, -1)],
    "4-2-148": [(H, 0), (0, H), (-1, 0), (-2, -1), (-1, -1)],
    "4-2-149": [(H, 0), (0, H), (-1, 0), (0, -1)],
    "4-2-150": [(H, 0), (0, H), (-1, 0), (-1, -1)],
    "4-2-151": [(H, 0), (0, H), (-1, 0), (-1, -1), (0, -1)],
    "4-2-152": [(H, 0), (0, H), (-1, -1)],
}
for ident, verts in HORO2_01.items():
    poly(ident, "SL2sq.horo2", {"a1": 1, "a2": 0, "b2": 1}, verts)

HORO2_12 = {
    "4-2-125": [(H, 0), (1, 1), (1, 2), (-1, -1)],
    "4-2-129": [(H, 0), (1, 1), (1, 2), (0, 1), (-1, -1)],
    "4-2-154": [(H, 0), (1, 1), (H, 1), (-1, -1)],
}
for ident, verts in HORO2_12.items():
    poly(ident, "SL2sq.horo2", {"a1": 1, "a2": 1, "b2": 2}, verts)

poly("4-2-153", "SL2sq.horo2", {"a1": 1, "a2": 2, "b2": 3}, [(H, 0), (1, 1), (1, Fraction(3, 2)), (-1, -1)])

# SL3 x Gm^2: 5 products, 26 condensed entries, 9 explicit vertex figures
for k, ident in enumerate(
    ("4-2-155", "4-2-156", "4-2-157", "4-2-158", "4-2-159"), start=1
):
    poly(ident, "SL3.horo2", {"a1": 0}, TORIC_SURFACES[f"2-2-{k}"])

# condensed entries: one normalized polygon, the color location printed at
# three times its coordinates; the inverse map puts the color back on the
# positive x-axis
CONDENSED_POLYGONS = {
    "T1": [(1, 0), (0, 1), (-1, -1)],
    "T2": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    "T3": [(1, 0), (1, 1), (0, 1), (-1, -1)],
    "T4": [(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)],
    "T5": [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
}
CONDENSED = {
    "4-2-160": ("T1", (2, 0)),
    "4-2-161": ("T1", (1, 0)),
    "4-2-162": ("T1", (1, 1)),
    "4-2-163": ("T2", (2, 0)),
    "4-2-164": ("T2", (1, 0)),
    "4-2-165": ("T2", (1, 1)),
    "4-2-166": ("T3", (2, 0)),
    "4-2-167": ("T3", (1, 0)),
    "4-2-168": ("T3", (2, 2)),
    "4-2-169": ("T3", (1, 1)),
    "4-2-170": ("T3", (-2, -2)),
    "4-2-171": ("T3", (-1, -1)),
    "4-2-172": ("T3", (2, 1)),
    "4-2-173": ("T3", (0, -1)),
    "4-2-174": ("T4", (2, 0)),
    "4-2-175": ("T4", (1, 0)),
    "4-2-176": ("T4", (2, 2)),
    "4-2-177": ("T4", (1, 1)),
    "4-2-178": ("T4", (0, -2)),
    "4-2-179": ("T4", (0, -1)),
    "4-2-180": ("T4", (-1, -1)),
    "4-2-181": ("T4", (1, -1)),
    "4-2-182": ("T4", (2, 1)),
    "4-2-183": ("T5", (2, 0)),
    "4-2-184": ("T5", (1, 0)),
    "4-2-185": ("T5", (2, 1)),
}


def xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def reconstruct_condensed(polygon, u3):
    a1 = math.gcd(abs(u3[0]), abs(u3[1]))
    u = (u3[0] // a1, u3[1] // a1)
    g, x, y = xgcd(u[0], u[1])
    assert abs(g) == 1
    if g == -1:
        x, y = -x, -y
    # U maps e1 to u; complete to a unimodular matrix
    U = ((u[0], -y), (u[1], x))
    P0 = convex_hull(polygon, 2)
    P = transform_polytope(unimodular_inverse(U), P0)
    data = build("SL3.horo2", {"a1": a1})
    assert check_reflexive(data, P).ok, (polygon, u3, P.vertices)
    return a1, P


for ident, (tname, u3) in CONDENSED.items():
    a1, P = reconstruct_condensed(CONDENSED_POLYGONS[tname], u3)
    poly(ident, "SL3.horo2", {"a1": a1}, [tuple(v) for v in P.vertices])

SL3_HORO2_VERTEX = {
    "4-2-186": [(T, 0), (0, 1), (-1, 3), (0, -1)],
    "4-2-187": [(T, 0), (0, 1), (-1, 3), (-1, 2), (0, -1)],
    "4-2-188": [(T, 0), (0, 1), (-1, 2), (0, -1)],
    "4-2-189": [(T, 0), (0, 1), (-1, 2), (-1, 1), (0, -1)],
    "4-2-190": [(T, 0), (0, 1), (-1, 1), (0, -1)],
    "4-2-191": [(T, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)],
    "4-2-192": [(T, 0), (0, 1), (-1, 0), (0, -1)],
    "4-2-193": [(T, 0), (0, 1), (-1, -1)],
    "4-2-194": [(T, 0), (0, 1), (-1, 0), (-1, -1)],
}
for ident, verts in SL3_HORO2_VERTEX.items():
    poly(ident, "SL3.horo2", {"a1": 1}, verts)


def identifier_map_text() -> str:
    """The text of identifier_map.json, after checking that every entry
    passes the reflexivity check for its family data."""
    for e in ENTRIES:
        data = build(e["family"], e["params"])
        verts = [[Fraction(c) for c in v] for v in e["vertices"]]
        if data.rank == 1:
            P = RationalPolytope(1, tuple(sorted(tuple(v) for v in verts)))
        else:
            P = convex_hull(verts, 2)
        v = check_reflexive(data, P)
        assert v.ok, (e["id"], v.violations)
    return json.dumps(ENTRIES, indent=0)


def main():
    path = Path(__file__).resolve().parent.parent / "src" / "sphfano" / "data" / "identifier_map.json"
    path.write_text(identifier_map_text())
    print(f"wrote {len(ENTRIES)} entries to {path}")


if __name__ == "__main__":
    main()
