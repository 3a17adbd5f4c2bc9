#!/usr/bin/env python3
"""Record tests/data/catalog_invariants.json, the full catalog's golden invariants.

The script builds the full catalog and stores, for every record in emission
order, its identifier, Picard rank, anticanonical degree, Fano index, KE
verdict, K-stability value and the Duistermaat-Heckman barycenter (each
coordinate as ``p/q``).  `tests/test_catalog.py` asserts that a fresh build
reproduces the file exactly, so the file pins the invariants of every record,
the dimension-4 barycenters and K-values included; regenerate it only when
those invariants are meant to change.

Run from the repository root:  python3 tools/record_catalog_invariants.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sphfano.catalog import build_catalog  # noqa: E402
from sphfano.geometry import rat_str  # noqa: E402

OUT = ROOT / "tests" / "data" / "catalog_invariants.json"


def catalog_invariants_text(catalog) -> str:
    """The file's text for a built catalog, one record per line."""
    rows = [
        {
            "identifier": r.identifier,
            "pic": r.pic,
            "degree": r.degree,
            "fano_index": r.fano_index,
            "ke": r.ke,
            "k_value": r.k_value,
            "barycenter": [rat_str(c) for c in r.barycenter],
        }
        for r in catalog.records
    ]
    return "[\n" + ",\n".join(json.dumps(e) for e in rows) + "\n]\n"


def main():
    OUT.write_text(catalog_invariants_text(build_catalog()))


if __name__ == "__main__":
    main()
