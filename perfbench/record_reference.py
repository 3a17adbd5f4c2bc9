"""Record the reference data the benchmark checks every output against.

Run once, from the root of a checkout of the reference commit (it builds the
full catalog serially, about two minutes, then the benchmark's dimensions and
one traced run per workload):

    python3 perfbench/record_reference.py

It writes perfbench/reference.json: for the benchmark's catalog (dimensions
2 and 3) the record count, the count grid and the SHA-256 of the CSV and JSON
emissions; (pic, degree, ke) of every record of the full catalog, which
check-stream checks its answers against; and the call counts of one traced
run of each workload (at seed 0 for check-stream), which later traced runs
diff against.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import DIMS, grid_of, import_engine, sha256

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "reference.json")
TRACE_SEED = 0
COUNTS_PREFIX = "trace counts: "


def main() -> int:
    if "SPHFANO_BOX" in os.environ:
        print("error: SPHFANO_BOX is set; it changes the search and the digests", file=sys.stderr)
        return 2
    import_engine()
    from sphfano import catalog

    warnings = []
    full = catalog.build_catalog(warn=warnings.append)
    cat = catalog.build_catalog(dims=DIMS, warn=warnings.append)
    if warnings:
        print("\n".join(warnings), file=sys.stderr)
        return 1
    ref = {
        "catalog": {
            "dims": list(DIMS),
            "records": cat.total(),
            "grid": grid_of(cat),
            "csv_sha256": sha256(catalog.emit(cat, "csv")),
            "json_sha256": sha256(catalog.emit(cat, "json")),
        },
        "records": {r.identifier: [r.pic, r.degree, r.ke] for r in full.records},
        "trace_calls": {},
    }
    with open(OUT, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)

    for name in ("catalog-serial", "catalog-jobs2", "check-stream"):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(TRACE_SEED), "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, check=True,
        )
        line = next(x for x in proc.stdout.splitlines() if x.startswith(COUNTS_PREFIX))
        entry = {"counts": json.loads(line[len(COUNTS_PREFIX):])}
        if name == "check-stream":
            entry["seed"] = TRACE_SEED
        ref["trace_calls"][name] = entry
    with open(OUT, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
