"""Command-line interface.

Exit codes: 0 success, 1 verification mismatch, 2 usage error (a file that
cannot be read or written included), 3 internal assertion (search box too
tight, a canonical-form assumption broken, non-integral degree,
rank-deficient relations, a vanishing anticanonical class, data whose
symmetries no group kind describes, data the root table cannot pair).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .catalog import (
    bundled_expected,
    build_catalog,
    default_config,
    emit,
    format_counts,
    load_expected_csv,
    verify,
)
from .core import RankMismatch, check_reflexive
from .geometry import RationalPolytope, convex_hull, parse_vec, rat_str
from .invariants import all_invariants
from .registry import ParamsOutOfDomain, UnknownFamily, build, families, registry_json
from .search import BoundTooTight, CanonicalFormError, PairTestMismatch
from .search import enumerate_polytopes, canonical_form
from .registry import symmetry_group


def _parse_params(text: str) -> dict:
    params = {}
    if not text:
        return params
    for item in text.replace(";", ",").split(","):
        if not item.strip():
            continue
        k, _, v = item.partition("=")
        k = k.strip()
        if k in params:
            raise ValueError(f"parameter {k!r} given twice")
        params[k] = int(v)
    return params


def _output(path):
    """The file at path, opened before any work so that a bad path fails at
    once, or standard output."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def _cmd_families(args) -> int:
    dims = [args.dim] if args.dim is not None else None
    ranks = [args.rank] if args.rank is not None else None
    rows = families(dims, ranks)
    if args.json:
        sel = {(f.id, f.dim, f.rank) for f in rows}
        data = [e for e in registry_json() if (e["id"], e["dim"], e["rank"]) in sel]
        print(json.dumps(data, indent=1))
        return 0
    for f in rows:
        print(f"{f.id:24s} dim {f.dim} rank {f.rank}  params: {f.param_domain}")
    return 0


def _cmd_enumerate(args) -> int:
    params = _parse_params(args.params or "")
    cfg = default_config()
    with _output(args.json_path) as fh:
        cps = enumerate_polytopes(args.family, params, cfg=cfg)
        doc = {
            "family": args.family,
            "params": params,
            "polytopes": [
                {"vertices": [[rat_str(c) for c in v] for v in cp.polytope.vertices]}
                for cp in cps
            ],
        }
        fh.write(json.dumps(doc, indent=1) + "\n")
    return 0


def _cmd_check(args) -> int:
    params = _parse_params(args.params or "")
    data = build(args.family, params)
    verts = [parse_vec(v) for v in args.vertices.split(";")]
    if any(len(v) != data.rank for v in verts):
        raise RankMismatch(f"vertices {args.vertices} do not all have rank {data.rank}")
    if data.rank == 1:
        P = RationalPolytope(1, tuple(sorted(tuple(v) for v in verts)))
    else:
        P = convex_hull(verts, 2)
    verdict = check_reflexive(data, P)
    if not verdict.ok:
        print("not locally factorial reflexive:")
        for cond, detail in verdict.violations:
            print(f"  {cond}: {detail}")
        return 0
    print("locally factorial reflexive")
    inv = all_invariants(data, P)
    cp = canonical_form(data, P, group=symmetry_group(args.family, params), check=False)
    print(f"  canonical form: {[tuple(map(rat_str, v)) for v in cp.polytope.vertices]}")
    print(f"  picard rank: {inv['pic']}")
    print(f"  degree: {inv['degree']}")
    print(f"  fano index: {inv['fano_index']}")
    kv = inv["k_verdict"]
    print(f"  k-stability: {kv.value} (barycenter {[rat_str(c) for c in kv.barycenter]})")
    return 0


def _cmd_catalog(args) -> int:
    cfg = default_config()
    with _output(args.out) as fh:
        catalog = build_catalog(
            dims=args.dim or None, ranks=args.rank if args.rank else None, cfg=cfg, jobs=args.jobs
        )
        fh.write(emit(catalog, args.format))
    return 0


def _cmd_verify(args) -> int:
    if args.expected:
        expected = load_expected_csv(args.expected)
    else:
        expected = {}
        for name in ("expected_dim2.csv", "expected_dim3.csv"):
            expected.update(load_expected_csv(bundled_expected(name)))
    problems = verify(build_catalog(jobs=args.jobs), expected)
    if problems:
        for p in problems:
            print(p)
        print(f"{len(problems)} mismatches")
        return 1
    print(f"all {len(expected)} expected rows match")
    return 0


def _cmd_counts(args) -> int:
    catalog = build_catalog(jobs=args.jobs)
    print(format_counts(catalog))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sphfano",
        description="spherical actions on low-dimensional locally factorial Fano varieties",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("families", help="list registry families")
    p.add_argument("--dim", type=int)
    p.add_argument("--rank", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("enumerate", help="enumerate the polytopes of one family")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default="")
    p.add_argument("--json", dest="json_path")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check", help="test one vertex list against one family")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default="")
    p.add_argument("--vertices", required=True, help='e.g. "(-1,0);(0,1);(1/2,0)"')
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("catalog", help="build and emit the catalog")
    p.add_argument("--dim", type=int, action="append")
    p.add_argument("--rank", type=int, action="append")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("verify", help="compare the catalog against expected tables")
    p.add_argument("--expected")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("counts", help="print the rank-by-dimension count grid")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_counts)

    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (UnknownFamily, ParamsOutOfDomain, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BoundTooTight, CanonicalFormError, PairTestMismatch, AssertionError) as exc:
        print(f"internal assertion: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
