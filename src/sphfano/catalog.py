"""Catalog assembly: run every family, attach identifiers, emit and verify.

Identifiers follow the published ``dim-rank-number`` scheme.  The
correspondence between enumerated polytopes and published identifiers is
data, not computation: ``data/identifier_map.json`` pins, for each
identifier, the family, parameters and one vertex list; the engine
canonicalizes that vertex list and matches records against it.  Records
without a pinned identifier (none are expected) receive a synthetic
``computed-<dim>-<rank>-<k>`` identifier and a warning.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources

from .geometry import convex_hull, rat_str
from .invariants import all_invariants
from .registry import DIMS, RANK0_TABLE, RANKS, build, families, params_key, symmetry_group
from .search import EnumConfig, InvalidConfig, canonical_form, enumerate_polytopes


class MappingConflict(RuntimeError):
    pass


class MalformedExpectedFile(ValueError):
    pass


@dataclass(frozen=True)
class EmbeddingRecord:
    identifier: str
    family: str
    params: tuple
    dim: int
    rank: int
    pic: int
    degree: int
    fano_index: int | None
    ke: bool
    group: str
    space_type: str
    vertices: tuple = ()
    barycenter: tuple = ()
    k_value: str = ""

    def params_dict(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class Catalog:
    records: tuple
    counts: dict  # (rank, dim) -> int

    def total(self) -> int:
        return len(self.records)


# the walk's successor graph holds a bit per ordered pair of candidates, so
# its size and build time grow with the fourth power of the box
MAX_BOX = 10

# each worker is a forked interpreter, and about a dozen of the 90 family
# instances take most of the build, so more workers only add memory
MAX_JOBS = 16


def default_config() -> EnumConfig:
    """The search bounds, with the box taken from SPHFANO_BOX when set."""
    text = os.environ.get("SPHFANO_BOX", "5")
    if not text.strip().isdigit() or not 2 <= int(text) <= MAX_BOX:
        raise InvalidConfig(f"SPHFANO_BOX must be an integer in 2..{MAX_BOX}, got {text!r}")
    return EnumConfig(box_bound=int(text))


# ---------------------------------------------------------------------------
# identifier map


def _load_identifier_map():
    text = resources.files("sphfano").joinpath("data/identifier_map.json").read_text()
    raw = json.loads(text)
    mapping = {}
    for entry in raw:
        fid = entry["family"]
        params = entry["params"]
        P = convex_hull(entry["vertices"], len(entry["vertices"][0]))
        data = build(fid, params)
        group = symmetry_group(fid, params)
        cp = canonical_form(data, P, group=group, check=False)
        key = (fid, params_key(params), cp.polytope.vertices)
        if key in mapping and mapping[key] != entry["id"]:
            raise MappingConflict(f"{key} maps to both {mapping[key]} and {entry['id']}")
        mapping[key] = entry["id"]
    return mapping


_IDENTIFIER_MAP = None


def identifier_map():
    global _IDENTIFIER_MAP
    if _IDENTIFIER_MAP is None:
        _IDENTIFIER_MAP = _load_identifier_map()
    return _IDENTIFIER_MAP


def identifier_sort_key(identifier: str):
    parts = identifier.split("-")
    if parts[0] == "computed":
        return (1, tuple(int(p) if p.isdigit() else 0 for p in parts[1:]))
    return (0, tuple(int(p) for p in parts))


# ---------------------------------------------------------------------------
# building


def _job(args):
    """The records of one family instance, identifiers still blank."""
    fid, params, cfg = args
    data = build(fid, params)
    out = []
    for cp in enumerate_polytopes(fid, params, cfg=cfg):
        P = cp.polytope
        inv = all_invariants(data, P)
        kv = inv["k_verdict"]
        out.append(
            EmbeddingRecord(
                identifier="",
                family=fid,
                params=params_key(params),
                dim=data.dim,
                rank=data.rank,
                pic=inv["pic"],
                degree=inv["degree"],
                fano_index=inv["fano_index"],
                ke=kv.is_stable(),
                group=data.group_name,
                space_type=data.space_type,
                vertices=P.vertices,
                barycenter=kv.barycenter,
                k_value=kv.value,
            )
        )
    return out


def _catalog(records) -> Catalog:
    """The records in emission order, with the rank-by-dimension counts."""
    records = sorted(records, key=lambda r: (r.dim, r.rank, identifier_sort_key(r.identifier)))
    counts = {}
    for r in records:
        counts[(r.rank, r.dim)] = counts.get((r.rank, r.dim), 0) + 1
    return Catalog(tuple(records), counts)


def build_catalog(dims=None, ranks=None, cfg=None, jobs=1, warn=None) -> Catalog:
    """Enumerate everything in scope and attach identifiers."""
    if type(jobs) is not int or not 1 <= jobs <= MAX_JOBS:
        raise InvalidConfig(f"jobs must be an integer in 1..{MAX_JOBS}, got {jobs!r}")
    dims = DIMS if dims is None else dims
    ranks = RANKS if ranks is None else ranks
    cfg = cfg or default_config()
    warn = warn or (lambda msg: print(f"warning: {msg}", file=sys.stderr))

    jobs_list = []
    for spec in families(dims, ranks):
        if spec.id == "rank0":
            continue
        for params in spec.params_list():
            jobs_list.append((spec.id, params, cfg))

    if jobs > 1:
        # imported here, so that serial builds and checks do not load it
        from multiprocessing import Pool
        with Pool(jobs) as pool:
            results = pool.map(_job, jobs_list, chunksize=1)
    else:
        results = [_job(j) for j in jobs_list]

    mapping = identifier_map()
    records = []
    unmatched = {}
    for rec in (rec for chunk in results for rec in chunk):
        key = (rec.family, rec.params, rec.vertices)
        ident = mapping.get(key)
        if ident is None:
            k = unmatched.get((rec.dim, rec.rank), 0) + 1
            unmatched[(rec.dim, rec.rank)] = k
            ident = f"computed-{rec.dim}-{rec.rank}-{k}"
            warn(f"no published identifier for {key}; assigned {ident}")
        records.append(replace(rec, identifier=ident))

    if 0 in ranks:
        counters = {}
        for group, space, dim, pic, deg in RANK0_TABLE:
            if dim not in dims:
                continue
            counters[dim] = counters.get(dim, 0) + 1
            records.append(
                EmbeddingRecord(
                    identifier=f"{dim}-0-{counters[dim]}",
                    family="rank0",
                    params=(("space", space),),
                    dim=dim,
                    rank=0,
                    pic=pic,
                    degree=deg,
                    fano_index=None,
                    ke=True,
                    group=group,
                    space_type="rank0",
                )
            )

    seen = set()
    for r in records:
        if r.identifier in seen:
            raise MappingConflict(f"identifier {r.identifier} claimed twice")
        seen.add(r.identifier)
    return _catalog(records)


def counts_table(catalog: Catalog):
    """The rank-by-dimension grid and its grand total."""
    grid = {(rank, dim): catalog.counts.get((rank, dim), 0) for rank in RANKS for dim in DIMS}
    total = sum(grid.values())
    return grid, total


def format_counts(catalog: Catalog) -> str:
    grid, total = counts_table(catalog)
    lines = ["dim    " + "".join(f"{dim:5d}" for dim in DIMS)]
    for rank in RANKS:
        row = [grid[(rank, dim)] for dim in DIMS]
        lines.append(f"rank {rank}  " + "".join(f"{c:5d}" for c in row))
    colsum = [sum(grid[(r, d)] for r in RANKS) for d in DIMS]
    lines.append("sum     " + "".join(f"{c:5d}" for c in colsum))
    lines.append(f"total {total}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# emission


CSV_COLUMNS = [
    "identifier",
    "dim",
    "rank",
    "family",
    "params",
    "pic",
    "degree",
    "fano_index",
    "ke",
    "group",
    "type",
]


def _params_str(params) -> str:
    return ";".join(f"{k}={v}" for k, v in params)


def record_rows(catalog: Catalog):
    for r in catalog.records:
        yield {
            "identifier": r.identifier,
            "dim": r.dim,
            "rank": r.rank,
            "family": r.family,
            "params": _params_str(r.params),
            "pic": r.pic,
            "degree": r.degree,
            "fano_index": "" if r.fano_index is None else r.fano_index,
            "ke": str(r.ke),
            "group": r.group,
            "type": r.space_type,
        }


def catalog_to_json(catalog: Catalog) -> list:
    out = []
    for r in catalog.records:
        out.append(
            {
                "identifier": r.identifier,
                "family": r.family,
                "params": dict(r.params),
                "dim": r.dim,
                "rank": r.rank,
                "pic": r.pic,
                "degree": r.degree,
                "fano_index": r.fano_index,
                "ke": r.ke,
                "k_verdict": r.k_value,
                "barycenter": [rat_str(c) for c in r.barycenter],
                "group": r.group,
                "type": r.space_type,
                "polytope": {"vertices": [[rat_str(c) for c in v] for v in r.vertices]},
            }
        )
    return out


def catalog_from_json(data: list) -> Catalog:
    records = []
    for d in data:
        records.append(
            EmbeddingRecord(
                identifier=d["identifier"],
                family=d["family"],
                params=tuple(sorted((k, v) for k, v in d["params"].items())),
                dim=d["dim"],
                rank=d["rank"],
                pic=d["pic"],
                degree=d["degree"],
                fano_index=d["fano_index"],
                ke=d["ke"],
                group=d["group"],
                space_type=d["type"],
                vertices=tuple(
                    tuple(Fraction(c) for c in v) for v in d["polytope"]["vertices"]
                ),
                barycenter=tuple(Fraction(c) for c in d.get("barycenter", ())),
                k_value=d.get("k_verdict", ""),
            )
        )
    return _catalog(records)


def emit(catalog: Catalog, fmt: str) -> str:
    """The catalog as csv or json text."""
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        w.writeheader()
        for row in record_rows(catalog):
            w.writerow(row)
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps(catalog_to_json(catalog), indent=1) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return text


# ---------------------------------------------------------------------------
# verification against the published tables


KE_SPELLINGS = {
    "True": True, "true": True, "y": True, "yes": True,
    "False": False, "false": False, "n": False, "no": False,
}


def load_expected_csv(path_or_text) -> dict:
    """identifier -> (pic, degree, ke) of an expected table; each identifier
    is dim-rank-number and appears once, and ke is one of `KE_SPELLINGS`."""
    if "\n" in str(path_or_text):
        text = path_or_text
    else:
        with open(path_or_text) as fh:
            text = fh.read()
    out = {}
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or not {"identifier", "pic", "degree", "ke"} <= set(
        reader.fieldnames
    ):
        raise MalformedExpectedFile("expected columns identifier,pic,degree,ke")
    for row in reader:
        ident, ke = row["identifier"] or "", (row["ke"] or "").strip()
        where = f"line {reader.line_num}"
        if not re.fullmatch(r"[0-9]+-[0-9]+-[0-9]+", ident):
            raise MalformedExpectedFile(f"{where}: identifier {ident!r} is not dim-rank-number")
        if ident in out:
            raise MalformedExpectedFile(f"{where}: identifier {ident} given twice")
        if ke not in KE_SPELLINGS:
            raise MalformedExpectedFile(f"{where}: ke {ke!r} is none of {', '.join(KE_SPELLINGS)}")
        try:
            out[ident] = (int(row["pic"]), int(row["degree"]), KE_SPELLINGS[ke])
        except (TypeError, ValueError) as exc:
            raise MalformedExpectedFile(f"{where}: {exc}") from exc
    if not out:
        raise MalformedExpectedFile("no data rows")
    return out


def bundled_expected(name: str) -> str:
    return resources.files("sphfano").joinpath(f"data/{name}").read_text()


def verify(catalog: Catalog, expected) -> list[str]:
    """Mismatch report (empty = pass) of pic/degree/KE per identifier."""
    expected_map = expected if isinstance(expected, dict) else load_expected_csv(expected)
    by_id = {r.identifier: r for r in catalog.records}
    problems = []
    for ident, (pic, deg, ke) in sorted(expected_map.items(), key=lambda kv: identifier_sort_key(kv[0])):
        rec = by_id.get(ident)
        if rec is None:
            problems.append(f"{ident}: missing from catalog")
            continue
        if rec.pic != pic:
            problems.append(f"{ident}: pic {rec.pic} != expected {pic}")
        if rec.degree != deg:
            problems.append(f"{ident}: degree {rec.degree} != expected {deg}")
        if rec.ke != ke:
            problems.append(f"{ident}: ke {rec.ke} != expected {ke}")
    return problems
