"""The benchmark's workloads: what one pass runs and how its output is checked.

Every call into sphfano goes through a module attribute looked up at call
time (``catalog.build_catalog``, ``core.check_reflexive`` ...), so the
tracer's wrappers see the benchmark's own calls as well as the package's.
"""

from __future__ import annotations

import hashlib
import os
import resource
import sys
import time
from dataclasses import dataclass, field

from checkreq import MOVED, RequestStream, load_pinned

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The catalog workloads build dimensions 2 and 3, all ranks: 75 of the 337
# records, every one of the 67 bundled published rows, and three of the
# twelve candidate-heavy rank-2 instances (toric n=2 and SL2xGm.horo n=2,
# full-unimodular and shear groups).  A full build takes about two minutes
# serially, too long to repeat the twenty-odd times a comparison needs.
DIMS = (2, 3)
CHECK_BLOCK = 256  # requests per check-stream pass


def import_engine():
    """Import sphfano from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import sphfano

    where = os.path.dirname(os.path.abspath(sphfano.__file__))
    if where != os.path.join(SRC, "sphfano"):
        raise ImportError(f"sphfano imported from {where}, not from {SRC}")
    return sphfano


def cpu_now() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class PassResult:
    start_s: float  # perf_counter at the start, to look up the machine's speed
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    latencies: dict = field(default_factory=dict)  # verdict -> [seconds]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def grid_of(cat) -> dict:
    return {f"{rank},{dim}": n for (rank, dim), n in sorted(cat.counts.items())}


class CatalogWorkload:
    """build_catalog + emit (CSV and JSON) + verify, once per pass."""

    def __init__(self, jobs: int, ref: dict):
        from sphfano import catalog

        self.catalog = catalog
        self.jobs = jobs
        self.ref = ref["catalog"]
        self.expected = {}
        for name in ("expected_dim2.csv", "expected_dim3.csv"):
            rows = catalog.load_expected_csv(catalog.bundled_expected(name))
            self.expected.update(
                {k: v for k, v in rows.items() if int(k.split("-")[0]) in DIMS}
            )

    def prepare(self):
        return None

    def run(self, _inp) -> PassResult:
        catalog = self.catalog
        warnings = []
        c0, t0 = cpu_now(), time.perf_counter()
        try:
            cat = catalog.build_catalog(dims=DIMS, jobs=self.jobs, warn=warnings.append)
            csv_text = catalog.emit(cat, "csv")
            json_text = catalog.emit(cat, "json")
            mismatches = catalog.verify(cat, self.expected)
        except Exception as exc:  # one failed operation, reported, not fatal
            wall, cpu = time.perf_counter() - t0, cpu_now() - c0
            return PassResult(t0, wall, cpu, 1, 1, [f"build raised {exc!r}"])
        wall, cpu = time.perf_counter() - t0, cpu_now() - c0
        problems = list(warnings) + list(mismatches)
        if cat.total() != self.ref["records"]:
            problems.append(f"{cat.total()} records, expected {self.ref['records']}")
        if grid_of(cat) != self.ref["grid"]:
            problems.append(f"count grid {grid_of(cat)} != {self.ref['grid']}")
        if sha256(csv_text) != self.ref["csv_sha256"]:
            problems.append("CSV emission digest differs from reference.json")
        if sha256(json_text) != self.ref["json_sha256"]:
            problems.append("JSON emission digest differs from reference.json")
        return PassResult(t0, wall, cpu, 1, int(bool(problems)), problems)


def run_check(req):
    """The calls of `sphfano check`, in its order, without printing."""
    from sphfano import core, geometry, invariants, registry, search

    fam, params = req.pinned.family, req.pinned.params
    data = registry.build(fam, params)
    if data.rank == 1:
        P = geometry.RationalPolytope(1, tuple(sorted(req.vertices)))
    else:
        P = geometry.convex_hull(req.vertices, 2)
    verdict = core.check_reflexive(data, P)
    if not verdict.ok:
        return verdict, None, None
    inv = invariants.all_invariants(data, P)
    cp = search.canonical_form(data, P, group=registry.symmetry_group(fam, params), check=False)
    return verdict, inv, cp


class CheckStream:
    """A closed loop of `check` requests, one client, CHECK_BLOCK per pass."""

    jobs = 1

    def __init__(self, seed: int, ref: dict):
        from sphfano import registry

        pinned = load_pinned(os.path.join(SRC, "sphfano", "data", "identifier_map.json"))
        groups = {p.ident: registry.symmetry_group(p.family, p.params) for p in pinned}
        self.stream = RequestStream(seed, pinned, groups)
        self.truth = {k: tuple(v) for k, v in ref["records"].items()}

    def prepare(self):
        return self.stream.block(CHECK_BLOCK)

    def run(self, block) -> PassResult:
        outcomes = []
        c0, t0 = cpu_now(), time.perf_counter()
        for req in block:
            r0 = time.perf_counter()
            try:
                out = run_check(req)
            except Exception as exc:  # one failed request, reported, not fatal
                out = exc
            outcomes.append((time.perf_counter() - r0, out))
        wall, cpu = time.perf_counter() - t0, cpu_now() - c0

        from sphfano import catalog, registry

        idmap = catalog.identifier_map()
        res = PassResult(t0, wall, cpu, len(block), 0, latencies={"accept": [], "reject": []})
        for req, (lat, out) in zip(block, outcomes):
            problem = None
            if isinstance(out, Exception):
                problem = f"raised {out!r}"
            else:
                verdict, inv, cp = out
                res.latencies["accept" if verdict.ok else "reject"].append(lat)
                problem = self._check(req, verdict, inv, cp, idmap, registry.params_key)
            if problem:
                res.failed += 1
                res.problems.append(f"{req.kind} copy of {req.pinned.ident} {req.vertices}: {problem}")
        return res

    def _check(self, req, verdict, inv, cp, idmap, params_key):
        if not verdict.ok:
            if req.kind == MOVED:
                return f"moved copy rejected: {verdict.violations}"
            return None if verdict.violations else "rejected without a violation"
        key = (req.pinned.family, params_key(req.pinned.params), cp.polytope.vertices)
        ident = idmap.get(key)
        if ident is None:
            return "canonical form matches no pinned polytope of the family"
        if req.kind == MOVED and ident != req.pinned.ident:
            return f"canonicalised to {ident}"
        got = (inv["pic"], inv["degree"], inv["k_verdict"].is_stable())
        if got != self.truth[ident]:
            return f"(pic, degree, ke) {got} != catalog {self.truth[ident]} of {ident}"
        return None


def make_workload(name: str, seed: int, ref: dict):
    if name == "catalog-serial":
        return CatalogWorkload(1, ref)
    if name == "catalog-jobs2":
        return CatalogWorkload(2, ref)
    if name == "check-stream":
        return CheckStream(seed, ref)
    raise ValueError(f"unknown workload {name!r}")
