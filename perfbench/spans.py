"""Tracing of sphfano's public functions at every lookup site.

The package binds names with ``from .x import y``, so one function is looked
up under several module dictionaries (``check_reflexive`` under
``sphfano.core``, ``sphfano.search``, ``sphfano.invariants`` ...).  The
tracer replaces every such binding with one wrapper named after the
defining module, records a span per call in memory, and restores every
binding afterwards.

Forked pool workers inherit the wrappers.  A worker writes its spans to a
spool file each time it returns to top level, because the pool terminates
its workers without running exit handlers.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass

from summary import self_time

ALL = ("catalog-serial", "catalog-jobs2", "check-stream")
CATALOG = ("catalog-serial", "catalog-jobs2")
CHECK = ("check-stream",)

# (defining module, function, workloads that must reach it, workloads that
# must not).  The must-not column is the "no walk on check-stream" guard.
WRAPPED = (
    ("registry", "build", ALL, ()),
    ("registry", "symmetry_group", ALL, ()),
    ("geometry", "dual", ALL, ()),
    ("geometry", "integrate", ALL, ()),
    ("geometry", "snf", ALL, ()),
    ("geometry", "transform_polytope", ALL, ()),
    ("geometry", "convex_hull", ALL, ()),
    ("geometry", "is_lattice_basis", ALL, ()),
    ("core", "check_reflexive", ALL, ()),
    ("core", "cone_over_face_meets_interior", ALL, ()),
    ("core", "valuation_cone_position", ALL, ()),
    ("search", "enumerate_polytopes", CATALOG, CHECK),
    ("search", "enumerate_rank1", CATALOG, CHECK),
    ("search", "enumerate_rank2", CATALOG, CHECK),
    ("search", "canonical_form", ALL, ()),
    ("invariants", "all_invariants", CHECK, ()),
    ("invariants", "picard_rank", ALL, ()),
    ("invariants", "degree", ALL, ()),
    ("invariants", "fano_index", ALL, ()),
    ("invariants", "k_verdict", ALL, ()),
    ("catalog", "identifier_map", ALL, ()),
    ("catalog", "build_catalog", CATALOG, CHECK),
    ("catalog", "emit", CATALOG, CHECK),
    ("catalog", "verify", CATALOG, CHECK),
)


def _tag_verdict(args, kwargs, result):
    return bool(result.ok)


def _tag_walk(args, kwargs, result):
    group = kwargs.get("group")
    return [group.kind if group is not None else None, len(result)]


# small per-call facts the layer metrics need
TAGGERS = {
    "core.check_reflexive": _tag_verdict,
    "search.enumerate_rank2": _tag_walk,
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the same process's span list, -1 at top level
    pid: int
    tag: object = None


class Tracer:
    """Install with `install()`, run the traced work, then `uninstall()`."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.spool_path = None  # set in forked workers only
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.sites: list[tuple] = []  # (module, attribute, original)
        self.wrappers: list = []

    def _wrap(self, name: str, fn):
        tagger = TAGGERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._enter_worker()
            span = Span(name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.pid)
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
                if tagger is not None and result is not None:
                    span.tag = tagger(args, kwargs, result)
                if not tracer.stack and tracer.spool_path is not None:
                    tracer._spool()

        return wrapper

    def _enter_worker(self):
        # first call in a forked worker: drop the parent's spans and stack
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.spool_path = os.path.join(self.spool_dir, f"spans-{self.pid}.jsonl")

    def _spool(self):
        with open(self.spool_path, "a") as fh:
            fh.write(json.dumps([[s.name, s.start, s.end, s.parent, s.tag] for s in self.spans]))
            fh.write("\n")
        self.spans = []

    def install(self):
        modules = _sphfano_modules()
        originals = {
            f"{mod}.{fn}": getattr(sys.modules[f"sphfano.{mod}"], fn) for mod, fn, _, _ in WRAPPED
        }
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        self.wrappers = list(wrappers.values())
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
                    self.sites.append((mod, attr, value))
        stray = _sites_bound_to(originals.values())
        if stray:
            self.uninstall()
            raise RuntimeError(f"lookup sites left unwrapped: {stray}")

    def uninstall(self):
        for mod, attr, original in reversed(self.sites):
            setattr(mod, attr, original)
        self.sites = []
        left = _sites_bound_to(self.wrappers)
        if left:
            raise RuntimeError(f"wrappers not restored: {left}")

    def collect(self) -> list[Span]:
        """Main-process spans followed by every worker's spooled spans."""
        out = list(self.spans)
        for fname in sorted(os.listdir(self.spool_dir)):
            if not (fname.startswith("spans-") and fname.endswith(".jsonl")):
                continue
            pid = int(fname[len("spans-") : -len(".jsonl")])
            with open(os.path.join(self.spool_dir, fname)) as fh:
                for line in fh:
                    base = len(out)
                    for name, start, end, parent, tag in json.loads(line):
                        out.append(Span(name, start, end, base + parent if parent >= 0 else -1, pid, tag))
        return out


def _sphfano_modules():
    return [m for n, m in list(sys.modules.items()) if n == "sphfano" or n.startswith("sphfano.")]


def _sites_bound_to(functions) -> list[str]:
    """Module attributes of the package bound to any of the given functions."""
    ids = {id(f) for f in functions}
    return [f"{m.__name__}.{a}" for m in _sphfano_modules() for a, v in vars(m).items() if id(v) in ids]


# ---------------------------------------------------------------------------
# per-layer metrics


def _kind_key(kind) -> str:
    return {
        "FullUnimodular": "full_unimodular",
        "ShearClass": "shear",
        "FiniteList": "finite",
        "Trivial": "trivial",
    }.get(kind, "other")


def _unit_factor(start: float, end: float) -> float:
    return 1.0


def span_self_times(spans: list[Span], factor=_unit_factor) -> list[float]:
    """Each span's self time, multiplied by factor(start, end) of the span."""
    children: dict[int, list] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        self_time(s.start, s.end, children.get(i, ())) * factor(s.start, s.end)
        for i, s in enumerate(spans)
    ]


def layer_metrics(spans: list[Span], jobs: int, factor=_unit_factor) -> dict:
    """Counts and busy/self times per wrapped function plus the derived ratios.

    Every time is multiplied by factor(start, end) of its interval, which
    rescales it to the reference speed when factor is a Speedometer's."""
    durations = [(s.end - s.start) * factor(s.start, s.end) for s in spans]
    selfs = span_self_times(spans, factor)
    m: dict[str, float] = {}
    for mod_name, fn_name, _, _ in WRAPPED:
        name = f"{mod_name}.{fn_name}"
        m[f"{name}.calls"] = 0
        m[f"{name}.total_s"] = 0.0
        m[f"{name}.self_s"] = 0.0
    for s, dur, st in zip(spans, durations, selfs):
        m[f"{s.name}.calls"] += 1
        m[f"{s.name}.total_s"] += dur
        m[f"{s.name}.self_s"] += st

    for kind in ("full_unimodular", "shear", "finite", "trivial"):
        m[f"search.enumerate_rank2.self_s.{kind}"] = 0.0
    classes = 0
    for s, st in zip(spans, selfs):
        if s.name == "search.enumerate_rank2" and s.tag is not None:
            key = f"search.enumerate_rank2.self_s.{_kind_key(s.tag[0])}"
            m[key] = m.get(key, 0.0) + st
            classes += s.tag[1]

    def under_walk(s):
        return s.parent >= 0 and spans[s.parent].name == "search.enumerate_rank2"

    checks = [s for s in spans if s.name == "core.check_reflexive"]
    walk_checks = [s for s in checks if under_walk(s)]
    raw_accepts = sum(1 for s in walk_checks if s.tag)
    m["search.walk.reflexive_checks"] = len(walk_checks)
    m["search.walk.raw_accepts"] = raw_accepts
    m["search.walk.classes"] = classes
    m["search.walk.accept_ratio"] = raw_accepts / len(walk_checks) if walk_checks else 0.0
    m["search.walk.dedup_ratio"] = classes / raw_accepts if raw_accepts else 0.0
    m["search.walk.edge_tests"] = sum(
        1 for s in spans if s.name == "core.cone_over_face_meets_interior" and under_walk(s)
    )
    m["core.check_reflexive.accept_ratio"] = (
        sum(1 for s in checks if s.tag) / len(checks) if checks else 0.0
    )

    # pool: enumerate_polytopes spans are the per-instance jobs, wherever they ran
    jobs_spans = [(s, d) for s, d in zip(spans, durations) if s.name == "search.enumerate_polytopes"]
    wall = sum(d for s, d in zip(spans, durations) if s.name == "catalog.build_catalog")
    busy = sum((d for _, d in jobs_spans), 0.0)
    last_end: dict[int, float] = {}
    for s, _ in jobs_spans:
        last_end[s.pid] = max(last_end.get(s.pid, 0.0), s.end)
    m["catalog.pool.busy_s"] = busy
    m["catalog.pool.efficiency"] = busy / (jobs * wall) if wall else 0.0
    m["catalog.pool.tail_s"] = 0.0
    if last_end:
        idle_from, done = min(last_end.values()), max(last_end.values())
        m["catalog.pool.tail_s"] = (done - idle_from) * factor(idle_from, done)
    m["catalog.pool.workers"] = len(last_end)
    m["catalog.job_s.max"] = max((d for _, d in jobs_spans), default=0.0)
    return m
