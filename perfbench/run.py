"""Benchmark of the sphfano classifier.

    python3 perfbench/run.py --workload catalog-serial --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Workloads (see perfbench/README.md): ``catalog-serial``, ``catalog-jobs2``
and ``check-stream``.  With ``--trace 0`` the run is timed and reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it wraps the public
functions of each module and reports the per-layer metrics instead.  Every
output is checked against reference.json, recorded at commit adb45c1.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed
import summary
from workloads import ROOT, SRC, import_engine, make_workload

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("catalog-serial", "catalog-jobs2", "check-stream")
SETUP_SAMPLES = 3  # before the passes, and as many again after them
CHILD_TIMEOUT_S = 170

# set-up as a user pays it: a fresh interpreter imports the package, loads
# the registry and canonicalises the identifier map
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import sphfano
from sphfano import catalog, registry
registry.families()
catalog.identifier_map()
print(time.perf_counter() - t0)
"""


def environment() -> dict:
    with open("/proc/loadavg") as fh:
        load = fh.read().split()[:3]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": [float(x) for x in load],
    }


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def measure_setup() -> list[tuple]:
    """(set-up seconds, window start, window end) of fresh interpreters."""
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        out.append((float(proc.stdout.strip().splitlines()[-1]), t0, time.perf_counter()))
    return out


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children figure is the largest single
    # child, which for catalog-jobs2 includes every pool worker
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def describe_tail(values) -> str:
    t = summary.tail(values)
    if t is None:
        return f"n/a (n={len(values)}, fewer than {summary.TAIL_MIN_BEYOND} beyond the median)"
    p, v, beyond = t
    return f"{v * 1e3:.4f} ms (p{p:g}, {beyond} samples beyond, n={len(values)})"


def pin(jobs: int) -> list[int]:
    """Pin this process, and so its children, to as many CPUs as it has jobs."""
    cpus = sorted(os.sched_getaffinity(0))[:jobs]
    os.sched_setaffinity(0, cpus)
    return cpus


def timed_run(name, wl, seconds):
    """Passes until the window would be overrun, with set-up sampled before
    and after them.  Every time is rescaled to the reference speed by the
    pinned CPUs' sampled speed (see speed.py)."""
    cpus = pin(wl.jobs)
    with speed.Speedometer(cpus) as meter:
        setup_raw = measure_setup()
        from sphfano import catalog

        catalog.identifier_map()  # this process's own set-up, not timed
        passes = []
        start = time.perf_counter()
        while True:
            res = wl.run(wl.prepare())
            passes.append(res)
            if time.perf_counter() - start + res.wall_s > seconds:
                break
        setup_raw += measure_setup()

    setup = [x * meter.factor(t0, t1) for x, t0, t1 in setup_raw]
    factors = [meter.factor(p.start_s, p.start_s + p.wall_s) for p in passes]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    walls = [p.wall_s for p in passes]
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median([w * f for w, f in zip(walls, factors)]),
        "cpu_s": statistics.median([p.cpu_s * f for p, f in zip(passes, factors)]),
        "peak_rss_mb": peak_rss_mb(),
    }
    lines = [
        f"cpus: {cpus}; passes: {len(passes)}",
        f"raw set-up s: {[round(x, 4) for x, _, _ in setup_raw]}",
        f"rescaled set-up s: {[round(x, 4) for x in setup]}",
        f"raw pass s: {[round(x, 4) for x in walls]}",
        f"speed factors: {[round(x, 4) for x in factors]}",
    ]
    if name.startswith("catalog"):
        lines.append(f"catalog_s: {metrics['pass_s']:.4f} s (median of {len(walls)} builds)")
    else:
        acc = [x * f for p, f in zip(passes, factors) for x in p.latencies["accept"]]
        rej = [x * f for p, f in zip(passes, factors) for x in p.latencies["reject"]]
        rescaled = sum(w * f for w, f in zip(walls, factors))
        lines.append(f"checks_per_s: {attempted / rescaled:.2f} 1/s ({attempted} requests)")
        for label, vals in (("accept", acc), ("reject", rej)):
            p50 = f"{statistics.median(vals) * 1e3:.4f} ms" if vals else "n/a"
            lines.append(f"{label}_p50_ms: {p50} (n={len(vals)})")
            lines.append(f"{label}_tail_ms: {describe_tail(vals)}")
    lines.append(f"failed_frac: {failed / attempted:.6f} ({failed} of {attempted})")
    problems = [x for p in passes for x in p.problems]
    return metrics, attempted, failed, lines, problems


def traced_run(name, wl, seed, ref):
    """One traced pass after a traced set-up, then the same input untraced.

    Pinned and rescaled like a timed run: every span's times are multiplied
    by the speed factor over the span, and each pass's wall by its own."""
    import spans

    cpus = pin(wl.jobs)
    spool = tempfile.mkdtemp(prefix=".perfbench-spans-", dir=ROOT)
    try:
        with speed.Speedometer(cpus) as meter:
            tracer = spans.Tracer(spool)
            inp = wl.prepare()
            from sphfano import catalog

            tracer.install()
            try:
                catalog.identifier_map()
                pass_start = time.perf_counter()
                traced = wl.run(inp)
            finally:
                tracer.uninstall()
            plain = wl.run(inp)
        all_spans = tracer.collect()
    finally:
        shutil.rmtree(spool, ignore_errors=True)

    m = spans.layer_metrics(all_spans, wl.jobs, meter.factor)
    selfs = spans.span_self_times(all_spans, meter.factor)
    attributed = sum(
        st for s, st in zip(all_spans, selfs)
        if s.pid == os.getpid() and s.start >= pass_start and s.name != "catalog.build_catalog"
    )
    traced_s = traced.wall_s * meter.factor(traced.start_s, traced.start_s + traced.wall_s)
    plain_s = plain.wall_s * meter.factor(plain.start_s, plain.start_s + plain.wall_s)
    m["trace.pass_s"] = traced_s
    m["trace.overhead"] = traced_s / plain_s
    m["trace.uncovered_s"] = traced_s - attributed

    problems = traced.problems + plain.problems
    for mod, fn, must, must_not in spans.WRAPPED:
        calls = m[f"{mod}.{fn}.calls"]
        if name in must and calls == 0:
            problems.append(f"coverage: {mod}.{fn} never called on {name}")
        if name in must_not and calls:
            problems.append(f"coverage: {mod}.{fn} called {calls} times on {name}")
    coverage_ok = not any(p.startswith("coverage:") for p in problems)

    counts = {
        k: v for k, v in m.items()
        if isinstance(v, int) and (k.endswith(".calls") or k.startswith("search.walk."))
    }
    lines = [f"{k}: {v:.6g}" for k, v in sorted(m.items())]
    share = m["search.enumerate_rank2.self_s"] / traced_s
    lines.append(f"search.enumerate_rank2.self_s / trace.pass_s (summed over workers): {share:.3f}")
    lines.append("trace counts: " + json.dumps(counts, sort_keys=True))
    recorded = ref.get("trace_calls", {}).get(name)
    if recorded and recorded.get("seed", seed) == seed:
        diff = {
            k: [recorded["counts"].get(k), counts.get(k)]
            for k in sorted(set(recorded["counts"]) | set(counts))
            if recorded["counts"].get(k) != counts.get(k)
        }
        lines.append(f"call-count diff against reference.json ([reference, now]): {json.dumps(diff)}")
    attempted = traced.attempted + plain.attempted
    failed = traced.failed + plain.failed + (0 if coverage_ok else 1)
    return m, attempted, failed, lines, problems


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one summary line per metric."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        print(f"== {name}")
        print(proc.stdout, end="")
        if proc.returncode:
            print(proc.stderr, end="", file=sys.stderr)
            ok = False
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if "SPHFANO_BOX" in os.environ:
        print("error: SPHFANO_BOX is set; it changes the search and the digests", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    env_start = environment()
    try:
        import_engine()
        with open(os.path.join(HERE, "reference.json")) as fh:
            ref = json.load(fh)
        bench = spec()
    except (ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wl = make_workload(args.workload, args.seed, ref)
    if args.trace:
        metrics, attempted, failed, lines, problems = traced_run(args.workload, wl, args.seed, ref)
        declared = bench["per_layer"]
    else:
        metrics, attempted, failed, lines, problems = timed_run(args.workload, wl, args.seconds)
        declared = bench["end_to_end"]
    env_end = environment()

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("env start: " + json.dumps(env_start))
    print("env end: " + json.dumps(env_end))
    for line in lines:
        print(line)
    for p in problems[:20]:
        print(f"problem: {p}")
    for d in declared:
        print(f"{d['name']}: {metrics[d['name']]:.6g} {d['unit']}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
