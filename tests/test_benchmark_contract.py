"""The benchmark's runs keep working on the current code.

A traced run of perfbench/run.py fails when a function that perfbench/spans.py
wraps is missing from its module, when a workload no longer reaches a function
it must reach, or when an output differs from perfbench/reference.json.  A
timed run fails when a workload's own call into the package breaks (say a
changed signature or a renamed result key).  This runs the command itself,
unmodified: traced for both catalog workloads, timed for check-stream,

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace T

The traced check-stream run is left out.  It lasts about 0.3 s, and the speed
sampler of perfbench/speed.py takes its first sample about 0.3 s after it
starts, so that run ends with "no speed samples" on a large share of runs of
any version of the program; it can join this list once the sampler takes its
first sample at once.  The timed run's sampler spans the six fresh set-up
interpreters as well, so it always has samples.

The coverage of the traced runs, check-stream included, is checked apart
from the sampler: one traced pass of each workload in a fresh interpreter,
with the layer metrics at the unit speed factor.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_benchmark(workload, trace):
    env = {k: v for k, v in os.environ.items() if k != "SPHFANO_BOX"}
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace]
    r = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stdout[-3000:] + r.stderr[-3000:]
    assert json.loads(r.stdout.splitlines()[-1])["correct"] is True


@pytest.mark.parametrize("workload", ["catalog-serial", "catalog-jobs2"])
def test_traced_benchmark_run_is_correct(workload):
    _run_benchmark(workload, "1")


def test_timed_check_stream_run_is_correct():
    _run_benchmark("check-stream", "0")



# One traced pass of each workload after the identifier-map load, traced as
# in perfbench/run.py but without the speed sampler, so that its times are
# taken at the unit factor.  It prints each pass's problems, coverage
# problems included, as run.py's traced run words them.
COVERAGE_CODE = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
import spans
from workloads import import_engine, make_workload

import_engine()
from sphfano import catalog

with open(sys.argv[2]) as fh:
    ref = json.load(fh)
out = {}
for name in spans.ALL:
    wl = make_workload(name, 1, ref)
    inp = wl.prepare()
    with tempfile.TemporaryDirectory() as spool:
        tracer = spans.Tracer(spool)
        tracer.install()
        try:
            catalog.identifier_map()
            res = wl.run(inp)
        finally:
            tracer.uninstall()
        m = spans.layer_metrics(tracer.collect(), wl.jobs)
    out[name] = list(res.problems)
    for mod, fn, must, must_not in spans.WRAPPED:
        calls = m[f"{mod}.{fn}.calls"]
        if name in must and calls == 0:
            out[name].append(f"coverage: {mod}.{fn} never called on {name}")
        if name in must_not and calls:
            out[name].append(f"coverage: {mod}.{fn} called {calls} times on {name}")
print(json.dumps(out))
"""


def test_traced_passes_reach_every_wrapped_function():
    """Each workload's traced pass is correct, reaches every function of
    perfbench/spans.py's WRAPPED that it must and none that it must not."""
    env = {k: v for k, v in os.environ.items() if k != "SPHFANO_BOX"}
    argv = [str(ROOT / "perfbench"), str(ROOT / "perfbench" / "reference.json")]
    r = subprocess.run(
        [sys.executable, "-c", COVERAGE_CODE, *argv],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-3000:]
    problems = json.loads(r.stdout.splitlines()[-1])
    assert problems == {w: [] for w in ("catalog-serial", "catalog-jobs2", "check-stream")}
