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
