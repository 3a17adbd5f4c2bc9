"""Per-CPU speed sampling, so that times can be rescaled to one reference speed.

On the shared 2-vCPU machines this benchmark runs on, each vCPU switches
every few seconds, independently of the other, between speed states about
1.8x apart.  Raw times of the same work then spread by 20-30% from run to
run.  A sampler process pinned to a CPU times a fixed stdlib snippet every
PERIOD_S and reads the CPU's busy ticks from /proc/stat.  The speed factor
of an interval is the mean of REF_SNIPPET_S / snippet time over the samples
taken in it, weighted by how busy the CPU was before each sample, so that
an idle CPU does not count.  A time multiplied by it is the time at the
reference speed.  A sampler takes about 1-2% of its CPU.

Run as a script, this module is the sampler:
    python3 speed.py CPU        # samples until its standard input closes
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

PERIOD_S = 0.25
# snippet CPU time at the reference speed, the slower of the two states seen
# on a 2-vCPU Intel Xeon microVM with Python 3.11; only ratios to it matter
REF_SNIPPET_S = 0.003


def snippet() -> float:
    """CPU seconds of a fixed piece of Fraction work, independent of sphfano.

    CPU time rather than wall time, so that sharing the CPU with the
    measured process does not count, while the CPU's speed state does."""
    t0 = time.thread_time()
    acc = Fraction(0)
    for i in range(1, 150):
        a = Fraction(i % 97 - 48, (i % 13) + 1)
        b = Fraction(3, (i % 7) + 1)
        acc += a * b - b / (a + 1 if a != -1 else 2)
    return time.thread_time() - t0


def busy_ticks(cpu: int) -> int:
    """User, nice, system, irq and softirq ticks of one CPU so far."""
    with open("/proc/stat") as fh:
        for line in fh:
            if line.startswith(f"cpu{cpu} "):
                f = [int(x) for x in line.split()[1:8]]
                return f[0] + f[1] + f[2] + f[5] + f[6]
    raise RuntimeError(f"cpu{cpu} not in /proc/stat")


def _sample(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    out = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        t0 = time.perf_counter()
        c = snippet()
        out.append((t0, c, busy_ticks(cpu)))
    json.dump(out, sys.stdout)


class Speedometer:
    """One sampler per CPU for the life of a `with` block."""

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self.procs = []
        self.samples = {}  # cpu -> [(start, snippet CPU seconds, busy ticks)]
        self._times = {}  # cpu -> sample start times, for bisection

    def __enter__(self):
        here = os.path.abspath(__file__)
        for cpu in self.cpus:
            self.procs.append(
                subprocess.Popen(
                    [sys.executable, here, str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                )
            )
        return self

    def __exit__(self, *exc):
        failed = []
        for cpu, proc in zip(self.cpus, self.procs):
            try:
                out, _ = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
            if proc.returncode == 0:
                self.samples[cpu] = json.loads(out)
            else:
                failed.append(cpu)
        if failed and exc[0] is None:
            raise RuntimeError(f"speed sampler failed on cpu {failed}")
        return False

    def factor(self, start: float, end: float, cpus=None) -> float:
        """Busy-weighted mean reference/actual speed ratio over [start, end].

        Falls back to the nearest sample of each CPU when none lies inside
        the interval, and to equal weights when the CPUs were idle."""
        pairs = []  # (ratio, weight)
        for cpu in cpus if cpus is not None else self.cpus:
            s = self.samples.get(cpu, [])
            if not s:
                continue
            if cpu not in self._times:
                self._times[cpu] = [t for t, _, _ in s]
            times = self._times[cpu]
            lo, hi = bisect_left(times, start), bisect_right(times, end)
            inside = range(lo, hi)
            if lo == hi:  # every sample lies before start or after end
                mid = (start + end) / 2
                near = [i for i in (lo - 1, lo) if 0 <= i < len(s)]
                inside = [min(near, key=lambda i: abs(times[i] - mid))]
            for i in inside:
                weight = s[i][2] - s[i - 1][2] if i > 0 else 0
                pairs.append((REF_SNIPPET_S / s[i][1], weight))
        if not pairs:
            raise RuntimeError("no speed samples")
        total = sum(w for _, w in pairs)
        if total <= 0:
            return sum(r for r, _ in pairs) / len(pairs)
        return sum(r * w for r, w in pairs) / total


if __name__ == "__main__":
    _sample(int(sys.argv[1]))
