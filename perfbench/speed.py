"""Host speed sampler.

The CPU throughput this host gives one process drifts by tens of percent,
in spells of a fraction of a second to several seconds, independently on
each core (other tenants share the machine).  Measured: one N = 20 solve
took 0.40 s and 0.70 s a minute apart; two cores' speeds correlated at
0.07.  So the benchmark pins itself, its children and this sampler to one
core.  The sampler runs a short fixed kernel of 40-digit mpf arithmetic
(the interpreter and big-integer mix the solver runs) every PERIOD_S and
logs how long it took.  A measured interval is scaled to reference speed
by the kernel times logged inside it:

    reported time = wall time * REFERENCE_KERNEL_S / mean kernel time

A kernel takes about 20 ms; shorter ones track the work's speed worse
(they are dominated by refilling caches after sleeping).  The sampler
costs the measured work about 5% of the core, the same for every commit.  Run as a script: ``speed.py LOG_FILE`` appends
"start duration" lines until it is killed.
"""

import bisect
import os
import statistics
import subprocess
import sys
import time

KERNEL_ITERATIONS = 4000
PERIOD_S = 0.4
REFERENCE_KERNEL_S = 0.04
_START_TIMEOUT_S = 30


def kernel():
    from mpmath import mp, mpf

    with mp.workdps(40):
        x = mpf(1) / 3
        acc = mpf(0)
        for i in range(KERNEL_ITERATIONS):
            acc = acc * x + i
            if i % 7 == 0:
                acc -= x * x
    return acc


def pin_to_one_core():
    """Restrict this process (and the children it starts) to one core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedSampler:
    """Runs speed.py as a child for the life of a `with` block."""

    def __init__(self, log_file):
        self.log_file = log_file
        self._proc = None
        self._samples = None

    def __enter__(self):
        open(self.log_file, "w").close()
        self._proc = subprocess.Popen([sys.executable, os.path.abspath(__file__),
                                       self.log_file])
        deadline = time.monotonic() + _START_TIMEOUT_S
        while os.path.getsize(self.log_file) == 0:
            if self._proc.poll() is not None or time.monotonic() > deadline:
                self.__exit__(None, None, None)
                raise RuntimeError("speed sampler did not start")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc):
        self._proc.terminate()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        return False

    def _load(self):
        if self._samples is None:
            with open(self.log_file) as fh:
                # a line cut short when the sampler was stopped is skipped
                rows = sorted(tuple(map(float, line.split()))
                              for line in fh if line.endswith("\n"))
            self._samples = ([t for t, _ in rows], [d for _, d in rows])
        return self._samples

    def scale(self, t0, t1):
        """Factor taking a wall time measured over [t0, t1] (perf_counter
        seconds) to reference speed.  Uses the samples that started inside
        the interval, and at least the two nearest ones."""
        starts, durations = self._load()
        lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_right(starts, t1)
        if hi - lo < 2:
            mid = bisect.bisect_left(starts, (t0 + t1) / 2)
            lo, hi = max(0, mid - 1), min(len(starts), mid + 1)
        return REFERENCE_KERNEL_S / statistics.mean(durations[lo:hi])


def _sample_forever(log_file):
    with open(log_file, "a") as fh:
        while True:
            t0 = time.perf_counter()
            kernel()
            fh.write(f"{t0!r} {time.perf_counter() - t0!r}\n")
            fh.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    _sample_forever(sys.argv[1])
