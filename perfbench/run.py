"""Benchmark of the bernbvp solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is taken from its src/.
Workloads (why each exists: see perfbench/README.md):

    examples-n40  the five built-in examples solved to N = 40 through
                  bernbvp.solve in one warm process
    table-cli     `bernbvp table` (degrees 2..20, examples 1-5), one fresh
                  process per job
    specs-mixed   seeded spec files with manufactured solutions, orders
                  m = 1..8, run through bernbvp.cli.main(["solve", ...]) in
                  one warm process

Load is a closed loop with one client: one job at a time, the next starting
when the previous one ends.  Jobs run in passes (every job of the workload
once, in an order shuffled by the seed) until --seconds have gone by; the
pass in progress is always finished.  The run is pinned to one core, and
every reported time is its wall time scaled to a reference host speed
measured on that core while the job ran (see speed.py).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and prints the per-layer metrics of the traced ones,
plus trace.overhead_frac, the traced against the untraced pass time.
Every output is checked (perfbench/checks.py); the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  The full
result, with the environment it was measured in, is written to
perfbench/out/.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time

from speed import SpeedSampler, pin_to_one_core

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
CHILD = os.path.join(BENCH, "child.py")

EXAMPLES_DEGREE = 40
TABLE_ARGS = ["table", "--examples", "1,2,3,4,5", "--min-degree", "2", "--max-degree", "20"]
SETUP_SAMPLES = 3         # fresh interpreters timed per run for setup_s
CLI_SETUP_SAMPLES = 5     # trivial CLI calls timed per run on table-cli
CHILD_TIMEOUT_S = 150


def _child_env():
    return dict(os.environ, PYTHONPATH=SRC)


def _run_child(argv):
    """Run a child interpreter to completion; returns (t0, t1, code, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=_child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S)
    return t0, time.perf_counter(), proc.returncode, proc.stdout


def _probe_setup(workload, max_degree):
    """One fresh interpreter doing the set-up: (spawn time, ready time, the
    import time it measured itself)."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, CHILD, "setup", workload, str(max_degree)],
                          cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe for {workload} exited with {code}")
    return t0, t1, json.loads(line)["import_s"]


def _digest(data):
    return hashlib.sha256(data).hexdigest()


class Job:
    """One attempted job: when it ran, its output, verdict and trace record."""

    def __init__(self, key, pass_no, traced, t0, t1, output=b"", reason=None, record=None):
        self.key, self.pass_no, self.traced = key, pass_no, traced
        self.t0, self.t1 = t0, t1
        self.output, self.reason, self.record = output, reason, record
        self.scale = 1.0
        self.err = None

    @property
    def time(self):
        """Wall time scaled to reference speed (see speed.py)."""
        return (self.t1 - self.t0) * self.scale

    def as_dict(self):
        return {"key": self.key, "pass": self.pass_no, "traced": self.traced,
                "wall_s": self.t1 - self.t0, "scale": self.scale, "time_s": self.time,
                "err": self.err, "reason": self.reason, "sha256": _digest(self.output)}


class ExamplesN40:
    name = "examples-n40"
    in_process = True
    min_passes = 1            # a pass is ~30 s

    def __init__(self, seed):
        import child

        self.problems = child.prepare(self.name, EXAMPLES_DEGREE)

    def keys(self):
        return [ex.id for ex in self.problems]

    def setup_samples(self):
        return [_probe_setup(self.name, EXAMPLES_DEGREE) for _ in range(SETUP_SAMPLES)]

    def run(self, key, pass_no, tracer):
        from bernbvp import SolveOptions, solve

        ex = self.problems[key - 1]
        options = SolveOptions(degree=EXAMPLES_DEGREE)
        span = tracer.job(key, "solver.solve") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span:
            report = solve(ex.problem, options)
        return t0, time.perf_counter(), report.solution.coeffs.tobytes(), None, None

    def check(self, job):
        import numpy as np
        from checks import check_example

        coeffs = np.frombuffer(job.output, dtype=float)
        return check_example(self.problems[job.key - 1], coeffs)


class SpecsMixed:
    name = "specs-mixed"
    in_process = True
    min_passes = 2            # coefficient files are compared across passes

    def __init__(self, seed):
        import child
        import specgen

        self.specs = specgen.generate(seed)
        self.dir = os.path.join(OUT, f"specs-seed{seed}")
        self.paths = specgen.write_specs(self.specs, self.dir)
        self.max_degree = max(n for _, _, _, n in self.specs)
        child.prepare(self.name, self.max_degree)

    def keys(self):
        return list(range(len(self.specs)))

    def setup_samples(self):
        return [_probe_setup(self.name, self.max_degree) for _ in range(SETUP_SAMPLES)]

    def run(self, key, pass_no, tracer):
        from bernbvp.cli import main

        name, _, _, degree = self.specs[key]
        out = os.path.join(self.dir, f"{name}.pass{pass_no}.out.json")
        argv = ["solve", self.paths[key], "--degree", str(degree), "--out", out]
        span = tracer.job(key, "cli.main") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span, contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        t1 = time.perf_counter()
        if code != 0:
            return t0, t1, b"", f"exit code {code}", None
        with open(out, "rb") as fh:
            return t0, t1, fh.read(), None, None

    def check(self, job):
        from checks import check_spec_output

        _, _, exact, degree = self.specs[job.key]
        return check_spec_output(json.loads(job.output), exact, degree)


class TableCli:
    name = "table-cli"
    in_process = False
    min_passes = 2            # CSV output is compared across jobs

    def __init__(self, seed):
        from checks import load_paper_table

        self.paper, self.floor = load_paper_table(ROOT)
        os.makedirs(OUT, exist_ok=True)
        self.coeffs = os.path.join(OUT, "trivial-coeffs.json")
        with open(self.coeffs, "w") as fh:
            fh.write('{"degree": 1, "coefficients": [0.25, 0.75]}\n')

    def keys(self):
        return ["table"]

    def _trivial(self, prefix):
        t0, t1, code, stdout = _run_child(prefix + ["eval", "--coeffs", self.coeffs,
                                                    "--at", "0.5"])
        if code != 0 or stdout.strip() != b"0.5":
            raise RuntimeError(f"trivial bernbvp call failed ({code}, {stdout!r})")
        return t0, t1

    def setup_samples(self):
        """Trivial CLI calls; each one's import time is measured by one more
        such call made through child.py."""
        trace = os.path.join(OUT, "import-probe.json")
        out = []
        for _ in range(CLI_SETUP_SAMPLES):
            t0, t1 = self._trivial(["-m", "bernbvp.cli"])
            self._trivial([CHILD, "cli", trace])
            with open(trace) as fh:
                out.append((t0, t1, json.load(fh)["import_s"]))
        return out

    def run(self, key, pass_no, tracer):
        if tracer is None:
            t0, t1, code, stdout = _run_child(["-m", "bernbvp.cli"] + TABLE_ARGS)
            record = None
        else:
            trace = os.path.join(OUT, f"table-trace-pass{pass_no}.json")
            t0, t1, code, stdout = _run_child([CHILD, "cli", trace] + TABLE_ARGS)
            with open(trace) as fh:
                record = json.load(fh)
        return t0, t1, stdout, None if code == 0 else f"exit code {code}", record

    def check(self, job):
        from checks import check_table_csv

        return check_table_csv(job.output.decode(), self.paper, self.floor)


WORKLOADS = {cls.name: cls for cls in (ExamplesN40, TableCli, SpecsMixed)}


def run_passes(workload, seed, seconds, traced_pass, min_passes):
    """Passes until `seconds` have gone by (and at least min_passes).

    Returns a list of (traced, [Job], record); record is the tracer's pass
    record for a traced in-process pass, else None (a traced out-of-process
    job carries its child's record).
    """
    from tracing import Tracer

    passes = []
    start = time.perf_counter()
    pass_no = 0
    # a traced run ends on a traced pass, so it has as many of each kind
    while (pass_no < min_passes or time.perf_counter() - start < seconds
           or traced_pass(pass_no)):
        traced = traced_pass(pass_no)
        keys = workload.keys()
        random.Random(f"{seed}:{pass_no}").shuffle(keys)
        tracer = Tracer() if traced else None
        if traced and workload.in_process:
            tracer.install()
        jobs = []
        for key in keys:
            t0 = time.perf_counter()
            try:
                result = workload.run(key, pass_no, tracer)
            except Exception as exc:  # a failed job is counted, not fatal
                result = (t0, time.perf_counter(), b"", f"{type(exc).__name__}: {exc}", None)
            jobs.append(Job(key, pass_no, traced, *result))
        record = None
        if traced and workload.in_process:
            tracer.uninstall()
            record = tracer.dump()
        passes.append((traced, jobs, record))
        pass_no += 1
    return passes


def scale_to_reference(sampler, passes, setup):
    """Apply the host-speed scale to every job; returns the scaled set-up
    samples [(setup s, import s)] and the scaled per-layer records."""
    from tracing import scaled_record

    records = []
    for traced, jobs, record in passes:
        for job in jobs:
            job.scale = sampler.scale(job.t0, job.t1)
            if job.record is not None:
                records.append(scaled_record(job.record, job.scale))
        if record is not None:
            records.append(scaled_record(record, statistics.mean(j.scale for j in jobs)))
    scaled_setup = []
    for t0, t1, import_s in setup:
        factor = sampler.scale(t0, t1)
        scaled_setup.append(((t1 - t0) * factor, import_s * factor))
    return scaled_setup, records


def check_jobs(workload, jobs):
    """Fill in each job's error and failure reason; returns the failures.

    Beyond each job's own check, a job fails if its output differs from the
    first run of the same job.
    """
    first = {}
    for job in jobs:
        if job.reason is None:
            try:
                job.err, job.reason = workload.check(job)
            except Exception as exc:  # malformed output is a failed job
                job.reason = f"check raised {type(exc).__name__}: {exc}"
        if job.reason is None:
            ref = first.setdefault(job.key, job.output)
            if job.output != ref:
                job.reason = "output differs from the first run of this job"
    return [j for j in jobs if j.reason is not None]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def _src_sha256():
    """Digest of every file under src/bernbvp (stands in for the commit
    where the checkout is not a git repository)."""
    h = hashlib.sha256()
    base = os.path.join(SRC, "bernbvp")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(args):
    """What a result depends on besides the code.  Results measured with a
    different mpmath backend, CPU or core count are not comparable."""
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(workload, setup, jobs, failed):
    times = [j.time for j in jobs]
    errs = [j.err for j in jobs if j.err is not None and math.isfinite(j.err)]
    # an exact zero error (not seen in practice) counts as 17 digits
    digits = -math.log10(max(max(errs), 1e-17)) if errs else None
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return {
        "setup_s": _metric(statistics.median(s for s, _ in setup), "s"),
        "job_s_p50": _metric(statistics.median(times), "s"),
        "jobs_per_s": _metric(len(jobs) / sum(times), "1/s"),
        "err_digits": _metric(digits, "digits"),
        "ok_frac": _metric((len(jobs) - len(failed)) / len(jobs), "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bernbvp", "solver.py")):
        print(f"error: no bernbvp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)

    env = environment(args)
    pin_to_one_core()
    workload = WORKLOADS[args.workload](args.seed)
    with SpeedSampler(os.path.join(OUT, "speed.log")) as sampler:
        setup = workload.setup_samples()
        if args.trace:
            passes = run_passes(workload, args.seed, args.seconds, lambda p: p % 2 == 1, 2)
        else:
            passes = run_passes(workload, args.seed, args.seconds, lambda p: False,
                                workload.min_passes)
    setup, records = scale_to_reference(sampler, passes, setup)
    jobs = [j for _, pass_jobs, _ in passes for j in pass_jobs]
    failed = check_jobs(workload, jobs)

    if args.trace:
        from tracing import per_layer_metrics

        def pass_time(want_traced):
            return statistics.median(sum(j.time for j in pass_jobs)
                                     for traced, pass_jobs, _ in passes if traced == want_traced)

        import_s = statistics.median(i for _, i in setup)
        metrics = per_layer_metrics(records, import_s, pass_time(True) / pass_time(False) - 1)
    else:
        metrics = end_to_end_metrics(workload, setup, jobs, failed)

    result = {"correct": not failed, "attempted": len(jobs), "failed": len(failed),
              "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({"env": env, "result": result,
                   "setup": [{"setup_s": s, "import_s": i} for s, i in setup],
                   "jobs": [j.as_dict() for j in jobs],
                   "absent_hooks": sorted(set().union(*(r["absent"] for r in records)))},
                  fh, indent=1)
    if records:
        with open(os.path.join(OUT, name.replace(".json", "-spans.json")), "w") as fh:
            json.dump([r["spans"] for r in records], fh)
    print("env " + json.dumps(env))
    for job in failed:
        print(f"FAILED {args.workload} job {job.key} pass {job.pass_no}: {job.reason}")
    for metric, m in metrics.items():
        print(f"{metric:40s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
