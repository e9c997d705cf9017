#!/usr/bin/env python3
"""Outside-in benchmark of the swcohom CLI.

    python3 perfbench/run.py --workload sym-both-w6 --seed 0 --seconds 25 --trace 0

A closed loop with one client: one CLI process runs at a time, and the next
starts only after the previous one has exited.  Iteration i runs the
workload as ``python -m swcohom.cli --seed <seed + i> ...``, so every run
covers several rank-prime seeds and every report must equal the golden one
apart from its ``seed`` field.  Iterations continue while the next one is
expected to end within ``--seconds`` (at least ``MIN_ITERATIONS`` are run).

``--trace 0`` reports the end-to-end metrics: the median wall time and peak
RSS of one CLI process, and the median time of a process that only imports
``swcohom.cli`` (setup).  Both times are in reference seconds: the harness
and the child share one core, and every ``SLICE_S`` the harness pauses the
child and times a fixed reference task, so each slice of the child's wall
time is scaled by how fast the core ran just then (see ``SlicedClock``).
``--trace 1`` alternates traced and untraced in-process runs (``traced.py``)
at one seed and reports the per-layer metrics named in ``BENCHMARK.json``;
their counts must repeat exactly.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it carries what is
reported but not gated: the failure fraction, plain wall and CPU time, the
slowest sample and metadata about the machine and the source tree.  Reasons
for failed iterations go to stderr.
"""

import argparse
import contextlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, check_run, cli_argv, load_golden

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_ITERATIONS = 3
SETUP_SAMPLES = 5       # import-only processes before and again after the loop
DEADLINE_S = 170.0      # hard stop for the whole run, below the 180 s limit
IMPORT_ONLY = [sys.executable, "-c", "import swcohom.cli"]

SLICE_S = 0.05          # the child runs this long between two reference timings
REF_NOMINAL_S = 0.0007  # the reference task's time on a fast core of a 2-core Xeon VM
SETUP_REF_EXPONENT = 1.0  # importing is mostly unmarshalling and loading numpy
REF_WINDOW = 5          # reference timings in the running median around a slice


def reference_task():
    """Fixed work like the CLI's own: small ints, tuple keys, a dict, Fractions."""
    s = 0
    for i in range(2500):
        s += i * i % 7
    counts = {}
    for i in range(400):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + 1
    x = Fraction(1, 3)
    for i in range(40):
        x = x * Fraction(i % 5 + 1, i % 7 + 2) + Fraction(1, i + 1)
    return s, sorted(counts.items()), x


def time_reference():
    t0 = time.perf_counter()
    reference_task()
    return time.perf_counter() - t0


class SlicedClock:
    """Wall time of a child process in reference seconds.

    On a shared host a core switches between speeds up to 1.7x apart for
    seconds at a time, and the two cores of a 2-core VM switch independently,
    so a reference timed before and after a run, or on the other core, does
    not track the speed the run saw.  Here the child runs in slices of
    ``SLICE_S`` on the harness's own core; between two slices the child is
    stopped and the harness times ``reference_task``.  A slice of ``dt``
    seconds counts ``dt * (REF_NOMINAL_S / r) ** exponent`` reference
    seconds, where ``r`` is the running median of the reference timings
    around it.  On a core in its fast phase a reference second is about one
    wall second.  The exponent is the workload's: when the reference slows
    down by a factor f, interpreter-bound work slows down by about f ** 1.3.
    """

    def __init__(self, pid, start, exponent):
        self.pid = pid
        self.start = start
        self.exponent = exponent
        self.slices = []      # wall seconds the child ran between two stops
        self.refs = []        # reference timing after each slice

    def wait(self):
        """Run the child to its end; returns its wait4 status and rusage."""
        # the pidfd turns readable when the child exits, which ends a slice early
        pidfd = os.pidfd_open(self.pid)
        try:
            exited = select.poll()
            exited.register(pidfd, select.POLLIN)
            t0 = self.start
            while True:
                os.kill(self.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(self.pid, os.WUNTRACED)
                self.slices.append(time.perf_counter() - t0)
                if not os.WIFSTOPPED(status):
                    return status, usage
                self.refs.append(time_reference())
                os.kill(self.pid, signal.SIGCONT)
                t0 = time.perf_counter()
                exited.poll(SLICE_S * 1000)
        finally:
            os.close(pidfd)

    def wall_s(self):
        return sum(self.slices)

    def ref_s(self):
        refs = self.refs or [time_reference()]
        half = REF_WINDOW // 2
        total = 0.0
        for i, dt in enumerate(self.slices):
            j = min(i, len(refs) - 1)
            r = statistics.median(refs[max(0, j - half):j + half + 1])
            total += dt * (REF_NOMINAL_S / r) ** self.exponent
        return total


@dataclass
class Child:
    exit_code: int
    stdout: str
    stderr: str
    wall_s: float
    ref_s: float          # wall time in reference seconds; None unless sliced
    peak_rss_mb: float
    cpu_s: float


def run_child(argv, timeout, ref_exponent=None):
    """Run one process to completion; peak RSS and CPU from wait4.

    Given ``ref_exponent``, the harness and the child share one core and the
    child's wall time is also converted to reference seconds
    (``SlicedClock``); its pauses are not counted in ``wall_s``.
    """
    sliced = ref_exponent is not None
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # numpy asks for huge pages on arrays of 4 MB and up; faulting them in
    # stalls on memory compaction at random, which made gl-dim3 bimodal
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    if sliced:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # os.kill, not proc.kill: Popen.kill polls and could reap the child first
    killer = threading.Timer(max(timeout, 0.0), os.kill, (proc.pid, signal.SIGKILL))
    killer.start()
    status = None
    try:
        out, err = [], []
        readers = [threading.Thread(target=lambda f=f, buf=buf: buf.append(f.read()))
                   for f, buf in ((proc.stdout, out), (proc.stderr, err))]
        for reader in readers:
            reader.start()
        if sliced:
            clock = SlicedClock(proc.pid, start, ref_exponent)
            status, usage = clock.wait()
            wall, ref = clock.wall_s(), clock.ref_s()
        else:
            _, status, usage = os.wait4(proc.pid, 0)
            wall, ref = time.perf_counter() - start, None
        for reader in readers:
            reader.join()
    finally:
        killer.cancel()
        if status is None:  # leaving on an exception: end and reap the child
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(proc.pid, signal.SIGKILL)
                os.waitpid(proc.pid, 0)
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out[0].decode(), err[0].decode(), wall, ref,
                 usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime)


class Loop:
    """Closed-loop iterations bounded by the run length and the hard deadline."""

    def __init__(self, seconds, deadline):
        self.seconds = seconds
        self.deadline = deadline
        self.start = time.perf_counter()
        self.durations = []

    def __iter__(self):
        i = 0
        while True:
            if time.perf_counter() >= self.deadline:
                return
            t0 = time.perf_counter()
            yield i
            self.durations.append(time.perf_counter() - t0)
            i += 1
            elapsed = time.perf_counter() - self.start
            if i >= MIN_ITERATIONS and elapsed + statistics.median(self.durations) > self.seconds:
                return

    def remaining(self):
        return self.deadline - time.perf_counter()


def measure_setup(deadline):
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = run_child(IMPORT_ONLY, deadline - time.perf_counter(), SETUP_REF_EXPONENT)
        if child.exit_code != 0:
            raise RuntimeError("importing swcohom.cli failed:\n" + child.stderr)
        samples.append(child.ref_s)
    return samples


def end_to_end(workload, seed, seconds, golden, deadline):
    """Time CLI processes; returns (attempted, failed, metrics, info)."""
    run_child(IMPORT_ONLY, deadline - time.perf_counter())  # writes bytecode caches
    setup = measure_setup(deadline)
    loop = Loop(seconds, deadline)
    runs, failed = [], 0
    for i in loop:
        argv = [sys.executable, "-m", "swcohom.cli", *cli_argv(workload, seed + i)]
        child = run_child(argv, loop.remaining(), WORKLOADS[workload].ref_exponent)
        problems = check_run(workload, child.exit_code, child.stdout, golden)
        if problems:
            failed += 1
            _log_failure(workload, seed + i, problems, child.stderr)
        runs.append(child)
    setup += measure_setup(deadline)
    ok = [c for c in runs if c.exit_code == 0] or runs
    metrics = {
        "wall_ref_s": (statistics.median(c.ref_s for c in ok), "s"),
        "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in ok), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    info = {
        "samples": len(runs),
        "cli_seeds": [seed, seed + len(runs) - 1],
        "wall_s": statistics.median(c.wall_s for c in ok),
        "wall_s_max": max(c.wall_s for c in runs),
        "wall_s_samples": [c.wall_s for c in runs],
        "wall_ref_s_samples": [c.ref_s for c in runs],
        "cpu_s": statistics.median(c.cpu_s for c in ok),
        "setup_samples": len(setup),
    }
    return len(runs), failed, metrics, info


def per_layer(workload, seed, seconds, golden, deadline, wanted):
    """Alternate traced and untraced in-process runs at one CLI seed."""
    script = str(HERE / "traced.py")
    loop = Loop(seconds, deadline)
    traced, plain, attempted, failed = [], [], 0, 0
    for i in loop:
        trace = 1 - i % 2
        argv = [sys.executable, script, "--workload", workload,
                "--seed", str(seed), "--trace", str(trace)]
        child = run_child(argv, loop.remaining())
        attempted += 1
        doc = json.loads(child.stdout) if child.exit_code == 0 else None
        problems = (["traced.py exited %d" % child.exit_code] if doc is None
                    else check_run(workload, doc["exit_code"], doc["stdout"], golden))
        if doc is not None and trace:
            missing = [name for name in wanted if name not in doc["metrics"]
                       and name not in ("cli.main_s", "trace.overhead_s")]
            if missing:
                problems.append("trace lacks metrics %s" % ", ".join(missing))
            elif traced and _counts(doc["metrics"]) != _counts(traced[0]["metrics"]):
                problems.append("counts differ between traced runs at one seed")
        if problems:
            failed += 1
            _log_failure(workload, seed, problems, child.stderr)
        elif doc is not None:
            (traced if trace else plain).append(doc)
    metrics = {}
    if traced and plain:
        for name, unit in wanted.items():
            if name == "cli.main_s":
                value = statistics.median(d["main_s"] for d in plain)
            elif name == "trace.overhead_s":
                value = (statistics.median(d["main_s"] for d in traced)
                         - statistics.median(d["main_s"] for d in plain))
            elif name.endswith("_s"):
                value = statistics.median(d["metrics"][name] for d in traced)
            else:
                value = traced[0]["metrics"][name]  # counts repeat exactly
            metrics[name] = (value, unit)
    elif not failed:
        failed = attempted  # too little time for one traced and one untraced run
    info = {"samples": attempted, "traced": len(traced), "untraced": len(plain)}
    return attempted, failed, metrics, info


def _counts(metrics):
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def _log_failure(workload, seed, problems, stderr):
    sys.stderr.write("FAIL %s seed %d: %s\n" % (workload, seed, "; ".join(problems)))
    if stderr.strip():
        sys.stderr.write(stderr[-2000:] + "\n")


def source_metadata():
    """Not gated: machine, interpreter, numpy, commit and source size."""
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "swcohom").glob("*.py")))
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy_version, "commit": git_commit(ROOT), "src_lines": lines}


def git_commit(root):
    """HEAD of the repository at ``root``, read from .git; None outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload, seed, seconds, trace, golden=None):
    """One benchmark run; returns (result, info) as printed by ``main``."""
    deadline = time.perf_counter() + DEADLINE_S
    golden = load_golden(workload) if golden is None else golden
    spec = benchmark_spec()
    if trace:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        attempted, failed, metrics, info = per_layer(workload, seed, seconds, golden,
                                                     deadline, wanted)
    else:
        attempted, failed, metrics, info = end_to_end(workload, seed, seconds, golden,
                                                      deadline)
    info = {"workload": workload, "seed": seed, "trace": trace,
            "fail_frac": failed / attempted, **info, "metadata": source_metadata()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds through run_child, which ends its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "swcohom" / "cli.py").is_file():
        sys.stderr.write("no swcohom source under %s; run from a repository checkout\n"
                         % SRC)
        return 2
    result, info = measure(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(json.dumps(info, sort_keys=True) + "\n")
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
