"""attrmeaning benchmark: drive the real CLI in-process on seeded inputs.

    python3 perfbench/run.py --workload score --seed 1 --seconds 35 --trace 0

One closed-loop client runs the nine commands of a pass one after another
through ``attrmeaning.cli.main(argv)`` and repeats the pass until the next
one would end after ``--seconds``; each time is the lower quartile over
passes (see ``spans.lower_quartile``).  Every command's outputs are checked
against the reference; a non-zero exit or a failed check counts as a failed
command.  With ``--trace 0`` the last stdout line reports the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and it
reports the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import spans  # noqa: E402
from spans import lower_quartile  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
BUILD = ("import pickle, sys; sys.path.insert(0, sys.argv[1]); import workloads; "
         "commands = workloads.build(sys.argv[2], int(sys.argv[3]), sys.argv[4]); "
         "open(sys.argv[5], 'wb').write(pickle.dumps(commands))")
# a CLI user's cold start: fresh interpreter, import the CLI, first LAPACK call
COLD_START = ("import sys; sys.path.insert(0, sys.argv[1]); import attrmeaning.cli, numpy; "
              "numpy.linalg.lstsq(numpy.eye(3), numpy.ones(3), rcond=None)")


def cold_start_seconds():
    # no timeout: with one, the wait polls in steps of up to 50 ms, which
    # would quantize the measurement
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", COLD_START, SRC], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def build_in_child(workload, seed, workdir):
    """``workloads.build`` in a child process, so that the peak memory of this
    process is the program's, not the set-up's."""
    path = os.path.join(workdir, "commands.pickle")
    subprocess.run([sys.executable, "-c", BUILD, HERE, workload, str(seed), workdir, path],
                   check=True, stdin=subprocess.DEVNULL)
    with open(path, "rb") as fh:
        return pickle.load(fh)  # written by the child just now


def provenance(workload, seed):
    import numpy

    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # numpy < 1.25 has no dicts mode
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "why": workloads.WORKLOADS[workload]["why"],
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        with contextlib.suppress(OSError):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                         "openblas_get_num_threads"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    return fn()
    return None


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError), open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    """Digest of every file under src/, to tell program versions apart without git."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Runner:
    """Runs passes and keeps the verdict on every output it has seen."""

    def __init__(self, cli, commands, recorder=None):
        self.cli = cli
        self.commands = commands
        self.recorder = recorder
        self.verdicts = {}  # (metric, output digest) -> list of problems
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self, traced=False):
        """One pass; returns ({metric: seconds}, index of its first span)."""
        first_span = len(self.recorder.spans) if self.recorder else 0
        if traced:
            self.recorder.install()
        times = {}
        try:
            for cmd in self.commands:
                if traced:
                    self.recorder.trace = f"{len(self.recorder.spans)}:{cmd.metric}"
                # every CLI user starts with a fresh heap; without this, when a
                # collection falls depends on the garbage of earlier commands
                gc.collect()
                t0 = perf_counter()
                try:
                    with contextlib.redirect_stdout(sys.stderr):
                        rc = self.cli.main(list(cmd.argv))
                except SystemExit as exc:  # argparse usage errors
                    rc = exc.code
                except Exception as exc:  # a crash is one failed command, not the end of the run
                    traceback.print_exc()
                    rc = f"on uncaught {type(exc).__name__}"
                times[cmd.metric] = perf_counter() - t0
                self.judge(cmd, rc)
        finally:
            if traced:
                self.recorder.uninstall()
        return times, first_span

    def judge(self, cmd, rc):
        self.attempted += 1
        if rc != 0:
            problems = [f"exit {rc}"]
        else:
            try:
                h = hashlib.sha256()
                for path in cmd.outputs:
                    with open(path, "rb") as fh:
                        h.update(fh.read())
                key = (cmd.metric, h.hexdigest())
                if key not in self.verdicts:
                    self.verdicts[key] = cmd.check()
                problems = self.verdicts[key]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems += [f"{cmd.metric}: {p}" for p in problems[:3]]


def measure(runner, seconds, trace):
    """Alternate (when tracing) untraced and traced passes for ``seconds``.

    Returns the untraced and the traced passes as (pass seconds, {metric:
    seconds}, first span index); a pass's seconds are its commands' sum.
    """
    deadline = perf_counter() + seconds
    plain, traced = [], []
    longest = 0.0
    while True:
        use_trace = trace and len(traced) < len(plain)
        t0 = perf_counter()
        times, first = runner.run_pass(traced=use_trace)
        longest = max(longest, perf_counter() - t0)
        (traced if use_trace else plain).append((sum(times.values()), times, first))
        print(f"pass {len(plain) + len(traced)} traced={int(use_trace)} "
              f"seconds={sum(times.values()):.4f}", file=sys.stderr)
        enough = plain and (traced or not trace)
        if enough and perf_counter() + longest > deadline:
            return plain, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "attrmeaning", "cli.py")):
        print(f"error: no attrmeaning sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import attrmeaning.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: attrmeaning imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    seed = args.seed % 2**32
    setup = [cold_start_seconds() for _ in range(SETUP_REPEATS)]
    runs = os.path.join(HERE, "_runs")
    workdir = os.path.join(runs, f"{args.workload}-{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        commands = build_in_child(args.workload, seed, workdir)
        recorder = spans.SpanRecorder() if args.trace else None
        runner = Runner(cli, commands, recorder)
        plain, traced = measure(runner, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(args.workload, seed)
    prov["passes"] = {"untraced": len(plain), "traced": len(traced)}
    # per-command times come from the untraced passes in both modes; they are
    # per-layer metrics in BENCHMARK.json (see README.md)
    commands_s = {f"{c.metric}_s": lower_quartile([t[c.metric] for _, t, _ in plain])
                  for c in commands}
    if args.trace:
        own = recorder.self_times()
        starts = [first for _, _, first in traced] + [len(own)]
        per_pass = [spans.layer_metrics(recorder.spans[lo:hi], own[lo:hi])
                    for lo, hi in zip(starts, starts[1:])]
        values = {**commands_s, **spans.pass_metrics(per_pass)}
        # pairs of adjacent untraced and traced passes, so slow drift in the
        # machine's speed cancels
        values["trace.overhead_s"] = median(t[0] - u[0] for u, t in zip(plain, traced))
        units = {**dict.fromkeys(commands_s, "s"), **spans.PER_LAYER}
        recorder.write(os.path.join(runs, f"spans-{args.workload}-{seed}.jsonl"), prov)
        shown = {}
    else:
        values = {
            "setup_s": lower_quartile(setup),
            "run_s": lower_quartile([w for w, _, _ in plain]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
        shown = commands_s

    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, unit in units.items():
        if name in values:
            print(f"{name:32s} {values[name]:14.6g} {unit}")
        else:
            print(f"{name:32s} {'missing':>14s} (layer not entered)")
    for name, value in shown.items():
        print(f"{name:32s} {value:14.6g} s")
    print(f"{'error_rate':32s} {runner.failed / runner.attempted:14.6g} failed/attempted")
    for problem in runner.problems:
        print("FAILED " + problem, file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
