"""taskaxes benchmark: one closed-loop client, one workload per process.

Usage, from the repository root:

    python3 bench/run.py --workload demo-run|validate|long-sweep \
        --seed N --seconds S --trace 0|1

With ``--trace 0`` the run prints the end-to-end metrics (setup_s,
op_s.p50, peak_rss_mb), plus the control-tick median and p99 of
long-sweep as info lines; with ``--trace 1`` it interleaves a fixed
number of untraced and traced ops per workload (``--seconds`` is not
used), wraps the library's layer functions during the traced ones, and
prints the per-layer metrics. ``--workload all`` runs each workload
in a process of its own. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Earlier lines give
the environment, each metric with its sample count, and every failed
check. ``python3 bench/selfcheck.py`` tests the benchmark itself, and
``python3 bench/record.py`` re-records the behaviour fingerprints and
layer shares kept next to this file.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

DEFAULT_SEED = 1
BLAS_THREADS = 1
SETUP_REPS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import time\nt = time.perf_counter()\nimport taskaxes.cli\n"
                "print(time.perf_counter() - t)\n")


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, bad arguments)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def bootstrap():
    """Pin BLAS threads, put src/ first on sys.path, import the program."""
    if not os.path.isfile(os.path.join(SRC, "taskaxes", "__init__.py")):
        raise BenchError(f"no taskaxes package under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import taskaxes
    if not os.path.abspath(taskaxes.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported taskaxes from {taskaxes.__file__}, not {SRC}")


def blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import ctypes
    import glob
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload, seed, trace) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "workload": workload,
            "seed": seed, "trace": trace}


def fingerprints(workload) -> dict:
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def import_seconds() -> float:
    """`import taskaxes.cli` in a fresh interpreter, as a CLI user pays it."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Run:
    """One benchmark run: a sequence of ops of one workload."""

    def __init__(self, wl, seed):
        from workloads import op_seed
        self.wl = wl
        self.seed = seed
        self.op_seed = op_seed
        self.measure_setup = False
        self.attempted = 0
        self.failed = 0
        self.setup_s = []
        self.op_s = []
        self.tick_s = []
        self.digests = {}

    def prepare(self, seed):
        """The op's inputs; with measure_setup, also one set-up time sample:
        a fresh-process import plus this input preparation."""
        if not self.measure_setup:
            return self.wl.prepare(seed)
        imported = import_seconds()
        t0 = time.perf_counter()
        inputs = self.wl.prepare(seed)
        self.setup_s.append(imported + time.perf_counter() - t0)
        return inputs

    def op(self, index, tracer=None):
        """Prepare, time, check and clean up op `index`; returns its wall time."""
        seed = self.op_seed(self.wl.name, self.seed, index)
        self.attempted += 1
        inputs = None
        elapsed = None
        try:
            inputs = self.prepare(seed)
            if tracer is None:
                t0 = time.perf_counter()
                output = self.wl.run(inputs)
                elapsed = time.perf_counter() - t0
            else:
                output = tracer.op(lambda: self.wl.run(inputs))
                elapsed = tracer.op_s[-1]
            problems, self.digests[str(seed)] = self.wl.check(seed, inputs, output)
            if tracer is None and hasattr(self.wl, "tick_seconds"):
                self.tick_s.extend(self.wl.tick_seconds(inputs))
        except Exception:
            problems = ["op raised:\n" + traceback.format_exc()]
        finally:
            if inputs is not None:
                self.wl.cleanup(inputs)
            del inputs
            gc.collect()
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {self.wl.name} op {index} (seed {seed}): {p}", file=sys.stderr)
        if elapsed is not None:
            self.op_s.append(elapsed)
        return elapsed

    def timed_ops(self, seconds):
        """Ops back to back until the next one, at the median op length so
        far, would end after `seconds`; the first op always runs."""
        start = time.perf_counter()
        lengths = []
        while not lengths or time.perf_counter() - start + statistics.median(lengths) <= seconds:
            t0 = time.perf_counter()
            self.op(len(lengths))
            lengths.append(time.perf_counter() - t0)


def tick_metrics(tick_s) -> dict:
    """Median and p99 control-tick wall time over the untraced ops' ticks."""
    import numpy as np
    us = np.asarray(tick_s) * 1e6
    if not us.size:
        return {"tick_us.p50": (0.0, "us", 0), "tick_us.p99": (0.0, "us", 0)}
    return {"tick_us.p50": (float(np.median(us)), "us", us.size),
            "tick_us.p99": (float(np.percentile(us, 99)), "us", us.size)}


def untraced(run, seconds):
    """Timed ops with a set-up sample before each, spread over the whole run."""
    run.measure_setup = True
    run.timed_ops(seconds)
    for i in range(SETUP_REPS - len(run.setup_s)):
        run.wl.cleanup(run.prepare(run.op_seed(run.wl.name + "/setup", run.seed, i)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": (statistics.median(run.setup_s), "s", len(run.setup_s)),
               "op_s.p50": (statistics.median(run.op_s) if run.op_s else 0.0, "s",
                            len(run.op_s)),
               "peak_rss_mb": (rss_mb, "MB", 1)}
    info = {"ticks": tick_metrics(run.tick_s)} if run.tick_s else {}
    return metrics, info, True


def recount(workload, seed) -> dict:
    """Counts of a second traced run of the same ops, in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1", "--recount"]
    out = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                         timeout=150)
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        raise BenchError(f"recount run exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def deterministic(metrics) -> dict:
    from tracing import DETERMINISTIC_SUFFIXES
    return {name: value for name, (value, _) in metrics.items()
            if name.endswith(DETERMINISTIC_SUFFIXES)}


def traced(run, recount_only=False):
    """Untraced and traced ops alternately, `traced_ops` of each; per-layer
    metrics of the traced ones."""
    from tracing import Tracer
    tracer = Tracer()
    plain = []
    for i in range(run.wl.traced_ops):
        if not recount_only:
            plain.append(run.op(2 * i))
        run.op(2 * i + 1, tracer)
    if tracer.missing:
        print(f"warning: layers not found, reported as zero: {tracer.missing}",
              file=sys.stderr)
    layer = tracer.metrics()
    if recount_only:
        return layer, {}, run.failed == 0
    plain = [t for t in plain if t is not None]
    overhead = statistics.median(tracer.op_s) / statistics.median(plain) if plain else 0.0
    metrics = {name: (value, unit, len(tracer.op_s)) for name, (value, unit) in layer.items()}
    metrics["trace.overhead_ratio"] = (overhead, "ratio", len(tracer.op_s))
    metrics.update(tick_metrics(run.tick_s))
    info = {"shares": tracer.shares()}
    try:
        repeat = recount(run.wl.name, run.seed)
    except (BenchError, subprocess.TimeoutExpired, ValueError, IndexError) as err:
        print(f"FAILED second traced run: {err!r}", file=sys.stderr)
        return metrics, info, False
    ok = repeat["ok"]
    for name, value in sorted(deterministic(layer).items()):
        if repeat["counts"].get(name) != value:
            print(f"FAILED count {name} is {value} here and {repeat['counts'].get(name)} "
                  "in a second traced run", file=sys.stderr)
            ok = False
    return metrics, info, ok


def run_all(workloads, args) -> int:
    """Each workload in a process of its own, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            raise BenchError(f"{workload} run exited {out.returncode}")
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{workload}/{name}": value
                                 for name, value in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="demo-run, validate, long-sweep, or all (one process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--recount", action="store_true",
                        help="internal: rerun only the traced ops and print their counts")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap()
        from workloads import WORKLOADS
        if args.workload == "all":
            return run_all(list(WORKLOADS), args)
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"expected one of {sorted(WORKLOADS)}")
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    work_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](work_dir, fingerprints(args.workload))
        run = Run(wl, args.seed)
        if args.recount:
            layer, _, ok = traced(run, recount_only=True)
            print(json.dumps({"ok": ok, "counts": deterministic(layer)}))
            return 0
        print("env " + json.dumps(environment(args.workload, args.seed, args.trace)))
        if args.trace:
            metrics, info, ok = traced(run)
        else:
            metrics, info, ok = untraced(run, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    for name, (value, unit, n) in info.get("ticks", {}).items():
        print(f"info {name} = {value:.6g} {unit} (n={n})")
    if run.op_s:
        print("ops " + " ".join(f"{t:.4f}" for t in run.op_s) + " s")
    for name, share in info.get("shares", {}).items():
        print(f"share {name} = {share:.4f}")
    result = {"correct": ok and run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
