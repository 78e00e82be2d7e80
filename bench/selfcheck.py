"""Self-check of the benchmark (about three minutes).

    python3 bench/selfcheck.py

Asserts that every end-to-end metric named in BENCHMARK.json is emitted
by an untraced run of every workload, and every per-layer metric by a
traced run (whose second-process count check must pass); that a
tampered fingerprint and a run of the program that fails both show up as
failed ops, not as crashes; and that a directory holding only the
benchmark, without the program, exits non-zero without a result line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run as bench

RUN = os.path.join(bench.HERE, "run.py")


def _result(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_metrics(spec, workload, trace):
    kind = "per_layer" if trace else "end_to_end"
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(bench.DEFAULT_SEED),
           "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = _result(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, out.stderr
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected, set(emitted) ^ set(expected)
    if not trace:
        zero = [name for name, m in result["metrics"].items() if not m["value"] > 0]
        assert not zero, f"end-to-end metrics read zero: {zero}"


def check_failures_counted(workloads, work_dir):
    print("the FAILED lines below are expected", file=sys.stderr, flush=True)
    with open(bench.FINGERPRINTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    for name, cls in workloads.items():
        run = bench.Run(cls(work_dir, {}, sabotage=True), bench.DEFAULT_SEED)
        run.op(0)
        assert (run.attempted, run.failed) == (1, 1), f"{name}: failing run not counted"
    for name in ("validate", "demo-run"):
        table = json.loads(json.dumps(recorded[name]))
        seed = next(iter(table))
        digests = table[seed]
        key = next(iter(digests))
        if isinstance(digests[key], dict):
            digests = digests[key]
            key = next(iter(digests))
        digests[key] = "0" * 64
        run = bench.Run(workloads[name](work_dir, table), bench.DEFAULT_SEED)
        index = next(i for i in range(100)
                     if str(run.op_seed(name, bench.DEFAULT_SEED, i)) == seed)
        run.op(index)
        assert (run.attempted, run.failed) == (1, 1), f"{name}: tampered digest not caught"


def check_bare_directory(work_dir):
    bare = os.path.join(work_dir, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(bench.HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "validate",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0, "bare directory run exited 0"
    assert not out.stdout.strip(), f"bare directory run printed {out.stdout!r}"


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bench.bootstrap()
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    work_dir = os.path.join(bench.WORK, f"selfcheck-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    checks = [(f"{kind} metrics emitted by {w}", check_metrics, (spec, w, trace))
              for trace, kind in ((0, "end-to-end"), (1, "per-layer")) for w in WORKLOADS]
    checks += [("failing runs and tampered fingerprints count as failed ops",
                check_failures_counted, (WORKLOADS, work_dir)),
               ("bare directory exits non-zero without a result",
                check_bare_directory, (work_dir,))]
    failures = 0
    try:
        for title, fn, args in checks:
            try:
                fn(*args)
                print(f"PASS {title}")
            except AssertionError as err:
                failures += 1
                print(f"FAIL {title}: {err}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
