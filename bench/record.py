"""Re-record the files the benchmark checks and cites, at the default seed.

    python3 bench/record.py fingerprints   # bench/fingerprints.json
    python3 bench/record.py shares         # bench/layer_shares.json

fingerprints.json maps each workload to {op seed: output digests} for
the first ops of a run at the default workload seed; a later run whose
op reproduces a different digest counts that op as failed. Re-record
only for an intended behaviour change, and say so where the change is
described. layer_shares.json gives each layer's share of traced op
time, taken from the same traced run as ``run.py --trace 1`` (its
``share`` lines): the ceiling a change to that layer alone can reach.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run as bench

RECORDED_OPS = {"demo-run": 8, "validate": 12, "long-sweep": 8}
SHARES = os.path.join(bench.HERE, "layer_shares.json")


def _dump(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record_fingerprints(workloads, work_dir):
    table = {}
    for name, cls in workloads.items():
        run = bench.Run(cls(work_dir, {}), bench.DEFAULT_SEED)
        for index in range(RECORDED_OPS[name]):
            run.op(index)
        if run.failed:
            raise SystemExit(f"{name}: {run.failed} failed ops, fingerprints not written")
        table[name] = run.digests
        print(f"{name}: {len(run.digests)} ops recorded")
    _dump(bench.FINGERPRINTS, table)


def record_shares(workloads, work_dir):
    table = {}
    for name, cls in workloads.items():
        run = bench.Run(cls(work_dir, {}), bench.DEFAULT_SEED)
        _, info, ok = bench.traced(run)
        if not ok or run.failed:
            raise SystemExit(f"{name}: traced run failed, shares not written")
        table[name] = {"traced_ops": run.wl.traced_ops,
                       "self_time_share": {k: round(v, 4)
                                           for k, v in info["shares"].items()},
                       "environment": bench.environment(name, bench.DEFAULT_SEED, 1)}
        print(name, json.dumps(table[name]["self_time_share"]))
    _dump(SHARES, table)


def main(argv):
    if len(argv) != 1 or argv[0] not in ("fingerprints", "shares"):
        print(__doc__, file=sys.stderr)
        return 1
    bench.bootstrap()
    from workloads import WORKLOADS
    work_dir = os.path.join(bench.WORK, f"record-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        if argv[0] == "fingerprints":
            record_fingerprints(WORKLOADS, work_dir)
        else:
            record_shares(WORKLOADS, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
