#!/usr/bin/env python3
"""Self-test of the DABS benchmark.

    python3 perfbench/selftest.py

Runs a tiny run of every workload declared in BENCHMARK.json, and of the
hand-run http-jobs workload, with the trace off and on.  It asserts that
each run emits exactly the declared end-to-end (trace off) or per-layer
(trace on) metrics with their declared units, that every value is a finite
number, and that no operation failed.  Then it
corrupts one reported energy, and separately makes one verify() fail, and
asserts that each corruption is counted as a failed operation and marks the
run incorrect instead of being reported as a result.  Exits 0 when every
check holds.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_SECONDS = "1"


def run(workload, trace, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", TINY_SECONDS, "--trace",
           str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


def check_metrics(result, declared, label):
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(want) - set(metrics))
    extra = sorted(set(metrics) - set(want))
    assert not missing, "%s: metrics not emitted: %s" % (label, missing)
    assert not extra, "%s: undeclared metrics: %s" % (label, extra)
    for name, unit in want.items():
        got = metrics[name]
        assert got["unit"] == unit, "%s: %s has unit %r, declared %r" % (
            label, name, got["unit"], unit)
        assert isinstance(got["value"], (int, float)) and math.isfinite(
            got["value"]), "%s: %s is not a finite number" % (label, name)
    assert result["attempted"] >= 1, label + ": nothing attempted"
    assert result["failed"] == 0 and result["correct"], (
        "%s: %d of %d operations failed" % (label, result["failed"],
                                            result["attempted"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]] + ["http-jobs"]
    for name in workloads:
        for trace, table in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s trace=%d" % (name, trace)
            check_metrics(run(name, trace), bench[table], label)
            print("ok   " + label)
    for inject in ("bad-energy", "bad-verify"):
        result = run("g22-bulk", 0, inject)
        assert result["failed"] >= 1, inject + ": corruption not counted"
        assert not result["correct"], inject + ": run still marked correct"
        assert result["attempted"] > result["failed"], inject + ": ledger"
        print("ok   %s counted as a failed operation (%d of %d)" % (
            inject, result["failed"], result["attempted"]))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
