#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark itself.

Runs every workload of BENCHMARK.json at minimal length, untraced and
traced, and checks that each run exits 0, that its last line is the result
object with exactly the metrics BENCHMARK.json names (each with its unit),
that the run record before it carries error_rate and probe_gmacs_per_s, and
that every reply passed the oracle (error_rate 0).

    python3 e2ebench/smoke.py        # from the root of a checkout
"""

import json
import subprocess
import sys

RECORD_ONLY = {"error_rate": "ratio", "probe_gmacs_per_s": "GMAC/s"}


def check_run(spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        return ["exit %d: %s" % (proc.returncode, proc.stderr[-1000:])]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys: %s" % sorted(result))
    if not result.get("correct") or result.get("failed") != 0:
        problems.append("replies failed the oracle: %s" % proc.stderr[-1000:])
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted: %r" % result.get("attempted"))
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append("metrics differ from BENCHMARK.json %s: %s" % (
            kind, sorted(set(metrics) ^ set(expected))))
    for name, unit in expected.items():
        m = metrics.get(name, {})
        if not isinstance(m.get("value"), (int, float)) or m.get("unit") != unit:
            problems.append("%s: %r (unit %s expected)" % (name, m, unit))
    if not trace:
        for name, unit in RECORD_ONLY.items():
            m = record["metrics"].get(name, {})
            if m.get("unit") != unit:
                problems.append("record %s: %r" % (name, m))
        if record["metrics"]["error_rate"]["value"] != 0:
            problems.append("error_rate is not 0")
    for key in ("seed", "op_mix", "request_digest", "nproc", "engine_threads",
                "connections", "version"):
        if key not in record:
            problems.append("record lacks %s" % key)
    return problems


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            label = "%s --trace %d" % (workload, trace)
            problems = check_run(spec, workload, trace)
            print(("FAIL " if problems else "ok   ") + label)
            for p in problems:
                print("     " + p)
            failed = failed or bool(problems)
    if failed:
        sys.exit(1)
    print("smoke test passed")


if __name__ == "__main__":
    main()
