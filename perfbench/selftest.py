#!/usr/bin/env python3
"""Self-test of the benchmark.

Runs every workload of BENCHMARK.json for one round, untraced and
traced, and checks that each run

- passes its own checks and ends with the result line the benchmark
  contract asks for;
- reports every metric BENCHMARK.json names for its mode, each with the
  unit named there, and no other;
- with --trace 1, has trace.coverage.rr of at least 0.9: the traced layers
  account for the rr wall time;
- records nproc, the OCaml version and the commit.

    python3 perfbench/selftest.py        (from the repository root)
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_COVERAGE = 0.9


def run(workload, trace):
    r = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    if len(lines) < 2:
        return r.returncode, {}, {}
    return r.returncode, json.loads(lines[-2]).get("meta", {}), json.loads(lines[-1])


def check(spec, workload, trace):
    errors = []
    code, meta, res = run(workload, trace)
    if code != 0 or res.get("correct") is not True or res.get("failed") != 0:
        errors.append("exit %d, correct %s, failed %s: %s" % (
            code, res.get("correct"), res.get("failed"), meta.get("problems")))
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys are %s" % sorted(res))
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = res.get("metrics", {})
    for name, unit in sorted(want.items()):
        m = got.get(name)
        if m is None:
            errors.append("metric %s missing" % name)
        elif m.get("unit") != unit:
            errors.append("metric %s in %s, not %s" % (name, m.get("unit"), unit))
        elif not isinstance(m.get("value"), (int, float)):
            errors.append("metric %s has no numeric value" % name)
    for name in sorted(set(got) - set(want)):
        errors.append("metric %s is not in BENCHMARK.json" % name)
    if trace:
        coverage = got.get("trace.coverage.rr", {}).get("value", 0)
        if coverage < MIN_COVERAGE:
            errors.append("trace.coverage.rr %.3f < %.2f" % (coverage, MIN_COVERAGE))
    for key in ("nproc", "ocaml", "commit"):
        if not meta.get(key):
            errors.append("output does not record %s" % key)
    return ["%s --trace %d: %s" % (workload, trace, e) for e in errors]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors += check(spec, w["name"], trace)
            print("%-14s --trace %d checked" % (w["name"], trace), flush=True)
    for e in errors:
        print("FAIL " + e)
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
