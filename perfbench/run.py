#!/usr/bin/env python3
"""End-to-end wall-clock benchmark of real SPMD runs on every backend.

    python3 perfbench/run.py --workload stencil --seed 1 --seconds 20 --trace 0

Run it from the repository root. It builds perfbench/worker.exe with
dune, cross-checks the final state of every backend once (a `check`
run), then measures runs of each backend at zero steps and at its STEPS,
in rounds shuffled by the seed, until --seconds have passed. Each run is
a worker process of its own under a deadline: a run that hangs is killed
together with the ranks it forked and counts as failed.

--trace 0 reports the end-to-end metrics of untraced runs, --trace 1 the
per-layer metrics of memory-traced runs (README.md defines both). The
last stdout line is one JSON object {correct, attempted, failed,
metrics}; the line before it records the host, the commit and the check.
The exit code is 0 only when every run passed its checks.
"""

import argparse
import ctypes
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "_build", "default", "perfbench", "worker.exe")

BACKENDS = ["interp", "rr", "domains", "loopback", "unix"]
TRACED = ["rr", "domains", "loopback"]

# Timesteps of a measured run, per backend: enough for the steady state to
# outweigh the zero-step run it is differenced against.
STEPS = {
    "stencil": {"interp": 2, "rr": 6, "domains": 5, "loopback": 5, "unix": 40},
    "circuit": {"interp": 5, "rr": 30, "domains": 30, "loopback": 30, "unix": 30},
    "pennant-fine": {
        "interp": 300, "rr": 300, "domains": 300, "loopback": 300, "unix": 300,
    },
}

RUN_DEADLINE_S = 30.0
CHECK_DEADLINE_S = 90.0
# No run starts later than this after the build, so that the benchmark
# ends within 180 s even when its last run hangs until its deadline.
LAST_START_S = 120.0


def become_subreaper():
    """Make ranks orphaned by a killed worker re-parent to this process,
    which reaps them (Linux; a no-op elsewhere)."""
    try:
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def run_bounded(argv, deadline):
    """Run argv in a process group of its own; kill the whole group at the
    deadline. Returns (stdout, stderr, exit code or None when killed) once
    every process of the group has ended."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=deadline)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if code is None:
        out, err = proc.communicate()
    for _ in range(1000):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            pass
        time.sleep(0.005)
    return out.decode(errors="replace"), err.decode(errors="replace"), code


def build():
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    argv = dune + ["build", "--root", ".", "--cache=disabled",
                   "./perfbench/worker.exe"]
    try:
        out, err, code = run_bounded(argv, 840)
    except OSError as e:
        out, err, code = "", str(e), 1
    sys.stderr.write(out + err)
    return code == 0 and os.path.isfile(WORKER)


def commit():
    """The commit under test: git's HEAD where the tree has git metadata,
    otherwise a digest of the sources (the tree may be an export)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha1()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "source-sha1:" + h.hexdigest()


class Runs:
    """Worker runs with their attempt and failure counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, what, why):
        self.failed += 1
        self.problems.append("%s: %s" % (what, why))

    def worker(self, args, deadline, what):
        """One worker run: its JSON result, or None when it gave none. A run
        that dies, hangs or reports ok = false counts as failed."""
        self.attempted += 1
        out, err, code = run_bounded([WORKER] + [str(a) for a in args], deadline)
        lines = out.strip().splitlines()
        try:
            res = json.loads(lines[-1]) if lines else None
        except ValueError:
            res = None
        if code is None:
            self.fail(what, "killed at its %gs deadline" % deadline)
            return None
        if res is None:
            self.fail(what, "exit %d without a result: %s" % (code, err.strip()[-500:]))
        elif code != 0 or not res.get("ok"):
            self.fail(what, res.get("error")
                      or "; ".join(res.get("failures", [])) or "exit %d" % code)
        return res


def verify(s, check, zero_states):
    """Why a measured run's result is wrong, or None."""
    if s["interior_errors"]:
        return "%d interior points off the closed form" % s["interior_errors"]
    if s["steps"] == 0:
        kind = "interp" if s["backend"] == "interp" else "compiled"
        want = zero_states.setdefault((kind, s["key"]), s["digest"])
    else:
        want = check.get("states", {}).get(s["backend"], {}).get("digest")
    if s["digest"] != want:
        return "final state differs from the checked one"
    return None


def end_to_end(samples, steps, check):
    def med(b, n, k):
        return statistics.median([s[k] for s in samples[(b, n, 0)]])

    def per_step(b, k):
        return (med(b, steps[b], k) - med(b, 0, k)) / steps[b]

    elems = samples[("rr", steps["rr"], 0)][0]["elems"]
    m = {"setup_s": (med("rr", 0, "wall_s"), "s")}
    for b in BACKENDS:
        m["step_s." + b] = (per_step(b, "wall_s"), "s")
    m["minor_words_per_elem_step"] = (per_step("rr", "minor_words") / elems, "words")
    m["peak_rss_mb"] = (max(s["rss_mb"] for runs in samples.values() for s in runs), "MB")
    m["wire_bytes_per_step.unix"] = (per_step("unix", "bytes"), "B")
    m["wire_frames_per_step.unix"] = (per_step("unix", "msgs"), "count")
    return m


def per_layer(samples, steps, check):
    def runs(b, traced, n=None):
        return samples[(b, steps[b] if n is None else n, traced)]

    def med(b, traced, k, n=None):
        return statistics.median([s[k] for s in runs(b, traced, n)])

    def layer(b, k):
        return statistics.median([s["layers"][k] for s in runs(b, 1)])

    def per_step(b, k):
        return (med(b, 0, k) - med(b, 0, k, n=0)) / steps[b]

    rr = runs("rr", 1)[0]
    m = {
        "apps.build_s": (layer("rr", "apps.build"), "s"),
        "cr.compile_s": (layer("rr", "cr.compile"), "s"),
        "isect.s": (med("rr", 1, "isect_s"), "s"),
        "isect.candidates": (rr["isect_candidates"], "count"),
        "isect.nonempty": (rr["isect_nonempty"], "count"),
        "exec.analyze_s": (layer("rr", "exec.analyze"), "s"),
        "exec.init_s": (layer("rr", "exec.init"), "s"),
        "exec.finalize_s": (layer("rr", "exec.finalize"), "s"),
        "kernel.elems_per_s.rr":
            (rr["elems"] * steps["rr"] / layer("rr", "kernel"), "1/s"),
        "kernel.domains_inflation":
            ((layer("domains", "kernel") / steps["domains"])
             / (layer("rr", "kernel") / steps["rr"]), "ratio"),
        "plan.builds": (rr["plan_builds"], "count"),
        "plan.replays": (rr["plan_replays"], "count"),
        "plan.blit_elems": (rr["plan_blit_elems"], "count"),
        "cr.copy_instrs": (rr["copy_instrs"], "count"),
        "cr.sync_instrs": (rr["sync_instrs"], "count"),
        "sync.collective_s.domains":
            (layer("domains", "collective") / steps["domains"], "s"),
        "net.frames_fixed": (med("unix", 0, "msgs", n=0), "count"),
        "net.bytes_fixed": (med("unix", 0, "bytes", n=0), "B"),
        "net.init_s": (layer("loopback", "net_init"), "s"),
        "net.send_retries": (max(s["retries"] for n in (0, steps["unix"])
                                 for s in samples[("unix", n, 0)]), "count"),
        "trace.coverage.rr": (statistics.median(
            [s["layers"]["covered"] / s["layers"]["wall"] for s in runs("rr", 1)]),
            "ratio"),
        "check.interp_diff_elems": (check["interp_diff_elems"], "count"),
    }
    for b in TRACED:
        for name, key in (("kernel.self_s", "kernel"), ("copy.self_s", "copy"),
                          ("fill.self_s", "fill"), ("sync.await_s", "await"),
                          ("sync.release_s", "release")):
            m["%s.%s" % (name, b)] = (layer(b, key) / steps[b], "s")
        m["trace.overhead_frac." + b] = (
            med(b, 1, "wall_s") / med(b, 0, "wall_s") - 1, "ratio")
    for b in ("loopback", "unix"):
        m["net.frames_per_step." + b] = (per_step(b, "msgs"), "count")
        m["net.bytes_per_step." + b] = (per_step(b, "bytes"), "B")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(STEPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    become_subreaper()
    if not build():
        print("perfbench: cannot build perfbench/worker.exe", file=sys.stderr)
        return 2
    start = time.monotonic()
    steps = STEPS[a.workload]
    runs = Runs()
    check = runs.worker(["check", a.workload, a.seed]
                        + ["%s=%d" % kv for kv in steps.items()],
                        CHECK_DEADLINE_S, "check") or {}
    if a.trace:
        tasks = [(b, steps[b], t) for t in (1, 0) for b in TRACED]
        tasks += [("loopback", 0, 0), ("unix", 0, 0), ("unix", steps["unix"], 0)]
    else:
        tasks = [(b, n, 0) for b in BACKENDS for n in (0, steps[b])]
    samples = {t: [] for t in tasks}
    zero_states = {}
    rng = random.Random(a.seed)
    measure_start = time.monotonic()
    while True:
        order = list(tasks)
        rng.shuffle(order)
        for backend, n, traced in order:
            if time.monotonic() - start > LAST_START_S:
                break
            what = "%s %s %d steps%s" % (a.workload, backend, n,
                                         " traced" if traced else "")
            s = runs.worker(["sample", a.workload, backend, n, a.seed, traced],
                            RUN_DEADLINE_S, what)
            if s is None or not s.get("ok"):
                continue
            why = verify(s, check, zero_states)
            if why:
                runs.fail(what, why)
            else:
                samples[(backend, n, traced)].append(s)
        now = time.monotonic()
        if now - measure_start >= a.seconds or now - start > LAST_START_S:
            break
    try:
        metrics = (per_layer if a.trace else end_to_end)(samples, steps, check)
    except (KeyError, IndexError, ZeroDivisionError, statistics.StatisticsError) as e:
        runs.problems.append("metrics: cannot compute them (%r)" % e)
        metrics = {}
    correct = bool(check.get("ok")) and runs.failed == 0 and bool(metrics)
    for name, (value, unit) in sorted(metrics.items()):
        print("%-32s %16.6g %s" % (name, value, unit))
    for p in runs.problems:
        print("FAILED " + p)
    meta = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
        "trace": a.trace, "steps": steps, "shards": 2,
        "nproc": os.cpu_count(), "ocaml": check.get("ocaml"), "commit": commit(),
        "runs": {"%s/%d/%d" % t: len(v) for t, v in samples.items()},
        "check": {k: check.get(k) for k in (
            "ok", "failures", "interp_diff_elems", "interp_max_abs_diff",
            "interp_max_rel_diff", "tolerance")},
        "problems": runs.problems,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct, "attempted": runs.attempted, "failed": runs.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
