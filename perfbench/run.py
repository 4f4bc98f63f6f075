#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Configures and builds perfbench/ (CMake,
Release) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs the perfbench binary, whose last stdout line is the JSON result.
The traced run (--trace 1) writes its Chrome trace and per-layer summary
under .bench_build/perfbench-out/.

--selftest runs every workload briefly, untraced and traced, checks that
each result carries exactly the metrics BENCHMARK.json names, and checks
that a corrupted reference and an aborting scenario batch are reported as
failed units rather than as a pass.
"""
import argparse
import functools
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ["fanout_4k", "composed_64", "scenario_sweep", "omp_sp32"]


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build():
    """Configure and build the binary; returns its path or None."""
    out = build_root() / "perfbench"
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", "perfbench",
              "-j", str(jobs())]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return out / "perfbench"


@functools.lru_cache(maxsize=None)
def commit_id():
    """The git commit, or a hash of the sources when not in a repository."""
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def run_bench(binary, workload, seed, seconds, trace, extra=()):
    """Runs the binary; returns (exit code, stdout)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference-dir", str(BENCH_DIR / "reference"),
           "--out-dir", str(build_root() / "perfbench-out"),
           "--commit", commit_id(), *extra]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        log("%s timed out" % workload)
        return 1, ""
    return r.returncode, r.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def selftest(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    failures = []

    def expect(cond, what):
        print(("PASS " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for w in WORKLOADS:
        for trace in (0, 1):
            rc, out = run_bench(binary, w, 1, 2, trace)
            res = result_of(out)
            what = "%s trace=%d" % (w, trace)
            expect(rc == 0 and res is not None, what + ": result printed")
            if res is None:
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   what + ": result keys")
            expect(set(res["metrics"]) == wanted[trace],
                   what + ": every declared metric, nothing else")
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] > 0,
                   what + ": correct against the committed reference")
        rc, out = run_bench(binary, w, 1, 1, 0, ["--corrupt-reference"])
        res = result_of(out)
        expect(rc == 0 and res is not None and not res["correct"]
               and res["attempted"] > 0
               and res["failed"] == res["attempted"],
               w + ": a wrong reference digest fails every unit")
    rc, out = run_bench(binary, "scenario_sweep", 1, 2, 0, ["--inject-abort"])
    res = result_of(out)
    expect(rc == 0 and res is not None and not res["correct"]
           and 0 < res["failed"] < res["attempted"],
           "scenario_sweep: an aborting batch fails its cells, not the run")
    print("selftest: %s" % ("ok" if not failures else
                            "%d failed" % len(failures)))
    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    t0 = time.monotonic()
    binary = build()
    if binary is None:
        return 2
    log("build ready in %.1f s" % (time.monotonic() - t0))
    if args.selftest:
        return selftest(binary)
    rc, out = run_bench(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    if rc != 0 or result_of(out) is None:
        log("benchmark exited with %d and no result" % rc)
        return rc or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
