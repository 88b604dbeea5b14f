#!/usr/bin/env python3
"""Builds the phpSAFE benchmark from this checkout's sources and runs it.

    python3 phpbench/run.py --workload corpus_audit --seed 1 --seconds 15 --trace 0
    python3 phpbench/run.py          # every workload in turn

Run from the repository root. One run starts the phpbench binary SUBRUNS
times in fresh processes, one after another, each setting up once and
measuring seconds/SUBRUNS; every metric is the median over those
processes, and every per-layer count must agree exactly between them. The
build goes to $CARGO_TARGET_DIR (default .bench_build) under the root;
trace files and host context go to its phpbench-out/ directory. The last
line of a run is the result object (see NOTES.md); build output goes to
stderr.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["corpus_audit", "watch_edits", "validate_batch"]
SUBRUNS = 5
EXACT_UNITS = ("count", "bytes")  # per-layer counts: identical in every process
DEADLINE_S = 170  # a run must end within 180 s
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """The git commit when there is one, else a hash of the source tree."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("src", "phpbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures (once) and builds the phpbench binary; exits on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("phpbench: no phpSAFE sources (src/CMakeLists.txt) in " + ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "phpbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("phpbench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "phpbench")


def run_process(cmd, env, deadline):
    """Runs one phpbench process; returns its stdout lines."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.time()))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("phpbench: %s exited with %d" % (cmd[0], proc.returncode))
    return lines


def combine(results):
    """Medians over the processes; exact agreement for per-layer counts."""
    correct = all(r["correct"] for r in results)
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if first["unit"] in EXACT_UNITS:
            if len(set(values)) != 1:
                print("# FAILED: %s differs between processes: %s" %
                      (name, values))
                correct = False
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": first["unit"]}
        print("# %s = %r %s  (per process: %s)" % (
            name, value, first["unit"], " ".join("%.6g" % v for v in values)))
    return {"correct": correct,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def run_workload(binary, workload, args, env, out_dir):
    deadline = time.time() + DEADLINE_S
    host = json.loads(run_process([binary, "--host"], env, deadline)[-1])
    results = []
    for k in range(SUBRUNS):
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / SUBRUNS),
               "--trace", str(args.trace),
               "--out-dir", os.path.join(out_dir, workload, "run-%d" % k)]
        lines = run_process(cmd, env, deadline)
        for line in lines[:-1]:
            print("[%d] %s" % (k, line))
        results.append(json.loads(lines[-1]))
    after = json.loads(run_process([binary, "--host"], env, deadline)[-1])
    host["memory_probe_ns_after"] = after.pop("memory_probe_ns")
    host["memory_probe_ns_before"] = host.pop("memory_probe_ns")
    host.update(workload=workload, seed=args.seed, source=source_id(),
                processes=SUBRUNS)
    print("# host " + json.dumps(host, sort_keys=True))
    os.makedirs(os.path.join(out_dir, workload), exist_ok=True)
    with open(os.path.join(out_dir, workload, "host.json"), "w") as f:
        json.dump(host, f, sort_keys=True)
    result = combine(results)
    print(json.dumps(result), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(os.path.join(target, "phpbench"))
    # Worker counts are fixed inside the benchmark; keep the environment
    # from overriding them or the engine backend.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PHPSAFE_JOBS", "PHPSAFE_BACKEND")}
    for workload in [args.workload] if args.workload else WORKLOADS:
        run_workload(binary, workload, args, env,
                     os.path.join(target, "phpbench-out"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
