#!/usr/bin/env python3
"""Builds the PP-Stream benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload stream-mnist2 --seed 1 --seconds 50 --trace 0

The first run configures and builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
reuse the build. The benchmark's report goes to standard output, which ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. Each run
also leaves a record (fingerprint + result) under <build>/results/ for
perfbench/compare.py. Exits non-zero, printing no result, when the build or
the run fails. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream-mnist2", "serve-mnist2")
# Claims are measured on DEFAULT_SEED and must also hold on HELD_OUT_SEED.
DEFAULT_SEED = 1
HELD_OUT_SEED = 977
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(bdir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "protocol.h")):
        raise RuntimeError("no PP-Stream sources next to perfbench/")
    # The compiler's temporary files stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench"], stdout=sys.stderr, env=env,
                   check=True)
    return os.path.join(bdir, "perfbench")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run, if any."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--cache-dir", bdir, "--git-commit", git_commit()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(results, stamp + ".trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        log(proc.stdout)
        log(f"perfbench: exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
        fingerprint = json.loads(lines[-2].split(" ", 1)[1])
    except (ValueError, IndexError) as e:
        log(proc.stdout)
        log(f"perfbench: malformed result: {e}")
        return 1
    declared = declared_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if declared is not None and got != declared:
        log(f"perfbench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(got.items()) ^ set(declared.items()))}")
        return 1

    with open(os.path.join(results, stamp + ".json"), "w") as f:
        json.dump({"fingerprint": fingerprint, "result": result}, f, indent=1)
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
