#!/usr/bin/env python3
"""Builds and runs one wsrbench workload; prints its JSON result last.

    python3 wsrbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the benchmark under $CARGO_TARGET_DIR (default .bench_build);
later runs only re-check the build. Scratch files (the serve-mixed store,
Chrome traces) go to .wsrbench/. See wsrbench/README.md.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("wafer-sweep", "fabric-verify", "serve-mixed")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(root, "wsrbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "-j4"], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "wsrbench")


def run(cmd):
    """Runs cmd, forwarding stderr; returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"timed out: {' '.join(cmd)}")
        return 1, ""
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src")):
        log("no library sources (src/) here; run from the repository root")
        return 1
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "wsrbench")
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    work = os.path.join(root, ".wsrbench")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.workload == "serve-mixed":
        store = os.path.join(work, "serve-store")
        shutil.rmtree(store, ignore_errors=True)
        code, _ = run([binary, "--prepare-store", store])
        if code != 0:
            log("could not prepare the serve-mixed store")
            return 1
        cmd += ["--store", store]

    code, out = run(cmd)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log(f"wsrbench exited with {code}")
        return code or 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
