#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload hprd-zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seconds 10   # every workload in turn

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build)/perfbench in Release mode; inputs are generated from --seed into
a scratch directory there and removed afterwards. Full reports (host and
build fingerprint, workload record, per-layer self-time shares) and traced
runs' span dumps are kept under <build dir>/reports/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is nonzero when the build fails
or any correctness check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["yeast-search", "hprd-zipf", "rmat-rw"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def source_revision():
    """The git commit when there is one, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no DAF sources under {ROOT}/src; nothing to build")
        return None
    tree = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(tree, "perfbench")


def run_workload(binary, build_dir, workload, seed, seconds, trace, revision):
    work = os.path.join(build_dir, "work", f"{workload}-{seed}-{os.getpid()}")
    reports = os.path.join(build_dir, "reports")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(reports, exist_ok=True)
    stem = os.path.join(reports, f"{workload}-seed{seed}-trace{trace}")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work_dir", work, "--report", stem + ".json",
           "--commit", revision]
    if trace:
        cmd += ["--trace_file", stem + "-spans.json"]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        sys.stdout.write(out.stdout)
        log(f"{workload} printed no result (exit {out.returncode})")
        return out.returncode or 1, None
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return out.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        return 2
    revision = source_revision()
    workloads = WORKLOADS if args.all else [args.workload]
    code, last = 0, None
    for workload in workloads:
        rc, result = run_workload(binary, build_dir, workload, args.seed,
                                  args.seconds, args.trace, revision)
        if result is None:
            return rc or 1
        code = code or rc
        if args.all:
            print(json.dumps({"workload": workload, **result}))
        last = result
    if not args.all:
        print(json.dumps(last))
    return code


if __name__ == "__main__":
    sys.exit(main())
