#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from anywhere inside a checkout of the repository. The first call
configures and builds perfbench/ (which compiles the medcc libraries from
src/) into .bench_build/perfbench/build; later calls only relink what
changed. The measuring program's last line of output -- one JSON object
with the keys correct, attempted, failed and metrics -- is printed as the
last line of standard output; run metadata goes to standard error and to
.bench_build/perfbench/results/. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def work_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def source_id():
    """The commit when the checkout is a git repository, else a hash of
    the sources the benchmark builds."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha1()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    digest.update((ROOT / "CMakeLists.txt").read_bytes())
    return "tree-" + digest.hexdigest()


def build(build_dir):
    """Configures once, then brings the binaries up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no medcc sources next to {HERE} (need CMakeLists.txt and src/)")
    if not shutil.which("cmake"):
        die("cmake not found")
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                      "--target", "perfbench_serving", "perfbench_selftest"])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                die("build timed out", 1)
            if done.returncode != 0:
                die(f"build step failed: {' '.join(step)}", 1)


def run_checked(command):
    """Runs a program, forwarding stderr; returns (code, stdout lines)."""
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        die("benchmark run timed out", 1)
    return proc.returncode, out.splitlines()


def selftest(build_dir):
    code, lines = run_checked([str(build_dir / "perfbench_selftest")])
    for line in lines:
        print(line)
    if code != 0:
        return code
    # The catalog the program reports must be the one BENCHMARK.json names.
    code, lines = run_checked([str(build_dir / "perfbench_selftest"), "--list"])
    catalog = {"end_to_end": [], "per_layer": []}
    for line in lines:
        kind, name, unit = line.split()
        catalog[kind].append((name, unit))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for kind, listed in catalog.items():
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != listed:
            print(f"FAIL: BENCHMARK.json {kind} differs from the program's "
                  f"catalog", file=sys.stderr)
            return 1
    print("perfbench selftest: BENCHMARK.json matches the metric catalog")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None):
        die("--workload, --seed and --seconds are required")

    out_dir = work_dir()
    build_dir = out_dir / "build"
    build(build_dir)
    if args.selftest:
        sys.exit(selftest(build_dir))

    code, lines = run_checked([
        str(build_dir / "perfbench_serving"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", str(out_dir), "--commit", source_id()])
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        die(f"benchmark exited with code {code}", code or 1)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        die("malformed result line", 1)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
