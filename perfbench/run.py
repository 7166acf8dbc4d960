#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a source checkout:

  python3 perfbench/run.py --workload serve|ingest|advise --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the f2db
libraries from src/) in Release mode under .bench_build/; later calls
reuse that build. The run's standard output ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. The exit code is non-zero,
with no result printed, when the sources are missing, the build fails, or
the run does not finish within its time limit.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def child_env():
    """Keeps compiler and run temporaries inside the build tree."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def log(message):
    print(message, file=sys.stderr, flush=True)


def source_id():
    """The git commit when there is one, otherwise a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no f2db sources at " + os.path.join(ROOT, "src"))
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", target],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              env=child_env())
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def run(command, timeout):
    """Runs a child with inherited stdout; kills and reaps it on timeout."""
    child = subprocess.Popen(command, cwd=ROOT, env=child_env())
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        log("perfbench: run exceeded %d s" % timeout)
        return 1
    except BaseException:
        child.kill()
        child.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["serve", "ingest", "advise"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the load generator self-test")
    args = parser.parse_args()

    if args.self_test:
        if not build("perfbench_selftest"):
            return 1
        return run([os.path.join(BUILD, "perfbench_selftest")], 300)
    if args.workload is None:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 1
    return run([
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--work-dir", os.path.join(BUILD, "work"),
        "--pinned", os.path.join(HERE, "pinned.txt"),
        "--source", source_id(),
    ], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
