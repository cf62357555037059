#!/usr/bin/env python3
"""Repository benchmark: builds the program from source, then runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload pubmed-3000|pubmed-1500 \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The repository's own CMakeLists.txt builds the libraries and vgod_serve with
the repository's flags; perfbench/build.cmake adds the benchmark runner to
that build. Build output goes to stderr. The runner prints the result as the
last line of stdout (see perfbench/README.md).
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("pubmed-3000", "pubmed-1500")
RUNNER_TIMEOUT_S = 170
RUN_SECONDS = 24  # BENCHMARK.json run_seconds


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (first time only) and builds the runner and vgod_serve."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        raise RuntimeError("no CMakeLists.txt at the checkout root; the "
                           "benchmark needs the repository's sources")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    build_file = os.path.join(root, "perfbench", "build.cmake")
    steps = []
    # Configure on first use and whenever the benchmark's build file changed
    # (make cannot find a renamed target before CMake has run again).
    if (not os.path.isfile(cache) or
            os.path.getmtime(build_file) > os.path.getmtime(cache)):
        steps.append(["cmake", "-S", root, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_PROJECT_INCLUDE=" + build_file])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_runner", "vgod_serve_bin", "-j", "4"])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            raise RuntimeError("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS,
                        help="length of the fixed-rate phases in total "
                             "(BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="only run the reference checks' self-test")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    out_root = os.path.join(root, ".bench_build")
    build_dir = os.path.join(out_root, "cmake")
    try:
        build(root, build_dir)
    except (RuntimeError, OSError) as error:
        log(f"error: {error}")
        return 2

    runner = os.path.join(build_dir, "perfbench_runner")
    server = os.path.join(build_dir, "tools", "vgod_serve")
    work = os.path.join(out_root, "work", f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    command = [runner, "--server", server, "--workdir", work,
               "--outdir", os.path.join(out_root, "out")]
    if args.selftest:
        command.append("--selftest")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace",
                    str(args.trace)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: runner exceeded {RUNNER_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
