#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload npn4-enum --seed 1 --seconds 35 \
        --trace 0

The first run configures and builds the benchmark runner from source
(Release) into the build directory ($CARGO_TARGET_DIR, or .bench_build); later
runs only rebuild what changed.  The runner's result is printed as the last
line of standard output: one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is non-zero when an output does not match
its reference or the build or run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("npn4-enum", "npn4-first", "fdsd6-enum")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def configured_source(build_dir):
    """The source directory the build directory was configured for, or
    None when it holds no CMake cache."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except FileNotFoundError:
        pass
    return None


def build(build_dir):
    """Configures and builds the runner.  A build directory configured for
    another checkout is configured afresh, so the runner is always built
    from this checkout's sources."""
    log = sys.stderr
    source = configured_source(build_dir)
    if source is None or os.path.realpath(source) != os.path.realpath(
            BENCH_DIR):
        if source is not None:
            os.remove(os.path.join(build_dir, "CMakeCache.txt"))
            shutil.rmtree(os.path.join(build_dir, "CMakeFiles"),
                          ignore_errors=True)
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=log, stderr=log,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "perfbench_runner"],
                   check=True, stdout=log, stderr=log, timeout=BUILD_TIMEOUT_S)


def run_benchmark(cmd):
    """Runs `cmd` in its own process group, so that on a timeout the
    runner and any child it started are killed and reaped together."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray children, if any
        except ProcessLookupError:
            pass
    return proc.returncode, out.decode()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ref-dir", os.path.join(BENCH_DIR, "reference"),
           "--state-dir", os.path.join(build_dir, "perfbench-state")]
    code, out = run_benchmark(cmd)
    lines = [l for l in out.splitlines() if l.strip()]
    if code not in (0, 1) or not lines:
        print("perfbench: runner failed (exit %d)" % code, file=sys.stderr)
        return code or 1
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
