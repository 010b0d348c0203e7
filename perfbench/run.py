#!/usr/bin/env python3
"""The repository benchmark: builds the perfbench binary from source, runs one
workload and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny]

Run it from the repository root. The first run configures and builds
perfbench/ (which pulls in the library through the root CMakeLists.txt)
into .bench_build/; later runs only rebuild what changed. The binary's
stdout is passed through; its last line is the result object, checked
here against the metric names and units BENCHMARK.json declares for the
mode (end_to_end for --trace 0, per_layer for --trace 1). A traced run
writes its spans to .bench_build/traces/<workload>-<seed>.json.

Exit codes: the binary's own (0 ok, 1 a wrong output or failed
request, 2 a usage error or exception), or 3 when the build fails or
the result line does not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(3)


def quiet(cmd):
    """Runs a build step; its output goes to stderr only if it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
    return proc.returncode == 0


def build():
    """Configures (once) and builds the binary."""
    if not os.path.exists(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", CMAKE_BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not quiet(configure):
            shutil.rmtree(CMAKE_BUILD, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not quiet(["cmake", "--build", CMAKE_BUILD, "--target", "perfbench",
                  "-j", jobs]):
        fail("build failed")


def declared_metrics(trace):
    """{name: unit} for the mode, from BENCHMARK.json at the root."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the binary's last line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are %s" % sorted(result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail("metrics differ from BENCHMARK.json: missing %s, undeclared "
             "%s, unit mismatch %s" % (missing, extra, units))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: small networks and pools")
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-%d" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the binary did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode in (0, 1) and lines:
        check_result(lines[-1], args.trace)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
