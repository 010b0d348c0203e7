#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json and both modes (--trace 0 and 1):
two runs with one seed must each be correct and emit every declared
metric with its declared unit (run.py checks the names and units), and
the exact-count metrics must repeat bit-for-bit between them. A run on
a second seed must change the exact counts. Exits 1 on any failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED, OTHER_SEED = 7, 8
EXACT_E2E = ("sim_cycles_per_inf", "sim_energy_uj_per_inf",
             "analytic_cycle_err_pct")
EXACT_PREFIXES = ("model.", "noc.", "pe.", "energy.")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d" % (" ".join(cmd[1:]),
                                                proc.returncode))
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError("%s: incorrect result %s" % (workload, result))
    return {name: m["value"] for name, m in result["metrics"].items()}


def exact_names(metrics, trace):
    if not trace:
        return list(EXACT_E2E)
    return [n for n in metrics if n.startswith(EXACT_PREFIXES)]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failures = []
    for workload in workloads:
        for trace in (0, 1):
            try:
                first = run(workload, SEED, trace)
                second = run(workload, SEED, trace)
            except AssertionError as e:
                failures.append(str(e))
                continue
            for name in exact_names(first, trace):
                if first[name] != second[name]:
                    failures.append("%s trace=%d: %s differs across same-"
                                    "seed runs: %r vs %r" % (
                                        workload, trace, name, first[name],
                                        second[name]))
            if not trace:
                other = run(workload, OTHER_SEED, trace)
                if other["sim_cycles_per_inf"] == first["sim_cycles_per_inf"]:
                    failures.append("%s: sim_cycles_per_inf does not depend "
                                    "on the seed" % workload)
        print("selftest: %s done" % workload, flush=True)
    for f in failures:
        print("selftest: FAIL " + f, file=sys.stderr)
    print("selftest: %s" % ("FAILED" if failures else "ok"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
