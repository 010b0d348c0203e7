// perfbench — the repository benchmark's binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--trace-out <path prefix>]
//
// Workloads: cycle_uv_on, cycle_uv_off (the cycle-accurate engine at
// the paper's design point, UV predictor on and off) and serve_open
// (the serving tier under an open-loop ladder of 1000, 2000 and 4000
// requests/s, then a closed-loop saturation step).
// Prints one line of host context, then, as the last line, the result:
//   {"correct": b, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced run (--trace 1, which also writes its spans to
// <prefix>.json and the replay's per-phase cycle records to
// <prefix>.phases.csv). Exits 1 when any output is wrong or any
// request failed, 2 on a usage error or an exception.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "common/simd.hpp"
#include "harness.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--tiny] [--trace-out <prefix>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = v != "0";
      } else if (a == "--trace-out") {
        o.trace_out = v;
      } else {
        usage("unknown option " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) usage("--seconds out of range");
  if (o.trace && o.trace_out.empty()) usage("--trace 1 needs --trace-out");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    perfbench::Outcome out;
    if (o.workload == "cycle_uv_on") {
      out = perfbench::run_cycle_workload(o, true);
    } else if (o.workload == "cycle_uv_off") {
      out = perfbench::run_cycle_workload(o, false);
    } else if (o.workload == "serve_open") {
      out = perfbench::run_serve_workload(o);
    } else {
      usage("unknown workload " + o.workload);
    }
    std::printf(
        "{\"host\": {\"nproc\": %u, \"simd_isa\": \"%s\", "
        "\"steal_frac\": %.4f, \"workload\": \"%s\", \"seed\": %llu}}\n",
        std::thread::hardware_concurrency(),
        sparsenn::to_string(sparsenn::active_simd_isa()), out.steal_frac,
        o.workload.c_str(), static_cast<unsigned long long>(o.seed));
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        out.failed == 0 ? "true" : "false",
        static_cast<unsigned long long>(out.attempted),
        static_cast<unsigned long long>(out.failed),
        out.metrics.json().c_str());
    std::fflush(stdout);
    return out.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << ": " << e.what() << "\n";
    return 2;
  }
}
