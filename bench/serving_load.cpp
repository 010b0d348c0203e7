// serving_load — load generator for the serving tier (src/serve/),
// emitting latency/throughput/shedding numbers as JSON for the
// performance trajectory (CI gates on the fields, like sim_throughput).
//
//   ./serving_load [--clients n] [--requests n] [--models m]
//                  [--workers w] [--max-batch b]
//                  [--engine cycle|analytic] [--zipf-s s]
//                  [--open-load f] [--json-out path]
//
// Any other flag is a usage error (exit 2).
//
// Two phases against a fresh ServingFrontend each:
//
//   closed loop — `--clients` simulated clients (default 2000) each
//     keep exactly one request outstanding: submit, await the future,
//     resubmit. One driver thread multiplexes all clients by polling
//     their futures, so "thousands of clients" costs thousands of
//     future slots, not thousands of OS threads. With every client
//     always waiting on the server, this measures SATURATION
//     throughput and the latency distribution under full load.
//
//   open loop — Poisson arrivals (exponential inter-arrival gaps) at
//     `--open-load` (default 0.25) times the measured saturation
//     throughput, i.e. a server at ~25% utilisation. Arrivals are
//     independent of completions — the defining open-loop property —
//     so queueing delay is visible instead of being absorbed by
//     client back-pressure. At this load the run must be shed-free
//     (CI gates on it).
//
// Plus two overload-control phases (seeded chaos storms through the
// fault framework, fresh frontends):
//
//   overload — a single-threaded burst flood with priority classes
//     (~1/19 high, ~1/5 normal, rest best-effort) against watermarked
//     admission {1.0, 0.75, 0.25}, an injected per-batch stall so the
//     flood genuinely outruns the three workers, and one extra model
//     whose compiles are forced to fail so its circuit breaker opens
//     and (post-storm) recovers. Capacity is sized so high-priority
//     headroom exceeds the whole high-priority load: CI gates that
//     high sheds nothing while best-effort sheds, and that the
//     breaker opened, shed, and closed again. Emits per-class
//     p50/p99/shed plus breaker transition counts.
//
//   degraded — a kCycle frontend with allow_degraded: three doomed
//     requests trip the brownout pressure signal, then real requests
//     transparently run on the AnalyticEngine fallback. Every
//     degraded result is compared bitwise against a direct
//     AnalyticEngine run (CI gates bit_identical).
//
// Requests pick their model by a zipf(s) popularity distribution over
// `--models` distinct registered networks (different hidden widths, so
// the zoo really holds distinct images), matching the skewed traffic
// a multi-model serving node actually sees.
//
// Latency percentiles (p50/p95/p99) are exact — computed from the
// sorted per-request client-observed wall times, not histogram bins —
// in microseconds. The batch-size histogram comes from the frontend's
// own per-batch accounting.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cli_args.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "nn/network.hpp"
#include "nn/predictor.hpp"
#include "nn/quantized.hpp"
#include "serve/frontend.hpp"
#include "sim/compiled_network.hpp"

namespace {

using namespace sparsenn;
using Clock = std::chrono::steady_clock;

/// Reduced 16-PE configuration (the test-suite arch): serving-path
/// overheads are what this bench measures, not 64-PE simulation cost.
ArchParams bench_arch() {
  ArchParams p;
  p.num_pes = 16;
  p.router_levels = 2;
  p.w_mem_kb_per_pe = 16;
  p.u_mem_kb_per_pe = 4;
  p.v_mem_kb_per_pe = 4;
  p.act_regs_per_pe = 16;
  return p;
}

/// Small {24, h, 18, 6} network with rank-4 predictors; each model
/// gets a different hidden width so the zoo holds distinct images.
QuantizedNetwork make_model(std::size_t index, Rng& rng) {
  const std::size_t hidden = 20 + 2 * index;
  Network net{{24, hidden, 18, 6}, rng};
  net.set_predictor(0, Predictor::random(hidden, 24, 4, rng));
  net.set_predictor(1, Predictor::random(18, hidden, 4, rng));
  Matrix calib(4, 24);
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib.flat()[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  return QuantizedNetwork(net, calib);
}

/// Zipf(s) sampler over [0, n) via the precomputed CDF: popularity of
/// rank k is proportional to 1/(k+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k)
      cdf_[k] = total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    for (double& c : cdf_) c /= total;
  }
  std::size_t operator()(Rng& rng) const {
    const double u = rng.uniform();
    for (std::size_t k = 0; k < cdf_.size(); ++k)
      if (u < cdf_[k]) return k;
    return cdf_.size() - 1;
  }

 private:
  std::vector<double> cdf_;
};

/// Exact percentile (linear interpolation between order statistics)
/// over an ALREADY SORTED sample; microseconds in, microseconds out.
double exact_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double pos = std::clamp(p, 0.0, 100.0) / 100.0 *
                     static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

struct PhaseReport {
  double wall_seconds = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;  ///< resolved kEngineError (0 in a healthy run)
  double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0;
  ServingStats stats;

  double throughput() const {
    return wall_seconds > 0.0 ? static_cast<double>(ok) / wall_seconds : 0.0;
  }
  double shed_rate() const {
    const std::uint64_t total = ok + shed + failed;
    return total ? static_cast<double>(shed) / static_cast<double>(total)
                 : 0.0;
  }
};

struct Workload {
  std::vector<QuantizedNetwork> networks;
  std::vector<std::size_t> handles;       ///< frontend model handles
  std::vector<std::vector<float>> inputs; ///< shared 24-dim input pool
  ZipfSampler zipf;
  std::vector<std::uint64_t> per_model;   ///< requests issued per model
};

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// One in-flight simulated client: a future plus its submit stamp.
struct Slot {
  std::future<ServeResult> future;
  Clock::time_point submitted;
  bool active = false;
};

void finish(Slot& slot, PhaseReport& report, std::vector<double>& latencies) {
  const ServeResult r = slot.future.get();
  if (r.status == ServeStatus::kOk) {
    ++report.ok;
    latencies.push_back(us_between(slot.submitted, Clock::now()));
  } else if (r.status == ServeStatus::kEngineError) {
    ++report.failed;
  } else {
    ++report.shed;
  }
  slot.active = false;
}

Slot submit_one(ServingFrontend& frontend, Workload& load, Rng& rng) {
  const std::size_t model = load.zipf(rng);
  ++load.per_model[model];
  const std::vector<float>& x =
      load.inputs[rng.uniform_index(load.inputs.size())];
  Slot slot;
  slot.submitted = Clock::now();
  slot.future = frontend.submit(load.handles[model], x);
  slot.active = true;
  return slot;
}

/// Closed loop: `clients` outstanding requests, resubmit on completion
/// until `requests` have been issued; then drain.
PhaseReport run_closed_loop(ServingFrontend& frontend, Workload& load,
                            std::size_t clients, std::size_t requests,
                            Rng& rng) {
  PhaseReport report;
  std::vector<double> latencies;
  latencies.reserve(requests);
  std::vector<Slot> slots(std::min(clients, requests));

  const auto start = Clock::now();
  std::size_t issued = 0;
  for (Slot& slot : slots) {
    slot = submit_one(frontend, load, rng);
    ++issued;
  }
  std::size_t live = slots.size();
  while (live > 0) {
    bool progressed = false;
    for (Slot& slot : slots) {
      if (!slot.active ||
          slot.future.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
        continue;
      }
      finish(slot, report, latencies);
      progressed = true;
      if (issued < requests) {
        slot = submit_one(frontend, load, rng);
        ++issued;
      } else {
        --live;
      }
    }
    if (!progressed) std::this_thread::yield();
  }
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::sort(latencies.begin(), latencies.end());
  report.p50_us = exact_percentile(latencies, 50);
  report.p95_us = exact_percentile(latencies, 95);
  report.p99_us = exact_percentile(latencies, 99);
  report.stats = frontend.stats();
  return report;
}

/// Open loop: Poisson arrivals at `rate` req/s — submit times follow
/// the schedule regardless of completions (reaping is opportunistic).
PhaseReport run_open_loop(ServingFrontend& frontend, Workload& load,
                          double rate, std::size_t requests, Rng& rng) {
  PhaseReport report;
  std::vector<double> latencies;
  latencies.reserve(requests);
  std::vector<Slot> slots(requests);

  const auto start = Clock::now();
  auto next_arrival = start;
  for (std::size_t i = 0; i < requests; ++i) {
    // Exponential inter-arrival gap: -ln(1-u)/rate seconds.
    const double gap = -std::log(1.0 - rng.uniform()) / rate;
    next_arrival += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gap));
    std::this_thread::sleep_until(next_arrival);
    slots[i] = submit_one(frontend, load, rng);
    // Opportunistic reap keeps the scan short and latency stamps tight.
    for (std::size_t j = i < 32 ? 0 : i - 32; j < i; ++j) {
      if (slots[j].active &&
          slots[j].future.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
        finish(slots[j], report, latencies);
      }
    }
  }
  for (Slot& slot : slots)
    if (slot.active) finish(slot, report, latencies);
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::sort(latencies.begin(), latencies.end());
  report.p50_us = exact_percentile(latencies, 50);
  report.p95_us = exact_percentile(latencies, 95);
  report.p99_us = exact_percentile(latencies, 99);
  report.stats = frontend.stats();
  return report;
}

// ---- overload phase ------------------------------------------------

/// Client-side per-priority-class accounting for the overload phase;
/// cross-checked request-for-request against the frontend's own
/// per-class counters before anything is reported.
struct ClassTally {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::vector<double> latencies;  ///< completed requests only
  double p50_us = 0.0, p99_us = 0.0;

  double shed_rate() const {
    return submitted ? static_cast<double>(shed) /
                           static_cast<double>(submitted)
                     : 0.0;
  }
};

struct OverloadReport {
  std::uint64_t requests = 0;  ///< flood size (excludes warmup/recovery)
  double wall_seconds = 0.0;
  std::array<ClassTally, kNumPriorityClasses> classes;
  bool breaker_recovered = false;  ///< failing model closed post-storm
  ServingStats stats;
};

/// One in-flight overload request: future + stamp + its class.
struct ClassedSlot {
  std::future<ServeResult> future;
  Clock::time_point submitted;
  Priority priority = Priority::kNormal;
};

void settle(ClassedSlot&& slot, OverloadReport& report) {
  ClassTally& tally = report.classes[class_index(slot.priority)];
  ++tally.submitted;
  const ServeResult r = slot.future.get();
  if (r.status == ServeStatus::kOk) {
    ++tally.completed;
    tally.latencies.push_back(us_between(slot.submitted, Clock::now()));
  } else if (r.status == ServeStatus::kEngineError) {
    ++tally.failed;
  } else {
    ++tally.shed;
  }
}

/// Burst flood with priority classes against watermarked admission
/// plus a dedicated failing model under a seeded fault storm: an
/// injected per-batch stall makes the flood genuinely outrun the three
/// workers (so best-effort sheds) while forced compile failures open
/// the failing model's circuit breaker; after the storm a recovery
/// loop drives the breaker open → half-open → closed again.
OverloadReport run_overload_phase(const Workload& load, std::size_t flood) {
  OverloadReport report;
  report.requests = flood;

  // ~1/19 of the flood is high priority (the r % 19 pattern below).
  const std::size_t high_count = (flood + 18) / 19;

  ServingOptions options;
  options.num_workers = 3;
  options.max_batch = 4;
  options.engine = EngineKind::kAnalytic;
  // High-priority headroom is deterministic, not probabilistic: with
  // watermarks {1.0, 0.75, 0.25}, best-effort stops admitting at
  // 0.25 × capacity and normal at 0.75 × capacity, so the worst-case
  // depth a high-priority submission can meet is 0.75 × capacity plus
  // every prior high request — under capacity as long as capacity
  // covers 4 × high_count. 8× leaves a 2× margin.
  options.queue_capacity = std::max<std::size_t>(64, 8 * high_count);
  options.max_queued_per_model = options.queue_capacity;
  options.class_watermarks = {1.0, 0.75, 0.25};
  options.breaker.window = 16;
  options.breaker.min_samples = 8;
  options.breaker.failure_threshold = 0.5;
  options.breaker.open_sheds = 8;
  options.breaker.probe_interval = 2;
  options.breaker.probe_successes = 2;
  options.breaker.seed = 2024;
  // The failing model's compiles are *forced* to fail under the storm;
  // healthy images are warmed below and must never be evicted into a
  // recompile (which would fail too and charge an injected error to a
  // healthy model).
  options.zoo_capacity_per_arch = load.networks.size() + 2;

  // The breaker target, registered alongside the healthy models.
  Rng failing_rng{7};
  const QuantizedNetwork failing_net =
      make_model(load.networks.size(), failing_rng);

  ServingFrontend frontend(options);
  std::vector<std::size_t> handles;
  for (const QuantizedNetwork& net : load.networks)
    handles.push_back(frontend.register_model(net, bench_arch()));
  const std::size_t failing = frontend.register_model(failing_net,
                                                      bench_arch());

  // Warm every healthy model's compiled image before arming the storm
  // (zoo.compile fires on the miss path only, so warm images are
  // immune to the injected compile outage).
  for (const std::size_t handle : handles) {
    SubmitOptions warm;
    warm.priority = Priority::kNormal;
    settle({frontend.submit(handle, load.inputs[0], warm), Clock::now(),
            Priority::kNormal},
           report);
  }

  const auto start = Clock::now();
  {
    fault::ScopedFaultStorm storm(20260807);
    storm.add({.point = "zoo.compile",
               .action = fault::FaultAction::kThrow,
               .probability = 1.0,
               .message = "injected compile outage"});
    storm.add({.point = "serve.worker.batch",
               .action = fault::FaultAction::kDelay,
               .probability = 1.0,
               .delay_us = 800});

    std::vector<ClassedSlot> inflight;
    inflight.reserve(flood);
    for (std::size_t r = 0; r < flood; ++r) {
      const Priority pri = (r % 19 == 0)  ? Priority::kHigh
                           : (r % 5 == 0) ? Priority::kNormal
                                          : Priority::kBestEffort;
      // High-priority traffic only targets healthy models (an SLO tier
      // would not be pointed at a known-bad deployment); lower classes
      // alternate between healthy traffic and the failing model.
      const std::size_t handle = (pri != Priority::kHigh && (r & 1))
                                     ? failing
                                     : handles[r % handles.size()];
      SubmitOptions so;
      so.priority = pri;
      inflight.push_back({frontend.submit(
                              handle, load.inputs[r % load.inputs.size()],
                              so),
                          Clock::now(), pri});
    }
    for (ClassedSlot& slot : inflight) settle(std::move(slot), report);
  }  // storm disarmed — compiles succeed again

  // Recovery: keep submitting to the failing model until its breaker
  // closes (open sheds burn down, then seeded half-open probes
  // succeed). Bounded so a broken breaker fails the self-check instead
  // of hanging the bench.
  for (std::size_t i = 0; i < 400 && !report.breaker_recovered; ++i) {
    SubmitOptions so;
    so.priority = Priority::kNormal;
    settle({frontend.submit(failing, load.inputs[i % load.inputs.size()],
                            so),
            Clock::now(), Priority::kNormal},
           report);
    report.breaker_recovered =
        frontend.breaker_state(failing) == BreakerState::kClosed;
    if (!report.breaker_recovered)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  frontend.shutdown();
  report.stats = frontend.stats();
  for (ClassTally& tally : report.classes) {
    std::sort(tally.latencies.begin(), tally.latencies.end());
    tally.p50_us = exact_percentile(tally.latencies, 50);
    tally.p99_us = exact_percentile(tally.latencies, 99);
  }
  return report;
}

// ---- degraded phase ------------------------------------------------

struct DegradedReport {
  std::uint64_t requests = 0;  ///< real (post-brownout-trip) requests
  std::uint64_t completed = 0;
  std::uint64_t degraded_completed = 0;  ///< client-observed r.degraded
  std::uint64_t deadline_shed = 0;
  bool bit_identical = true;  ///< every kOk result == direct analytic run
  ServingStats stats;
};

/// kCycle frontend with allow_degraded: three doomed requests (1 µs
/// deadlines expiring under an injected per-batch stall) trip the
/// brownout pressure signal, then real requests transparently run on
/// the AnalyticEngine fallback. Every completed result is compared
/// bitwise against a direct AnalyticEngine run of the same
/// (model, input) — degraded mode trades the cycle estimate away,
/// never the functional output.
DegradedReport run_degraded_phase(const Workload& load) {
  DegradedReport report;

  ServingOptions options;
  options.num_workers = 1;
  options.max_batch = 4;
  options.engine = EngineKind::kCycle;
  options.queue_capacity = 256;
  options.max_queued_per_model = 256;
  options.allow_degraded = true;
  options.brownout_queue_fraction = 1.0;  // pressure signal only
  options.brownout_deadline_sheds = 3;
  options.brownout_window = 64;

  ServingFrontend frontend(options);
  std::vector<std::size_t> handles;
  for (const QuantizedNetwork& net : load.networks)
    handles.push_back(frontend.register_model(net, bench_arch()));

  // Trip the brownout signal: the injected stall holds the worker past
  // each 1 µs deadline, so all three are shed at batch-claim time and
  // land in the recent-outcome pressure window.
  {
    fault::ScopedFaultStorm storm(17);
    storm.add({.point = "serve.worker.batch",
               .action = fault::FaultAction::kDelay,
               .probability = 1.0,
               .delay_us = 3000});
    for (int i = 0; i < 3; ++i) {
      SubmitOptions doomed;
      doomed.deadline_us = 1;
      frontend.submit(handles[0], load.inputs[0], doomed).get();
    }
  }

  // Real traffic, claimed during brownout. Fewer than brownout_window
  // minus the three sheds, so the pressure signal holds throughout.
  report.requests = 32;
  std::vector<std::future<ServeResult>> futures;
  std::vector<std::pair<std::size_t, std::size_t>> keys;  // model, input
  for (std::size_t i = 0; i < report.requests; ++i) {
    const std::size_t model = i % handles.size();
    const std::size_t input = i % load.inputs.size();
    keys.emplace_back(model, input);
    futures.push_back(
        frontend.submit(handles[model], load.inputs[input]));
  }

  const auto analytic = make_engine(EngineKind::kAnalytic, bench_arch());
  std::vector<std::unique_ptr<CompiledNetwork>> images;
  for (const QuantizedNetwork& net : load.networks)
    images.push_back(std::make_unique<CompiledNetwork>(
        net, bench_arch(), /*use_predictor=*/true));

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ServeResult r = futures[i].get();
    if (r.status != ServeStatus::kOk) {
      report.bit_identical = false;  // a lost request can't be identical
      continue;
    }
    ++report.completed;
    if (r.degraded) ++report.degraded_completed;
    const auto [model, input] = keys[i];
    const SimResult golden = analytic->run(
        *images[model], load.inputs[input], ValidationMode::kOff);
    if (!(r.result == golden)) report.bit_identical = false;
  }

  frontend.shutdown();
  report.stats = frontend.stats();
  report.deadline_shed = report.stats.deadline_shed;
  return report;
}

void print_class(std::ostream& os, const char* name, const ClassTally& t) {
  os << "\"" << name << "\": {\"submitted\": " << t.submitted
     << ", \"completed\": " << t.completed << ", \"shed\": " << t.shed
     << ", \"failed\": " << t.failed << ", \"shed_rate\": " << t.shed_rate()
     << ", \"p50_us\": " << t.p50_us << ", \"p99_us\": " << t.p99_us << "}";
}

void print_phase(std::ostream& os, const char* name, const PhaseReport& r) {
  os << "  \"" << name << "\": {"
     << "\"wall_seconds\": " << r.wall_seconds
     << ", \"completed\": " << r.ok << ", \"shed\": " << r.shed
     << ", \"failed\": " << r.failed
     << ", \"deadline_shed\": " << r.stats.deadline_shed
     << ", \"retries\": " << r.stats.retries
     << ", \"workers_restarted\": " << r.stats.workers_restarted
     << ", \"throughput_inf_per_sec\": " << r.throughput()
     << ", \"shed_rate\": " << r.shed_rate()
     << ", \"p50_us\": " << r.p50_us << ", \"p95_us\": " << r.p95_us
     << ", \"p99_us\": " << r.p99_us
     << ", \"batches\": " << r.stats.batches
     << ", \"mean_batch_size\": " << r.stats.mean_batch_size()
     << ", \"batch_size_hist\": [";
  for (std::size_t i = 0; i < r.stats.batch_size_counts.size(); ++i)
    os << (i ? ", " : "") << r.stats.batch_size_counts[i];
  os << "]}";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv, 1,
                       {"clients", "requests", "models", "zipf-s",
                        "open-load", "engine", "json-out", "workers",
                        "max-batch"});
    const std::size_t clients = args.get_size("clients", 2000);
    const std::size_t requests = args.get_size("requests", 6000);
    const std::size_t num_models = std::max<std::size_t>(
        args.get_size("models", 2), 2);  // zipf needs >= 2 ranks
    const double zipf_s = args.get_double("zipf-s", 1.0);
    const double open_load = args.get_double("open-load", 0.25);
    const std::string engine_name = args.get("engine", "analytic");
    const std::string json_out = args.get("json-out", "");
    const std::optional<EngineKind> engine = parse_engine_kind(engine_name);
    if (!engine)
      throw UsageError("--engine takes cycle|analytic, got '" + engine_name +
                       "'");

    ServingOptions options;
    options.num_workers = args.get_size(
        "workers",
        std::max<std::size_t>(2, std::thread::hardware_concurrency() / 2));
    options.max_batch = args.get_size("max-batch", 16);
    options.engine = *engine;
    // Closed-loop saturation holds `clients` requests outstanding by
    // design; size admission so the measurement phase itself is
    // shed-free and sheds appear only if the frontend misbehaves.
    options.queue_capacity = clients + options.max_batch;
    options.max_queued_per_model = options.queue_capacity;

    Rng rng{2024};
    Workload load{{}, {}, {}, ZipfSampler(num_models, zipf_s),
                  std::vector<std::uint64_t>(num_models, 0)};
    for (std::size_t m = 0; m < num_models; ++m)
      load.networks.push_back(make_model(m, rng));
    load.inputs.assign(32, std::vector<float>(24, 0.0f));
    for (auto& x : load.inputs)
      for (float& v : x)
        v = rng.bernoulli(0.4) ? 0.0f
                               : static_cast<float>(rng.uniform(0.0, 1.0));

    // ---- closed loop (saturation) ----
    PhaseReport closed;
    {
      ServingFrontend frontend(options);
      load.handles.clear();
      for (const QuantizedNetwork& net : load.networks)
        load.handles.push_back(frontend.register_model(net, bench_arch()));
      closed = run_closed_loop(frontend, load, clients, requests, rng);
      frontend.shutdown();
    }
    const std::vector<std::uint64_t> closed_per_model = load.per_model;

    // ---- open loop (Poisson, fraction of saturation) ----
    const double offered_rate =
        std::max(1.0, open_load * closed.throughput());
    PhaseReport open;
    {
      ServingFrontend frontend(options);
      load.handles.clear();
      load.per_model.assign(num_models, 0);
      for (const QuantizedNetwork& net : load.networks)
        load.handles.push_back(frontend.register_model(net, bench_arch()));
      open = run_open_loop(frontend, load, offered_rate, requests, rng);
      frontend.shutdown();
    }

    // ---- overload & degraded (fresh frontends, seeded storms) ----
    const OverloadReport overload = run_overload_phase(load, requests);
    const DegradedReport degraded = run_degraded_phase(load);

    std::string json;
    {
      std::ostringstream os;
      os << "{\n  \"engine\": \"" << to_string(*engine)
         << "\",\n  \"clients\": " << clients
         << ",\n  \"requests\": " << requests
         << ",\n  \"models\": " << num_models
         << ",\n  \"zipf_s\": " << zipf_s
         << ",\n  \"workers\": " << options.num_workers
         << ",\n  \"max_batch\": " << options.max_batch << ",\n";
      print_phase(os, "closed_loop", closed);
      os << ",\n";
      print_phase(os, "open_loop", open);
      os << ",\n  \"open_loop_offered_rate_per_sec\": " << offered_rate
         << ",\n  \"closed_loop_model_requests\": [";
      for (std::size_t m = 0; m < closed_per_model.size(); ++m)
        os << (m ? ", " : "") << closed_per_model[m];
      os << "],\n  \"zoo_compiles\": " << closed.stats.zoo_compiles
         << ",\n  \"zoo_hits\": " << closed.stats.zoo_hits << ",\n";
      os << "  \"overload\": {\"requests\": " << overload.requests
         << ", \"wall_seconds\": " << overload.wall_seconds << ",\n    ";
      print_class(os, "high",
                  overload.classes[class_index(Priority::kHigh)]);
      os << ",\n    ";
      print_class(os, "normal",
                  overload.classes[class_index(Priority::kNormal)]);
      os << ",\n    ";
      print_class(os, "best_effort",
                  overload.classes[class_index(Priority::kBestEffort)]);
      os << ",\n    \"circuit_shed\": " << overload.stats.circuit_shed
         << ", \"breaker_opens\": " << overload.stats.breaker_opens
         << ", \"breaker_probes\": " << overload.stats.breaker_probes
         << ", \"breaker_closes\": " << overload.stats.breaker_closes
         << ", \"breaker_recovered\": "
         << (overload.breaker_recovered ? "true" : "false") << "},\n";
      os << "  \"degraded\": {\"requests\": " << degraded.requests
         << ", \"completed\": " << degraded.completed
         << ", \"degraded_completed\": " << degraded.degraded_completed
         << ", \"deadline_shed\": " << degraded.deadline_shed
         << ", \"bit_identical\": "
         << (degraded.bit_identical ? "true" : "false") << "}\n}\n";
      json = os.str();
    }
    std::cout << json;
    if (!json_out.empty()) {
      std::ofstream out(json_out);
      out << json;
      std::cout << "# written to " << json_out << "\n";
    }

    // Self-checks: accounting must balance and the percentile chain
    // must be ordered and finite — CI additionally gates on the JSON.
    for (const PhaseReport* r : {&closed, &open}) {
      if (r->ok + r->shed + r->failed != requests) {
        std::cerr << "error: lost requests (" << r->ok << " ok + " << r->shed
                  << " shed + " << r->failed << " failed != " << requests
                  << ")\n";
        return 1;
      }
      if (r->failed != 0) {
        // No faults are armed here: any engine error is a real bug.
        std::cerr << "error: " << r->failed
                  << " requests failed with engine errors\n";
        return 1;
      }
      const bool ordered = r->p50_us <= r->p95_us && r->p95_us <= r->p99_us;
      if (!ordered || !std::isfinite(r->p99_us) || r->p99_us <= 0.0) {
        std::cerr << "error: broken latency percentiles (p50 " << r->p50_us
                  << ", p95 " << r->p95_us << ", p99 " << r->p99_us << ")\n";
        return 1;
      }
    }
    if (closed.shed != 0) {
      // Admission was sized to hold every outstanding client.
      std::cerr << "error: closed loop shed " << closed.shed
                << " requests despite capacity >= clients\n";
      return 1;
    }
    const std::uint64_t head = closed_per_model.front();
    const std::uint64_t tail = closed_per_model.back();
    if (num_models >= 2 && zipf_s > 0.0 && head <= tail) {
      std::cerr << "error: zipf popularity not skewed (head " << head
                << " <= tail " << tail << ")\n";
      return 1;
    }

    // Overload-phase self-checks (CI gates on the JSON mirror of
    // these): client-side tallies must agree with the frontend's
    // per-class counters request for request, high priority must ride
    // out the storm shed- and failure-free while best-effort sheds,
    // and the failing model's breaker must have opened, shed, and
    // closed again.
    static const char* kClassNames[kNumPriorityClasses] = {
        "high", "normal", "best_effort"};
    for (std::size_t c = 0; c < kNumPriorityClasses; ++c) {
      const ClassTally& t = overload.classes[c];
      const ServingStats& s = overload.stats;
      if (t.submitted != s.submitted_by_class[c] ||
          t.completed != s.completed_by_class[c] ||
          t.shed != s.shed_by_class[c] || t.failed != s.failed_by_class[c]) {
        std::cerr << "error: overload class '" << kClassNames[c]
                  << "' client/frontend accounting mismatch\n";
        return 1;
      }
      if (t.submitted != t.completed + t.shed + t.failed) {
        std::cerr << "error: overload class '" << kClassNames[c]
                  << "' lost requests\n";
        return 1;
      }
    }
    const ClassTally& high =
        overload.classes[class_index(Priority::kHigh)];
    const ClassTally& best_effort =
        overload.classes[class_index(Priority::kBestEffort)];
    if (high.shed != 0 || high.failed != 0) {
      std::cerr << "error: overload shed/failed high-priority requests ("
                << high.shed << " shed, " << high.failed << " failed)\n";
      return 1;
    }
    if (best_effort.shed == 0) {
      std::cerr << "error: overload flood shed no best-effort requests\n";
      return 1;
    }
    if (overload.stats.breaker_opens == 0 ||
        overload.stats.circuit_shed == 0 ||
        overload.stats.breaker_closes == 0 || !overload.breaker_recovered) {
      std::cerr << "error: breaker did not open/shed/recover (opens "
                << overload.stats.breaker_opens << ", circuit_shed "
                << overload.stats.circuit_shed << ", closes "
                << overload.stats.breaker_closes << ", recovered "
                << overload.breaker_recovered << ")\n";
      return 1;
    }

    // Degraded-phase self-checks: every real request completed, at
    // least one rode the analytic fallback, exactly the three doomed
    // requests were deadline-shed, and every result matched the
    // direct AnalyticEngine run bit for bit.
    if (degraded.completed != degraded.requests ||
        degraded.degraded_completed == 0 || degraded.deadline_shed != 3 ||
        !degraded.bit_identical) {
      std::cerr << "error: degraded phase broke its contract ("
                << degraded.completed << "/" << degraded.requests
                << " completed, " << degraded.degraded_completed
                << " degraded, " << degraded.deadline_shed
                << " deadline shed, bit_identical "
                << degraded.bit_identical << ")\n";
      return 1;
    }
    return 0;
  } catch (const sparsenn::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
