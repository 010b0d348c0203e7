// The open-loop serving ladder, and serve_open: the async serving tier
// as its own workload. Three models of the 5-layer shape (hidden 256,
// 512 and 1000, UV on, paper arch) are registered with a default
// ServingFrontend (analytic engine, 2 workers, max_batch 8, max_wait
// 200 µs, breaker off). The timed window is the ladder at 1000, 2000
// and 4000 requests/s, each step followed by a burst of a closed-loop
// saturation step that keeps the frontend 64 requests deep and rates
// its completions.

#include <algorithm>
#include <array>
#include <cmath>
#include <future>

#include "harness.hpp"

namespace perfbench {
namespace {

constexpr std::array<const char*, 3> kStepNames = {"low", "mid", "high"};
constexpr double kDrainSeconds = 10.0;
/// serve.max_rps: the highest step whose p99 stays within this, with
/// no failures and at most this many requests in flight at its end
/// (two workers' full micro-batches).
constexpr double kSloP99Us = 10'000.0;
constexpr std::size_t kBacklogLimit = 16;
/// A step whose generator submitted later than this at p99 did not
/// offer its rate: it is invalid and cannot count towards max_rps.
constexpr double kMaxLagP99Us = 1'000.0;

struct Arrival {
  std::int64_t due_ns;  ///< offset from the step start
  std::uint32_t model;
  std::uint32_t input;
};

/// Draws requests: the model by zipf(s=1), model k with weight
/// 1/(k+1), and the input uniformly from the pool.
class RequestMix {
 public:
  RequestMix(std::size_t models, std::size_t inputs) : inputs_(inputs) {
    double total = 0.0;
    for (std::size_t k = 0; k < models; ++k)
      cum_.push_back(total += 1.0 / (k + 1.0));
  }

  Arrival draw(std::int64_t due_ns, Rng& rng) const {
    const double u = rng.uniform() * cum_.back();
    const auto model = static_cast<std::uint32_t>(
        std::upper_bound(cum_.begin(), cum_.end() - 1, u) - cum_.begin());
    return Arrival{due_ns, model,
                   static_cast<std::uint32_t>(rng.uniform_index(inputs_))};
  }

 private:
  std::vector<double> cum_;
  std::size_t inputs_;
};

std::vector<Arrival> poisson_schedule(double rate, double seconds,
                                      const RequestMix& mix, Rng& rng) {
  std::vector<Arrival> out;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    out.push_back(mix.draw(static_cast<std::int64_t>(t * 1e9), rng));
  }
  return out;
}

void run_step(const ServedModels& m, const Dataset& inputs,
              const std::vector<Arrival>& sched, double seconds,
              LadderStep& step, Ladder& ladder, Outcome& out,
              SpanLog* spans) {
  struct Inflight {
    std::future<ServeResult> future;
    std::size_t index;
  };
  struct Stamp {
    std::int64_t submit0 = 0, submit1 = 0;
  };
  const std::size_t n = sched.size();
  std::vector<Stamp> stamps(n);
  std::vector<double> latency(n, INFINITY);  // failed = infinitely late
  std::vector<Inflight> inflight;
  inflight.reserve(n);
  step.before = m.frontend->stats();

  const std::int64_t start = now_ns() + 1'000'000;
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t drain_deadline =
      end + static_cast<std::int64_t>(kDrainSeconds * 1e9);
  const std::uint32_t root =
      spans ? spans->add("ladder.step", start, end, SpanLog::kNoParent,
                         static_cast<std::uint64_t>(step.rate))
            : SpanLog::kNoParent;
  bool backlog_taken = false;
  std::size_t next = 0;
  while (true) {
    std::int64_t now = now_ns();
    while (next < n && start + sched[next].due_ns <= now) {
      const Arrival& a = sched[next];
      Stamp& s = stamps[next];
      s.submit0 = now_ns();
      std::future<ServeResult> f =
          m.frontend->submit(m.ids[a.model], inputs.image(a.input),
                             m.use_predictor);
      s.submit1 = now = now_ns();
      inflight.push_back(Inflight{std::move(f), next});
      ++next;
    }
    for (std::size_t i = 0; i < inflight.size();) {
      if (inflight[i].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const std::int64_t ready = now_ns();
      const std::size_t k = inflight[i].index;
      const ServeResult r = inflight[i].future.get();
      inflight[i] = std::move(inflight.back());
      inflight.pop_back();
      const Stamp& s = stamps[k];
      const Arrival& a = sched[k];
      const std::int64_t due = start + a.due_ns;
      if (r.status != ServeStatus::kOk ||
          r.result != (*m.expected)[a.model][a.input]) {
        out.fail(std::string("served request failed or differs from its "
                             "expected result (") +
                 to_string(r.status) + ")");
        continue;
      }
      ++step.ok;
      latency[k] = us_between(due, ready);
      ladder.served.add(r.result, *m.nets[a.model]);
      step.lag_us.push_back(us_between(due, s.submit0));
      ladder.submit_us.push_back(us_between(s.submit0, s.submit1));
      ladder.queue_us.push_back(r.queue_us);
      ladder.exec_us.push_back(r.exec_us);
      ladder.resolve_us.push_back(latency[k] - us_between(due, s.submit1) -
                                  r.total_us);
      ladder.explained_us += us_between(due, s.submit0) + r.total_us;
      ladder.latency_sum_us += latency[k];
      if (spans) {
        const std::uint32_t req =
            spans->add("serve.request", due, ready, root, k);
        spans->add("serve.submit", s.submit0, s.submit1, req, k);
        spans->add("serve.resolve", s.submit1, ready, req, k);
      }
    }
    if (next == n) {
      if (!backlog_taken) {
        step.backlog_end = inflight.size();
        backlog_taken = true;
      }
      if (inflight.empty()) break;
      if (now > drain_deadline) {
        out.fail(std::to_string(inflight.size()) + " requests never resolved",
                 inflight.size());
        break;
      }
    }
  }
  step.after = m.frontend->stats();
  step.attempted = n;
  // Latency percentiles per one-second sub-window of due times (at
  // 1000 requests/s, ten samples lie beyond each p99).
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds));
  std::vector<std::vector<double>> lat(windows);
  for (std::size_t k = 0; k < n; ++k)
    lat[std::min(windows - 1,
                 static_cast<std::size_t>(sched[k].due_ns / 1'000'000'000))]
        .push_back(latency[k]);
  for (const std::vector<double>& w : lat) {
    if (w.empty()) continue;
    step.win_p50_us.push_back(percentile(w, 50));
    step.win_p99_us.push_back(percentile(w, 99));
  }
}

/// The closed-loop saturation step: the frontend kept `depth`
/// requests deep, for as fast as it completes them.
struct Saturation {
  std::size_t block = 0;         ///< completions per timed block
  std::vector<double> block_ms;  ///< wall time of each full block
  std::size_t attempted = 0;

  /// Completions/s at the median block time. Unlike the cycle
  /// workloads' calls, blocks do not flip between two modes, and their
  /// upper percentiles follow the host's steal far more than the median.
  double rate() const {
    return block_ms.empty() ? 0.0
                            : static_cast<double>(block) * 1e3 /
                                  median(block_ms);
  }
};

/// Keeps `depth` requests in flight for `seconds`, drawn from the same
/// zipf mix as the ladder, then drains. The generator waits for the
/// oldest request, collects every ready one and tops the depth up
/// again. It blocks rather than polls, so that it does not take a core
/// from the frontend's workers. Every result must be OK and equal to
/// its expected answer.
void run_saturation(const ServedModels& m, const Dataset& inputs,
                    std::size_t depth, double seconds, Rng& rng,
                    Saturation& sat, Outcome& out, SpanLog* spans) {
  struct Inflight {
    std::future<ServeResult> future;
    Arrival request;
    std::size_t index;
    std::int64_t submit_ns;
  };
  const RequestMix mix(m.ids.size(), inputs.size());
  std::vector<Inflight> inflight;
  inflight.reserve(depth);
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t drain_deadline =
      end + static_cast<std::int64_t>(kDrainSeconds * 1e9);
  const std::uint32_t root =
      spans ? spans->add("serve.saturation", start, end, SpanLog::kNoParent,
                         depth)
            : SpanLog::kNoParent;
  std::int64_t block_start = start;
  std::size_t in_block = 0;
  while (true) {
    const std::int64_t now = now_ns();
    while (now < end && inflight.size() < depth) {
      const Arrival a = mix.draw(0, rng);
      const std::int64_t t0 = now_ns();
      inflight.push_back(Inflight{
          m.frontend->submit(m.ids[a.model], inputs.image(a.input),
                             m.use_predictor),
          a, sat.attempted++, t0});
    }
    if (inflight.empty()) break;
    const auto oldest = std::min_element(
        inflight.begin(), inflight.end(),
        [](const Inflight& a, const Inflight& b) { return a.index < b.index; });
    if (oldest->future.wait_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(drain_deadline))) !=
        std::future_status::ready) {
      out.fail(std::to_string(inflight.size()) + " requests never resolved",
               inflight.size());
      break;
    }
    for (std::size_t i = 0; i < inflight.size();) {
      if (inflight[i].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const std::int64_t ready = now_ns();
      const ServeResult r = inflight[i].future.get();
      const Arrival a = inflight[i].request;
      if (spans)
        spans->add("serve.request", inflight[i].submit_ns, ready, root,
                   inflight[i].index);
      inflight[i] = std::move(inflight.back());
      inflight.pop_back();
      if (r.status != ServeStatus::kOk ||
          r.result != (*m.expected)[a.model][a.input]) {
        out.fail(std::string("saturation request failed or differs from "
                             "its expected result (") +
                 to_string(r.status) + ")");
        continue;
      }
      if (ready <= end && ++in_block == sat.block) {
        sat.block_ms.push_back(ms_between(block_start, ready));
        block_start = ready;
        in_block = 0;
      }
    }
  }
}

}  // namespace

Expected make_expected(const std::vector<const CompiledNetwork*>& images,
                       const Dataset& inputs, Outcome& out) {
  Expected expected(images.size());
  for (std::size_t k = 0; k < images.size(); ++k) {
    const CompiledNetwork& c = *images[k];
    const std::unique_ptr<ExecutionEngine> analytic =
        make_engine(EngineKind::kAnalytic, c.params());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      expected[k].push_back(
          analytic->run(c, inputs.image(i), ValidationMode::kOff));
      if (expected[k][i].output !=
          c.network().infer_raw(inputs.image(i), c.use_predictor()))
        out.fail("analytic output differs from infer_raw");
    }
  }
  return expected;
}

void run_ladder(const ServedModels& models, const Dataset& inputs,
                const LadderRates& rates, double step_seconds, Rng& rng,
                Ladder& ladder, Outcome& out, SpanLog* spans,
                const std::function<void()>& after_step) {
  for (double rate : rates) {
    LadderStep step;
    step.rate = rate;
    run_step(models, inputs,
             poisson_schedule(rate, step_seconds,
                              RequestMix(models.ids.size(), inputs.size()),
                              rng),
             step_seconds, step, ladder, out, spans);
    ladder.steps.push_back(std::move(step));
    if (after_step) after_step();
  }
}

std::size_t Ladder::attempted() const {
  std::size_t n = 0;
  for (const LadderStep& s : steps) n += s.attempted;
  return n;
}

void Ladder::emit(Metrics& m) const {
  double max_rps = 0.0;
  double invalid_steps = 0.0;
  std::uint64_t submitted = 0, shed = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const LadderStep& s = steps[i];
    const std::string p = std::string("serve.") + kStepNames[i] + ".";
    const auto delta = [&](std::uint64_t ServingStats::*f) {
      return static_cast<double>(s.after.*f - s.before.*f);
    };
    const double batches = delta(&ServingStats::batches);
    const double p99 = median(s.win_p99_us);
    m.add(p + "p50_us", median(s.win_p50_us), "us");
    m.add(p + "p99_us", p99, "us");
    m.add(p + "batch_size_mean",
          batches ? (delta(&ServingStats::completed) +
                     delta(&ServingStats::failed)) / batches
                  : 0.0,
          "requests");
    m.add(p + "timeout_close_frac",
          batches ? delta(&ServingStats::timeout_closes) / batches : 0.0,
          "ratio");
    const std::string l = std::string("load.") + kStepNames[i] + ".";
    const double lag_p99 = percentile(s.lag_us, 99);
    m.add(l + "lag_us_p99", lag_p99, "us");
    m.add(l + "backlog_end", static_cast<double>(s.backlog_end), "requests");
    submitted += s.after.submitted - s.before.submitted;
    shed += s.after.shed - s.before.shed;
    if (lag_p99 > kMaxLagP99Us) {
      invalid_steps += 1.0;
      continue;
    }
    if (s.ok == s.attempted && p99 <= kSloP99Us &&
        s.backlog_end <= kBacklogLimit)
      max_rps = std::max(max_rps, s.rate);
  }
  m.add("serve.max_rps", max_rps, "1/s");
  m.add("load.invalid_steps", invalid_steps, "count");
  m.add("serve.submit_us_p50", percentile(submit_us, 50), "us");
  m.add("serve.submit_us_p99", percentile(submit_us, 99), "us");
  m.add("serve.queue_us_p50", percentile(queue_us, 50), "us");
  m.add("serve.queue_us_p99", percentile(queue_us, 99), "us");
  m.add("serve.exec_us_p50", percentile(exec_us, 50), "us");
  m.add("serve.exec_us_p99", percentile(exec_us, 99), "us");
  m.add("serve.resolve_us_p99", percentile(resolve_us, 99), "us");
  m.add("serve.shed_ratio",
        submitted ? static_cast<double>(shed) / static_cast<double>(submitted)
                  : 0.0,
        "ratio");
  m.add("serve.register_ms", median(register_ms), "ms");
  const ServingStats& last = steps.back().after;
  const double hits = static_cast<double>(last.zoo_hits);
  const double compiles = static_cast<double>(last.zoo_compiles);
  m.add("core.zoo.hit_ratio",
        hits + compiles > 0 ? hits / (hits + compiles) : 0.0, "ratio");
  m.add("core.zoo.compiles", compiles, "count");
}

namespace {

struct ServeSize {
  std::array<std::size_t, 3> hidden;  ///< zipf rank order
  std::size_t pool;                   ///< inputs shared by the models
  std::size_t chunk;                  ///< probe inputs per BatchRunner call
  std::size_t per_cycle;              ///< probe inputs re-run per-cycle
  std::size_t sat_block;              ///< completions per timed block
};

ServeSize serve_size(bool tiny) {
  return tiny ? ServeSize{{16, 24, 32}, 8, 4, 2, 32}
              : ServeSize{{256, 512, 1000}, 64, 8, 1, 256};
}

// setup_s is the median of five set-ups: two before the timed window
// (the last is kept) and three after the probes, as for the cycle
// workloads.
constexpr int kSetupsBefore = 2;
constexpr int kSetupsAfter = 3;

// The ladder. At 1000 requests/s batches of about one request close
// on the max_wait timeout; at 4000 larger batches form. The high step
// stays well under saturation: under 13–20% steal, 6000 requests/s
// overflowed the 256-request lane bound and shed.
constexpr LadderRates kRates = {1000.0, 2000.0, 4000.0};
// The window's share of each ladder step. The saturation step takes
// the rest, as three bursts, one after each ladder step, so that it
// samples more than one of the shared host's quiet and contended
// spells.
constexpr double kStepShare = 0.2;
// Requests kept in flight by the saturation step: four full
// micro-batches per worker, well under the 256-request lane bound.
constexpr std::size_t kSatDepth = 64;

struct Models {
  std::vector<std::unique_ptr<QuantizedNetwork>> nets;
  std::unique_ptr<ServingFrontend> frontend;
  std::vector<std::size_t> ids;
};

}  // namespace

Outcome run_serve_workload(const Options& o) {
  const ServeSize size = serve_size(o.tiny);
  const ArchParams arch = ArchParams::paper();
  Outcome out;
  Rng input_rng(o.seed ^ 0x9e3779b97f4a7c15ull);
  const Dataset pool = make_digits(size.pool, input_rng);

  // Set-up: build and quantise the three networks, start the frontend,
  // register them, and warm up with one request each (the zoo
  // compiles every image on its first request).
  SpanLog spans(o.trace ? 1u << 20 : 0);
  SpanLog* trace = o.trace ? &spans : nullptr;
  Ladder ladder;
  std::vector<double> setup_s;
  const auto build_networks = [&] {
    Rng rng(o.seed);
    std::vector<std::unique_ptr<QuantizedNetwork>> nets;
    for (std::size_t h : size.hidden) nets.push_back(build_network(h, rng));
    return nets;
  };

  // The expected answer for every (model, input), from networks and
  // images of the harness's own, freed before the set-ups so that they
  // stay out of peak_rss_mb.
  Expected expected;
  {
    const auto nets = build_networks();
    std::vector<std::unique_ptr<CompiledNetwork>> images;
    for (const auto& net : nets)
      images.push_back(std::make_unique<CompiledNetwork>(*net, arch, true));
    std::vector<const CompiledNetwork*> views;
    for (const auto& c : images) views.push_back(c.get());
    expected = make_expected(views, pool, out);
  }

  Models models;
  const auto set_up = [&](int rep) {
    models = Models{};
    release_free_heap();
    const std::int64_t t0 = now_ns();
    const std::uint32_t root =
        trace ? spans.add("setup", t0, t0, SpanLog::kNoParent, rep)
              : SpanLog::kNoParent;
    models.nets = build_networks();
    models.frontend = std::make_unique<ServingFrontend>(ServingOptions{});
    for (const auto& net : models.nets) {
      const std::int64_t r0 = now_ns();
      models.ids.push_back(models.frontend->register_model(*net, arch));
      const std::int64_t r1 = now_ns();
      ladder.register_ms.push_back(ms_between(r0, r1));
      if (trace) spans.add("register", r0, r1, root, models.ids.back());
    }
    for (std::size_t id : models.ids) {
      const ServeResult r =
          models.frontend->submit(id, pool.image(0), true).get();
      if (r.status != ServeStatus::kOk) out.fail("warm-up request failed");
    }
    const std::int64_t t1 = now_ns();
    setup_s.push_back(ms_between(t0, t1) / 1e3);
    if (trace) spans.close(root, t1);
  };
  for (int rep = 0; rep < kSetupsBefore; ++rep) set_up(rep);

  ServedModels served{models.frontend.get(), models.ids, {}, &expected, true};
  for (const auto& net : models.nets) served.nets.push_back(net.get());

  // The timed window: the ladder, with a saturation burst after each
  // step. In the traced run every request is a span.
  // The saturation step draws from its own stream: how many requests
  // it makes depends on the host, and the ladder's schedule must not.
  Rng sched_rng(o.seed ^ 0x5851f42d4c957f2dull);
  Rng sat_rng(o.seed ^ 0x2545f4914f6cdd1dull);
  Saturation sat;
  sat.block = size.sat_block;
  const CpuTimes cpu0 = read_cpu_times();
  const double burst_s =
      o.seconds * (1.0 - kStepShare * kRates.size()) / kRates.size();
  run_ladder(served, pool, kRates, o.seconds * kStepShare, sched_rng, ladder,
             out, trace, [&] {
               run_saturation(served, pool, kSatDepth, burst_s, sat_rng, sat,
                              out, trace);
             });
  out.steal_frac = steal_fraction(cpu0, read_cpu_times());
  out.attempted = ladder.attempted() + sat.attempted;
  const double rss_mb = peak_rss_mb();
  if (sat.block_ms.empty()) out.fail("the saturation step completed no block");

  // The engine probe over every (model, input), outside the window.
  EngineProbe probe;
  std::vector<std::unique_ptr<CompiledNetwork>> compiled;
  for (const auto& net : models.nets) {
    const std::int64_t c0 = now_ns();
    compiled.push_back(std::make_unique<CompiledNetwork>(*net, arch, true));
    probe.compile_ms.push_back(ms_between(c0, now_ns()));
  }
  const BatchRunner runner(arch, batch_options(true));
  const std::uint32_t probe_root =
      trace ? spans.add("probe", now_ns(), now_ns(), SpanLog::kNoParent, 0)
            : SpanLog::kNoParent;
  TraceLog phases;
  for (const auto& c : compiled)
    probe_engines(runner, *c, pool, size.chunk, size.per_cycle, probe, out,
                  trace, probe_root, trace ? &phases : nullptr);
  if (trace) spans.close(probe_root, now_ns());

  compiled.clear();
  for (int rep = kSetupsBefore; rep < kSetupsBefore + kSetupsAfter; ++rep)
    set_up(rep);

  if (!o.trace) {
    Metrics& m = out.metrics;
    m.add("setup_s", median(setup_s), "s");
    m.add("inf_per_s", sat.rate(), "1/s");
    m.add("sim_cycles_per_inf",
          static_cast<double>(ladder.served.cycles) /
              static_cast<double>(
                  std::max<std::size_t>(ladder.served.inferences, 1)),
          "cycles");
    m.add("sim_energy_uj_per_inf", ladder.served.energy_uj_per_inf(arch),
          "uJ");
    m.add("analytic_cycle_err_pct", mean(probe.err_pct), "%");
    m.add("peak_rss_mb", rss_mb, "MB");
  } else {
    // The share of client latency that the generator's lag and the
    // frontend's own enqueue-to-ready time (ServeResult::total_us)
    // account for; the rest is submit() before its enqueue and future
    // resolution.
    const double coverage_pct =
        ladder.latency_sum_us > 0
            ? 100.0 * ladder.explained_us / ladder.latency_sum_us
            : 0.0;
    emit_layer_metrics(out, probe, ladder.served, arch, ladder, coverage_pct);
    spans.write(o.trace_out + ".json");
    phases.save_csv(o.trace_out + ".phases.csv");
  }
  return out;
}

}  // namespace perfbench
