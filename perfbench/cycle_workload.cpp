// cycle_uv_on / cycle_uv_off: the paper's design point on the
// cycle-accurate engine. One caller runs a closed loop of
// BatchRunner::run calls (1 worker thread, keep_results=false, default
// validation and default SimOptions: event stepping, sim_threads=1)
// over a seeded pool of digit inputs, a fixed chunk of inputs per
// call, for the requested number of seconds.

#include <algorithm>

#include "harness.hpp"
#include "sim/batch_runner.hpp"

namespace perfbench {
namespace {

struct CycleSize {
  std::size_t hidden;     ///< width of the three hidden layers
  std::size_t pool;       ///< inputs in one pass of the loop
  std::size_t chunk;      ///< inputs per BatchRunner::run call
  std::size_t per_cycle;  ///< inputs re-run under kPerCycle stepping
  double ladder_step_s;   ///< serving ladder step length
};

CycleSize cycle_size(bool tiny) {
  return tiny ? CycleSize{32, 16, 4, 4, 0.2}
              : CycleSize{1000, 64, 8, 2, 0.5};
}

// setup_s is the median of five set-ups: two before the timed window
// (the last is kept) and three after the probes. The host's quiet and
// contended spells last seconds, so set-ups taken back to back would
// all land in one of them.
constexpr int kSetupsBefore = 2;
constexpr int kSetupsAfter = 3;

// The serving probe's ladder: one paper-scale model takes every
// request, so the rates stay far below its two workers' capacity
// (6000 requests/s overloaded it, UV off, under 13–20% steal).
constexpr LadderRates kProbeRates = {250.0, 500.0, 1000.0};

struct Model {
  std::unique_ptr<QuantizedNetwork> net;
  std::unique_ptr<CompiledNetwork> compiled;
};

struct Window {
  std::vector<double> call_ms;  ///< each BatchRunner::run
  std::size_t inferences = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// The timed closed loop. Stops at the first pass boundary after
/// `seconds`; adds the first pass's simulated cycles to `*first_cycles`
/// when given.
Window run_window(const BatchRunner& runner, const CompiledNetwork& compiled,
                  const std::vector<Dataset>& chunks, double seconds,
                  std::uint64_t* first_cycles, SpanLog* spans) {
  Window w;
  w.start_ns = now_ns();
  const std::int64_t deadline =
      w.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  const std::uint32_t root =
      spans ? spans->add("window", w.start_ns, w.start_ns,
                         SpanLog::kNoParent, 0)
            : SpanLog::kNoParent;
  for (std::size_t k = 0;; ++k) {
    const std::size_t c = k % chunks.size();
    const std::int64_t t0 = now_ns();
    const BatchResult r = runner.run(compiled, chunks[c]);
    const std::int64_t t1 = now_ns();
    if (spans) spans->add("batch.run", t0, t1, root, k);
    w.call_ms.push_back(ms_between(t0, t1));
    w.inferences += r.num_inferences;
    if (first_cycles && k < chunks.size()) *first_cycles += r.total_cycles;
    if (c + 1 == chunks.size() && t1 >= deadline) break;
  }
  w.end_ns = now_ns();
  if (spans) spans->close(root, w.end_ns);
  return w;
}

}  // namespace

Outcome run_cycle_workload(const Options& o, bool uv) {
  const CycleSize size = cycle_size(o.tiny);
  const ArchParams arch = ArchParams::paper();
  Outcome out;

  Rng input_rng(o.seed ^ 0x9e3779b97f4a7c15ull);
  const Dataset pool = make_digits(size.pool, input_rng);
  std::vector<Dataset> chunks;
  for (std::size_t b = 0; b < size.pool; b += size.chunk)
    chunks.push_back(slice(pool, b, std::min(size.pool, b + size.chunk)));

  const BatchRunner runner(arch, batch_options(uv));

  SpanLog spans(o.trace ? 1u << 16 : 0);
  SpanLog* trace = o.trace ? &spans : nullptr;

  // Set-up: network build, quantisation, compile and one warm-up call.
  EngineProbe probe;
  std::vector<double> setup_s;
  Model model;
  const auto set_up = [&](int rep) {
    model = Model{};
    release_free_heap();
    const std::int64_t t0 = now_ns();
    Rng rng(o.seed);
    model.net = build_network(size.hidden, rng);
    const std::int64_t c0 = now_ns();
    model.compiled = std::make_unique<CompiledNetwork>(*model.net, arch, uv);
    const std::int64_t c1 = now_ns();
    probe.compile_ms.push_back(ms_between(c0, c1));
    runner.run(*model.compiled, chunks.front());
    const std::int64_t t1 = now_ns();
    setup_s.push_back(ms_between(t0, t1) / 1e3);
    if (trace) {
      const std::uint32_t root =
          spans.add("setup", t0, t1, SpanLog::kNoParent, rep);
      spans.add("compile", c0, c1, root, rep);
    }
  };
  for (int rep = 0; rep < kSetupsBefore; ++rep) set_up(rep);

  // The timed window; in the traced run each call is a span.
  std::uint64_t first_cycles = 0;
  const CpuTimes cpu0 = read_cpu_times();
  const Window w = run_window(runner, *model.compiled, chunks, o.seconds,
                              &first_cycles, trace);
  out.steal_frac = steal_fraction(cpu0, read_cpu_times());
  out.attempted = w.inferences;
  const double rss_mb = peak_rss_mb();

  // Outside the timed window: replay, golden, per-cycle and analytic
  // checks.
  TraceLog phases;
  const std::uint32_t probe_root =
      trace ? spans.add("probe", now_ns(), now_ns(), SpanLog::kNoParent, 0)
            : SpanLog::kNoParent;
  probe_engines(runner, *model.compiled, pool, size.chunk, size.per_cycle,
                probe, out, trace, probe_root, trace ? &phases : nullptr);
  if (trace) spans.close(probe_root, now_ns());
  if (first_cycles != probe.totals.cycles)
    out.fail("the timed window's simulated cycles differ from the replay's");

  // The serving tier over the same network and inputs: a short
  // open-loop ladder, so that the serving layers are measured here too.
  Ladder serve;
  {
    ServingFrontend frontend{ServingOptions{}};
    const std::int64_t t0 = now_ns();
    const std::size_t id = frontend.register_model(*model.net, arch);
    serve.register_ms.push_back(ms_between(t0, now_ns()));
    if (frontend.submit(id, pool.image(0), uv).get().status !=
        ServeStatus::kOk)
      out.fail("warm-up request failed");
    const Expected expected = make_expected({model.compiled.get()}, pool, out);
    const ServedModels served{&frontend, {id}, {model.net.get()}, &expected,
                              uv};
    Rng sched_rng(o.seed ^ 0x5851f42d4c957f2dull);
    run_ladder(served, pool, kProbeRates, size.ladder_step_s, sched_rng, serve,
               out, trace);
  }

  for (int rep = kSetupsBefore; rep < kSetupsBefore + kSetupsAfter; ++rep)
    set_up(rep);

  const double n = static_cast<double>(size.pool);
  if (!o.trace) {
    Metrics& m = out.metrics;
    m.add("setup_s", median(setup_s), "s");
    // The rate at the 95th-percentile call time: a shared host
    // alternates between quiet and contended spells lasting seconds, so
    // the median call flips between the two modes from run to run while
    // the upper percentiles stay put.
    m.add("inf_per_s",
          static_cast<double>(size.chunk) * 1e3 / percentile(w.call_ms, 95),
          "1/s");
    m.add("sim_cycles_per_inf", static_cast<double>(probe.totals.cycles) / n,
          "cycles");
    m.add("sim_energy_uj_per_inf", probe.totals.energy_uj_per_inf(arch),
          "uJ");
    m.add("analytic_cycle_err_pct", mean(probe.err_pct), "%");
    m.add("peak_rss_mb", rss_mb, "MB");
  } else {
    // The share of the window's wall time spent in ExecutionEngine::run:
    // the calls' share of the window times the engine's share of a call
    // (from the probe's one-input calls, each paired with its replay).
    // The rest is BatchRunner's self time and the loop's own.
    double in_calls_ms = 0.0;
    for (double ms : w.call_ms) in_calls_ms += ms;
    const double coverage_pct = 100.0 * in_calls_ms /
                                ms_between(w.start_ns, w.end_ns) *
                                probe.engine_share();
    emit_layer_metrics(out, probe, probe.totals, arch, serve, coverage_pct);
    spans.write(o.trace_out + ".json");
    phases.save_csv(o.trace_out + ".phases.csv");
  }
  return out;
}

}  // namespace perfbench
