#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <stdexcept>
#include <thread>

// The global operator new/delete hook: exactly one translation unit
// of the binary includes it.
#include "common/alloc_counter.hpp"
#include "data/digits.hpp"
#include "nn/network.hpp"
#include "nn/predictor.hpp"
#include "nn/trainer.hpp"
#include "sim/accelerator.hpp"
#include "sim/result_arena.hpp"

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ms_between(std::int64_t a, std::int64_t b) noexcept {
  return static_cast<double>(b - a) / 1e6;
}

double us_between(std::int64_t a, std::int64_t b) noexcept {
  return static_cast<double>(b - a) / 1e3;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

void Metrics::add(std::string name, double value, std::string unit) {
  entries_.push_back(Entry{std::move(name), value, std::move(unit)});
}

std::string Metrics::json() const {
  std::string s = "{";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(e.value) ? e.value : -1.0);
    s += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + e.unit + "\"}";
  }
  return s + "}";
}

void Outcome::fail(const std::string& what, std::uint64_t count) {
  if (failed < 10) std::cerr << "perfbench: check failed: " << what << "\n";
  failed += count;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace to " + path);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "") << "{\"name\": \"" << s.name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
       << static_cast<double>(s.start_ns - t0) / 1e3
       << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ", \"args\": {\"span\": " << i << ", \"parent\": "
       << (s.parent == SpanLog::kNoParent ? -1
                                          : static_cast<std::int64_t>(s.parent))
       << ", \"id\": " << s.id << "}}";
  }
  os << "\n]}\n";
}

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTimes t;
  if (!(in >> cpu) || cpu != "cpu") return t;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_fraction(const CpuTimes& before, const CpuTimes& after) {
  const std::uint64_t total = after.total - before.total;
  return total ? static_cast<double>(after.steal - before.steal) /
                     static_cast<double>(total)
               : 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void release_free_heap() { malloc_trim(0); }

Dataset make_digits(std::size_t n, Rng& rng) {
  Dataset d;
  d.inputs = Matrix(n, kImagePixels);
  d.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    d.labels[i] = static_cast<int>(i % kNumClasses);
    const Vector x = make_digit(d.labels[i], rng);
    std::copy(x.begin(), x.end(), d.inputs.row(i).begin());
  }
  return d;
}

Dataset slice(const Dataset& data, std::size_t begin, std::size_t end) {
  Dataset d;
  d.inputs = Matrix(end - begin, data.inputs.cols());
  for (std::size_t i = begin; i < end; ++i) {
    const auto row = data.image(i);
    std::copy(row.begin(), row.end(), d.inputs.row(i - begin).begin());
    d.labels.push_back(data.labels[i]);
  }
  return d;
}

std::unique_ptr<QuantizedNetwork> build_network(std::size_t hidden,
                                                Rng& rng) {
  Network net{five_layer_topology(hidden), rng};
  for (std::size_t l = 0; l < net.num_hidden_layers(); ++l) {
    const auto& sizes = net.layer_sizes();
    net.set_predictor(l, Predictor::random(sizes[l + 1], sizes[l], 15, rng));
  }
  const Dataset calibration = make_digits(8, rng);
  return std::make_unique<QuantizedNetwork>(net, calibration.inputs);
}

void ModelTotals::add(const SimResult& r, const QuantizedNetwork& net) {
  const std::size_t n = r.layers.size();
  if (v_cycles.size() < n) {
    for (auto* v : {&v_cycles, &u_cycles, &w_cycles, &nnz, &active})
      v->resize(n);
  }
  auto seen = std::find_if(per_net.begin(), per_net.end(),
                           [&](const NetCount& e) { return e.net == &net; });
  if (seen == per_net.end()) {
    NetCount c{&net, 0, {}, {}};
    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      c.in_width.push_back(net.layer(l).w.cols);
      c.rows.push_back(net.layer(l).w.rows);
    }
    per_net.push_back(std::move(c));
    seen = per_net.end() - 1;
  }
  ++seen->inferences;
  ++inferences;
  cycles += r.total_cycles;
  for (std::size_t l = 0; l < n; ++l) {
    const LayerSimResult& L = r.layers[l];
    v_cycles[l] += L.v_cycles;
    u_cycles[l] += L.u_cycles;
    w_cycles[l] += L.w_cycles;
    nnz[l] += L.nnz_inputs;
    active[l] += L.active_rows;
    events += L.events;
    w_noc.flit_hops += L.w_noc.flit_hops;
    w_noc.credit_stalls += L.w_noc.credit_stalls;
    w_noc.arbitration_conflicts += L.w_noc.arbitration_conflicts;
    w_noc.mean_leaf_occupancy += L.w_noc.mean_leaf_occupancy;
    v_noc.flit_hops += L.v_noc.flit_hops;
    v_noc.credit_stalls += L.v_noc.credit_stalls;
    ++noc_layers;
  }
}

double ModelTotals::energy_uj_per_inf(const ArchParams& arch) const {
  if (inferences == 0) return 0.0;
  return EnergyModel(arch).report(events).total_uj /
         static_cast<double>(inferences);
}

void ModelTotals::emit(Metrics& m, const ArchParams& arch) const {
  const double n = std::max<double>(1.0, static_cast<double>(inferences));
  const auto per = [n](std::uint64_t v) { return static_cast<double>(v) / n; };
  const auto frac = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  // Inputs and rows of layer l over every inference, from the widths
  // of the networks the inferences ran on.
  const auto width = [&](std::size_t l, bool rows) {
    std::uint64_t total = 0;
    for (const NetCount& c : per_net) {
      if (l < c.rows.size())
        total += c.inferences * (rows ? c.rows[l] : c.in_width[l]);
    }
    return total;
  };
  // The paper network has four weight layers; the last has no
  // predictor, so it has no active-row ratio.
  for (std::size_t l = 0; l < 4; ++l) {
    const std::string p = "model.L" + std::to_string(l + 1) + ".";
    const bool have = l < v_cycles.size();
    m.add(p + "v_cycles", have ? per(v_cycles[l]) : 0.0, "cycles");
    m.add(p + "u_cycles", have ? per(u_cycles[l]) : 0.0, "cycles");
    m.add(p + "w_cycles", have ? per(w_cycles[l]) : 0.0, "cycles");
    m.add(p + "input_nnz_frac", have ? frac(nnz[l], width(l, false)) : 0.0,
          "ratio");
    if (l < 3)
      m.add(p + "active_row_frac",
            have ? frac(active[l], width(l, true)) : 0.0, "ratio");
  }
  m.add("noc.w.flit_hops", per(w_noc.flit_hops), "count");
  m.add("noc.w.credit_stalls", per(w_noc.credit_stalls), "count");
  m.add("noc.w.arbitration_conflicts", per(w_noc.arbitration_conflicts),
        "count");
  m.add("noc.w.mean_leaf_occupancy",
        noc_layers ? w_noc.mean_leaf_occupancy /
                         static_cast<double>(noc_layers)
                   : 0.0,
        "flits");
  m.add("noc.v.flit_hops", per(v_noc.flit_hops), "count");
  m.add("noc.v.credit_stalls", per(v_noc.credit_stalls), "count");
  m.add("pe.macs", per(events.macs), "count");
  m.add("pe.w_mem_reads", per(events.w_mem_reads), "count");
  m.add("pe.uv_mem_reads", per(events.u_mem_reads + events.v_mem_reads),
        "count");
  m.add("pe.queue_ops", per(events.queue_ops), "count");
  m.add("pe.lnzd_scans", per(events.lnzd_scans), "count");
  m.add("pe.utilization",
        frac(events.pe_active_cycles, events.cycles * arch.num_pes),
        "ratio");
  const EnergyReport e = EnergyModel(arch).report(events);
  m.add("energy.w_mem_uj", e.w_mem_uj / n, "uJ");
  m.add("energy.uv_mem_uj", e.uv_mem_uj / n, "uJ");
  m.add("energy.datapath_uj", e.datapath_uj / n, "uJ");
  m.add("energy.noc_uj", e.noc_uj / n, "uJ");
  m.add("energy.clock_uj", e.clock_uj / n, "uJ");
  m.add("energy.leakage_uj", e.leakage_uj / n, "uJ");
  m.add("energy.avg_power_mw", e.avg_power_mw, "mW");
}

BatchOptions batch_options(bool uv) {
  BatchOptions o;
  o.num_threads = 1;
  o.use_predictor = uv;
  o.keep_results = false;
  return o;
}

namespace {

/// Prediction equivalence across backends: everything except the
/// analytic engine's estimated cycle, event and NoC numbers.
bool predictions_match(const SimResult& a, const SimResult& b) {
  if (a.output != b.output || a.layers.size() != b.layers.size())
    return false;
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    if (a.layers[l].activations != b.layers[l].activations ||
        a.layers[l].nnz_inputs != b.layers[l].nnz_inputs ||
        a.layers[l].active_rows != b.layers[l].active_rows)
      return false;
  }
  return true;
}

/// The sim.* metrics: host time of each engine entry point.
void emit_sim_metrics(Metrics& m, const EngineProbe& p) {
  const double cycle_ns = std::accumulate(p.cycle_us.begin(),
                                          p.cycle_us.end(), 0.0) * 1e3;
  const double n = std::max<double>(1.0, static_cast<double>(p.checked));
  m.add("sim.compile_ms", median(p.compile_ms), "ms");
  m.add("sim.batch.run_ms", median(p.batch_ms), "ms");
  m.add("sim.batch.self_ms", median(p.batch_self_ms), "ms");
  m.add("sim.cycle.run_us_p50", percentile(p.cycle_us, 50), "us");
  m.add("sim.cycle.run_us_p99", percentile(p.cycle_us, 99), "us");
  m.add("sim.cycle.ns_per_sim_cycle",
        p.timed_cycles ? cycle_ns / static_cast<double>(p.timed_cycles)
                       : 0.0,
        "ns");
  m.add("sim.event.events_per_inf",
        static_cast<double>(p.events_executed) / n, "count");
  m.add("sim.event.event_cycle_ratio",
        p.cycles_ticked ? static_cast<double>(p.events_executed) /
                              static_cast<double>(p.cycles_ticked)
                        : 0.0,
        "ratio");
  m.add("sim.cycle.allocs_per_inf",
        p.arena_inferences ? static_cast<double>(p.arena_allocs) /
                                 static_cast<double>(p.arena_inferences)
                           : 0.0,
        "count");
  m.add("sim.validate.golden_us", median(p.golden_us), "us");
  m.add("sim.analytic.run_us_p50", percentile(p.analytic_us, 50), "us");
}

}  // namespace

void probe_engines(const BatchRunner& runner, const CompiledNetwork& compiled,
                   const Dataset& inputs, std::size_t chunk,
                   std::size_t per_cycle, EngineProbe& probe, Outcome& out,
                   SpanLog* spans, std::uint32_t parent, TraceLog* phases) {
  const QuantizedNetwork& net = compiled.network();
  const ArchParams& arch = compiled.params();
  const bool uv = compiled.use_predictor();
  const auto span = [&](const char* name, std::int64_t a, std::int64_t b,
                        std::uint64_t id) {
    if (spans) spans->add(name, a, b, parent, id);
  };

  // `sim` makes the checked replay (traced in the traced run); `timing`
  // the untraced replays that pair with further BatchRunner calls.
  AcceleratorSim sim(arch);
  AcceleratorSim timing(arch);
  AcceleratorSim per_cycle_sim(arch);
  per_cycle_sim.set_stepping_mode(SteppingMode::kPerCycle);
  const std::unique_ptr<ExecutionEngine> analytic =
      make_engine(EngineKind::kAnalytic, arch);
  ResultArena arena(compiled);
  ResultArena timing_arena(compiled);
  sim.reset_event_core_stats();

  // Runs `part` (inputs from `begin`) on `engine` as BatchRunner runs
  // it: arena path, the first inference validated. Returns the engine
  // milliseconds.
  const auto replay_part = [&](const Dataset& part, std::size_t begin,
                               AcceleratorSim& engine, ResultArena& results,
                               bool traced, const auto& on_result) {
    double engine_ms = 0.0;
    for (std::size_t j = 0; j < part.size(); ++j) {
      const std::int64_t t0 = now_ns();
      const SimResult& r =
          engine.run(compiled, part.image(j), results,
                     j == 0 ? ValidationMode::kFull : ValidationMode::kOff);
      const std::int64_t t1 = now_ns();
      if (traced) span("engine.run.cycle", t0, t1, begin + j);
      engine_ms += ms_between(t0, t1);
      on_result(r, us_between(t0, t1));
    }
    return engine_ms;
  };
  const auto call = [&](const Dataset& part, std::size_t begin, bool traced,
                        double& ms) {
    const std::int64_t b0 = now_ns();
    BatchResult batch = runner.run(compiled, part);
    const std::int64_t b1 = now_ns();
    if (traced) span("batch.run", b0, b1, begin);
    ms = ms_between(b0, b1);
    return batch;
  };

  std::vector<SimResult> replay;
  replay.reserve(inputs.size());
  for (std::size_t begin = 0; begin < inputs.size(); begin += chunk) {
    const Dataset part = slice(inputs, begin, std::min(inputs.size(),
                                                       begin + chunk));
    // The checked pass: one call, then its replay (traced in the traced
    // run), whose sums must equal the call's totals.
    double batch_ms = 0.0;
    const BatchResult batch = call(part, begin, spans != nullptr, batch_ms);
    ModelTotals replayed;
    std::vector<double> traced_us;
    sim.set_trace(phases);
    replay_part(part, begin, sim, arena, spans != nullptr,
                [&](const SimResult& r, double us) {
                  traced_us.push_back(us);
                  replay.push_back(r);
                  probe.totals.add(r, net);
                  replayed.add(r, net);
                });
    sim.set_trace(nullptr);
    bool same = batch.total_cycles == replayed.cycles &&
                batch.total_events == replayed.events &&
                batch.layers.size() == replayed.v_cycles.size();
    for (std::size_t l = 0; same && l < batch.layers.size(); ++l) {
      const LayerBatchTotals& t = batch.layers[l];
      same = t.v_cycles == replayed.v_cycles[l] &&
             t.u_cycles == replayed.u_cycles[l] &&
             t.w_cycles == replayed.w_cycles[l] &&
             t.nnz_inputs == replayed.nnz[l] &&
             t.active_rows == replayed.active[l];
    }
    if (!same)
      out.fail("BatchResult totals differ from the replay's sums, inputs "
               "from " + std::to_string(begin));
    if (!spans) continue;

    // Host timings. The chunk again, untraced: each input's run against
    // its traced run is the tracing overhead.
    probe.batch_ms.push_back(batch_ms);
    std::size_t j = 0;
    replay_part(part, begin, timing, timing_arena, false,
                [&](const SimResult& r, double us) {
                  probe.cycle_us.push_back(us);
                  probe.timed_cycles += r.total_cycles;
                  probe.overhead_pct.push_back(
                      100.0 * (traced_us[j++] / us - 1.0));
                });
    // BatchRunner's self time, per call: a one-input call, then the
    // same input replayed right after it, so that the host's drift
    // lands on both sides of the difference.
    for (std::size_t i = begin; i < begin + part.size(); ++i) {
      const Dataset one = slice(inputs, i, i + 1);
      double one_ms = 0.0;
      call(one, i, false, one_ms);
      probe.batch_self_ms.push_back(
          one_ms - replay_part(one, i, timing, timing_arena, false,
                               [](const SimResult&, double) {}));
    }
  }
  probe.checked += inputs.size();
  probe.events_executed += sim.event_core_stats().events_executed;
  probe.cycles_ticked += sim.event_core_stats().cycles_ticked;

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto x = inputs.image(i);
    const SimResult& r = replay[i];
    std::int64_t t0 = now_ns();
    const std::vector<std::int16_t> golden = net.infer_raw(x, uv);
    std::int64_t t1 = now_ns();
    probe.golden_us.push_back(us_between(t0, t1));
    span("network.infer_raw", t0, t1, i);
    if (r.output != golden)
      out.fail("cycle engine output differs from infer_raw, input " +
               std::to_string(i));

    t0 = now_ns();
    const SimResult a = analytic->run(compiled, x, ValidationMode::kOff);
    t1 = now_ns();
    probe.analytic_us.push_back(us_between(t0, t1));
    span("engine.run.analytic", t0, t1, i);
    if (!predictions_match(a, r))
      out.fail("analytic predictions differ from the cycle engine, input " +
               std::to_string(i));
    probe.err_pct.push_back(
        100.0 *
        std::abs(static_cast<double>(a.total_cycles) -
                 static_cast<double>(r.total_cycles)) /
        static_cast<double>(std::max<std::uint64_t>(r.total_cycles, 1)));

    if (i < per_cycle &&
        per_cycle_sim.run(compiled, x, ValidationMode::kOff) != r)
      out.fail("per-cycle stepping differs from event stepping, input " +
               std::to_string(i));
  }

  if (spans) {
    // Heap allocations per inference on the arena path as a
    // BatchRunner worker meets it: a fresh engine and a reserved arena,
    // one warm-up inference, then every further input counted.
    AcceleratorSim fresh(arch);
    ResultArena fresh_arena(compiled);
    fresh.run(compiled, inputs.image(0), fresh_arena, ValidationMode::kOff);
    const std::uint64_t before = alloc_counter::count().load();
    for (std::size_t i = 1; i < inputs.size(); ++i)
      fresh.run(compiled, inputs.image(i), fresh_arena, ValidationMode::kOff);
    probe.arena_allocs += alloc_counter::count().load() - before;
    probe.arena_inferences += inputs.size() - 1;
  }
}

void emit_layer_metrics(Outcome& out, const EngineProbe& probe,
                        const ModelTotals& model, const ArchParams& arch,
                        const Ladder& serve, double coverage_pct) {
  Metrics& m = out.metrics;
  m.add("failed_ratio",
        out.attempted ? static_cast<double>(out.failed) /
                            static_cast<double>(out.attempted)
                      : 1.0,
        "ratio");
  emit_sim_metrics(m, probe);
  model.emit(m, arch);
  serve.emit(m);
  m.add("host.nproc", static_cast<double>(std::thread::hardware_concurrency()),
        "count");
  m.add("host.steal_frac", out.steal_frac, "ratio");
  m.add("trace.overhead_pct", median(probe.overhead_pct), "%");
  m.add("trace.coverage_pct", coverage_pct, "%");
}

}  // namespace perfbench
