#pragma once
// Shared pieces of the benchmark binary: options, the metric sink,
// in-memory spans, percentiles, host context, the seeded builders for
// networks and digit inputs, the engine probe and the open-loop serving
// ladder. Every workload runs both outside (or as) its timed window,
// so that every layer is measured on every workload.
//
// Spans are taken here, around calls into the library's public entry
// points; nothing under src/ is instrumented.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/energy.hpp"
#include "arch/params.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "nn/quantized.hpp"
#include "serve/frontend.hpp"
#include "sim/batch_runner.hpp"
#include "sim/compiled_network.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace perfbench {

using namespace sparsenn;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;        ///< self-test sizes (small networks, pools)
  std::string trace_out;    ///< where the traced run writes its spans
};

std::int64_t now_ns() noexcept;
double ms_between(std::int64_t a, std::int64_t b) noexcept;
double us_between(std::int64_t a, std::int64_t b) noexcept;

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0
/// for an empty sample.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}
double mean(const std::vector<double>& v);

/// Metrics in emission order; printed as the result line's "metrics".
class Metrics {
 public:
  void add(std::string name, double value, std::string unit);
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// The run's verdict: inferences or requests attempted in the timed
/// window, and failures among them (failed, shed or wrong output) plus
/// one per failed consistency check.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double steal_frac = 0.0;  ///< /proc/stat steal share over the window
  Metrics metrics;

  /// Records `count` failures; the first few are printed to stderr.
  void fail(const std::string& what, std::uint64_t count = 1);
};

/// One timed interval. `parent` indexes the enclosing span (kNoParent
/// for a root); `id` is the inference or request number.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t parent;
  std::uint64_t id;
};

class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

  std::uint32_t add(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint32_t parent,
                    std::uint64_t id) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, id});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  /// Stretches an already-recorded span's end (for a root span opened
  /// before its children).
  void close(std::uint32_t span, std::int64_t end_ns) {
    spans_[span].end_ns = end_ns;
  }
  /// Writes the spans as Chrome trace-event JSON.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// /proc/stat CPU time counters (jiffies) for the steal share.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTimes read_cpu_times();
double steal_fraction(const CpuTimes& before, const CpuTimes& after);
double peak_rss_mb();
/// Returns freed heap memory to the OS (malloc_trim), so that set-up
/// repetitions do not pile up in peak_rss_mb.
void release_free_heap();

/// The 5-layer {784, h, h, h, 10} network with random weights and
/// random rank-15 predictors on the hidden layers, quantised with
/// calibration digits — all drawn from `rng`. Heap-held: compiled
/// images keep a pointer to it.
std::unique_ptr<QuantizedNetwork> build_network(std::size_t hidden, Rng& rng);

/// `n` synthetic digits (data/digits make_digit), labels cycling 0–9.
Dataset make_digits(std::size_t n, Rng& rng);

/// Rows [begin, end) of `data` as their own dataset.
Dataset slice(const Dataset& data, std::size_t begin, std::size_t end);

/// Per-inference aggregates of a set of SimResults: the modelled
/// hardware metrics (model.*, noc.*, pe.*, energy.*).
struct ModelTotals {
  std::size_t inferences = 0;
  std::uint64_t cycles = 0;
  EventCounts events;
  std::vector<std::uint64_t> v_cycles, u_cycles, w_cycles, nnz, active;
  /// Inferences per network, with its layer widths (taken once, when
  /// the network is first seen): the denominators of the nonzero-input
  /// and active-row ratios.
  struct NetCount {
    const QuantizedNetwork* net;  ///< identity only
    std::size_t inferences;
    std::vector<std::uint64_t> in_width, rows;
  };
  std::vector<NetCount> per_net;
  NocStats w_noc, v_noc;  ///< summed; mean_leaf_occupancy summed too
  std::size_t noc_layers = 0;

  void add(const SimResult& r, const QuantizedNetwork& net);
  void emit(Metrics& m, const ArchParams& arch) const;
  double energy_uj_per_inf(const ArchParams& arch) const;
};

/// The BatchRunner configuration every workload uses: 1 worker thread,
/// keep_results=false, default validation and default SimOptions.
BatchOptions batch_options(bool uv);

/// What the engine probe measured: host timings of each engine entry
/// point and the analytic-vs-cycle error, over a set of inputs.
struct EngineProbe {
  std::vector<double> cycle_us;     ///< ExecutionEngine::run (cycle)
  std::vector<double> analytic_us;  ///< ExecutionEngine::run (analytic)
  std::vector<double> golden_us;    ///< QuantizedNetwork::infer_raw
  std::vector<double> err_pct;      ///< |analytic − cycle| / cycle
  std::vector<double> batch_ms;     ///< BatchRunner::run, per chunk
  std::vector<double> batch_self_ms;  ///< per one-input call: call − replay
  std::vector<double> overhead_pct;   ///< per input: traced vs plain run
  std::vector<double> compile_ms;   ///< CompiledNetwork constructor,
                                    ///< timed by the caller
  std::uint64_t timed_cycles = 0;   ///< simulated cycles behind cycle_us
  std::size_t checked = 0;          ///< inferences of the checked replay
  std::uint64_t events_executed = 0;
  std::uint64_t cycles_ticked = 0;
  std::uint64_t arena_allocs = 0;
  std::size_t arena_inferences = 0;
  ModelTotals totals;               ///< over the cycle engine's results

  /// Share of a chunk's BatchRunner::run time spent in engine runs: all
  /// but the median self time of a call.
  double engine_share() const {
    const double call_ms = median(batch_ms);
    return call_ms > 0 ? 1.0 - median(batch_self_ms) / call_ms : 0.0;
  }
};

/// Runs `inputs` through `compiled` a chunk at a time: one `runner`
/// call, then a replay of the same chunk, one ExecutionEngine::run per
/// inference, made as BatchRunner makes them (arena path, the first
/// inference of a call validated). The replay's results are checked,
/// recording failures in `out`:
///  - every BatchResult's totals (cycles, events, per-layer V/U/W
///    cycles, nonzero inputs, active rows) equal the replay's sums;
///  - every replayed output equals QuantizedNetwork::infer_raw;
///  - the first `per_cycle` inputs re-run under kPerCycle stepping
///    match the event engine exactly (cycles, events, NoC, activations);
///  - the analytic engine's predictions are bit-exact to the cycle
///    engine's.
/// With `spans` (the traced run), the checked call and replay are
/// spans, the replay appends its per-phase cycle records to `phases`,
/// and each chunk is timed further, untraced: a second replay gives the
/// engine timings and, input by input against the traced replay, the
/// tracing overhead; then each input's one-input call, paired with the
/// same input replayed right after it, gives BatchRunner's self time
/// per call. The arena allocation count is taken too.
void probe_engines(const BatchRunner& runner, const CompiledNetwork& compiled,
                   const Dataset& inputs, std::size_t chunk,
                   std::size_t per_cycle, EngineProbe& probe, Outcome& out,
                   SpanLog* spans, std::uint32_t parent, TraceLog* phases);

/// The expected answer for every (model, input): the direct analytic
/// run of the same compiled image, indexed [model][input].
using Expected = std::vector<std::vector<SimResult>>;

/// Runs every input through the analytic engine for each image and
/// checks each output against QuantizedNetwork::infer_raw.
Expected make_expected(const std::vector<const CompiledNetwork*>& images,
                       const Dataset& inputs, Outcome& out);

/// The models an open-loop ladder sends to: registered with `frontend`
/// under `ids`, in zipf(s=1) rank order (most popular first).
struct ServedModels {
  ServingFrontend* frontend = nullptr;
  std::vector<std::size_t> ids;
  std::vector<const QuantizedNetwork*> nets;
  const Expected* expected = nullptr;
  bool use_predictor = true;
};

/// One rate step of the ladder.
struct LadderStep {
  double rate = 0.0;                  ///< offered requests/s
  std::vector<double> win_p50_us;     ///< per one-second sub-window
  std::vector<double> win_p99_us;
  std::vector<double> lag_us;         ///< how late submit() started
  ServingStats before, after;         ///< frontend stats around the step
  std::size_t backlog_end = 0;        ///< in flight when the step ended
  std::size_t attempted = 0;
  std::size_t ok = 0;
};

/// What an open-loop ladder measured, client side.
struct Ladder {
  std::vector<LadderStep> steps;
  std::vector<double> submit_us;      ///< span around submit()
  std::vector<double> queue_us;       ///< ServeResult::queue_us
  std::vector<double> exec_us;        ///< ServeResult::exec_us
  std::vector<double> resolve_us;     ///< latency − lag − submit − total
  std::vector<double> register_ms;    ///< ServingFrontend::register_model
  ModelTotals served;                 ///< analytic results of OK requests
  double explained_us = 0.0;          ///< Σ lag + ServeResult::total_us
  double latency_sum_us = 0.0;        ///< Σ latency from due time

  std::size_t attempted() const;
  void emit(Metrics& m) const;
};

/// Offered requests/s of the ladder's low, mid and high steps.
using LadderRates = std::array<double, 3>;

/// The open-loop rate ladder: low, mid and high steps of `step_seconds`
/// each at `rates`. One
/// generator (the calling thread) submits on a seeded Poisson schedule
/// and picks each request's model by zipf(s=1) and its input uniformly
/// from `inputs`. A request is timed from its due time to the moment
/// its future is seen ready: between arrivals the generator polls
/// every in-flight future. Every result must be OK and equal to its
/// expected answer; failures go to `out`. `after_step`, when given,
/// runs after each step has drained.
void run_ladder(const ServedModels& models, const Dataset& inputs,
                const LadderRates& rates, double step_seconds, Rng& rng,
                Ladder& ladder, Outcome& out, SpanLog* spans,
                const std::function<void()>& after_step = {});

/// Emits the per-layer metrics shared by every workload, in one order:
/// failed_ratio, sim.*, model/noc/pe/energy.*, serve/core/load.*,
/// host.* and trace.* (the overhead from the probe's paired replays).
void emit_layer_metrics(Outcome& out, const EngineProbe& probe,
                        const ModelTotals& model, const ArchParams& arch,
                        const Ladder& serve, double coverage_pct);

/// Workload entry points (cycle_workload.cpp, serve_workload.cpp).
Outcome run_cycle_workload(const Options& options, bool uv);
Outcome run_serve_workload(const Options& options);

}  // namespace perfbench
