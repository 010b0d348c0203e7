#pragma once
// The pluggable execution-engine layer.
//
// One compiled network image (sim/compiled_network.hpp) can be
// executed by more than one cost backend:
//
//   EngineKind::kCycle    — AcceleratorSim (sim/accelerator.hpp), the
//     cycle-accurate 64-PE model: cycle-by-cycle NoC stepping, exact
//     event counts, the paper's verification path. By default it is
//     the functional pass plus an event-driven NoC simulation; the
//     per-cycle oracle also runs the PEs' own datapath (SteppingMode
//     below);
//
//   EngineKind::kAnalytic — AnalyticEngine (sim/analytic_engine.hpp):
//     the functional fixed-point forward pass (bit-exact activations,
//     predictor masks and labels) with closed-form per-layer schedule
//     math for cycles, events and NoC statistics — no per-cycle
//     stepping, so single-inference latency drops by an order of
//     magnitude.
//
// Both backends implement ExecutionEngine below and fill the same
// SimResult shape, so System, BatchRunner, the CLI and the benches
// select a backend with one knob. Predictions (activations/output) are
// bit-identical across backends; the analytic engine's cycle and event
// numbers are estimates (tests/engine_equivalence_test pins the
// prediction equivalence, bench/sim_throughput the speedup).
//
// Engines are stateful scratch owners, exactly like AcceleratorSim
// always was: one engine per thread, never shared concurrently. The
// compiled image, in contrast, is immutable and shared read-only.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "arch/energy.hpp"
#include "arch/params.hpp"
#include "noc/htree.hpp"

namespace sparsenn {

class CompiledNetwork;  // sim/compiled_network.hpp
class ResultArena;      // sim/result_arena.hpp
class TraceLog;         // sim/trace.hpp

/// Whether the cycle engine's per-cycle oracle
/// (SteppingMode::kPerCycle) checks each layer's activations from its
/// distributed datapath against the functional fixed-point pass.
/// Event stepping and the analytic backend take every value from that
/// pass, so there is nothing to check and both modes run identically.
/// Results are identical in both modes.
enum class ValidationMode {
  kFull,  ///< oracle: functional pass + ensures() per layer
  kOff,   ///< oracle: skip the functional pass
};

/// Cycle/energy results for one layer of one inference.
struct LayerSimResult {
  std::uint64_t v_cycles = 0;
  std::uint64_t u_cycles = 0;
  std::uint64_t w_cycles = 0;
  std::uint64_t total_cycles = 0;
  EventCounts events;           ///< all PEs + routers, this layer
  NocStats w_noc;               ///< W-phase network statistics
  NocStats v_noc;               ///< V-phase reduction statistics
  std::vector<std::int16_t> activations;  ///< produced layer output
  std::size_t nnz_inputs = 0;   ///< nonzero input activations
  std::size_t active_rows = 0;  ///< rows actually computed

  friend bool operator==(const LayerSimResult&,
                         const LayerSimResult&) = default;
};

/// Whole-inference results.
struct SimResult {
  std::vector<LayerSimResult> layers;
  std::vector<std::int16_t> output;
  std::uint64_t total_cycles = 0;

  EventCounts total_events() const;

  friend bool operator==(const SimResult&, const SimResult&) = default;
};

/// The available cost backends.
enum class EngineKind {
  kCycle,     ///< cycle-accurate AcceleratorSim
  kAnalytic,  ///< functional model + closed-form schedule math
};

const char* to_string(EngineKind kind) noexcept;

/// Parses "cycle"/"analytic" (the CLI's --engine values); nullopt on
/// anything else.
std::optional<EngineKind> parse_engine_kind(std::string_view name);

/// How the cycle engine advances simulated time. Both modes are
/// bit-identical in every observable (cycles, event counts, NoC stats,
/// activations) — they differ only in wall-clock speed. The analytic
/// engine has no such knob (it never ticks).
enum class SteppingMode {
  kPerCycle,  ///< every component visited every cycle, values from
              ///< the PE datapath (the oracle)
  kEvent,     ///< event-driven wake-list core (sim/event_core.hpp),
              ///< values from the functional pass
};

/// Interface every backend implements. A backend overrides the one
/// virtual run(), which writes into a caller-owned ResultArena; the
/// by-value run() is a base-class convenience over it. Backends add
/// `using ExecutionEngine::run;` so both stay callable on the concrete
/// type.
class ExecutionEngine {
 public:
  virtual ~ExecutionEngine() = default;

  virtual EngineKind kind() const noexcept = 0;
  virtual const ArchParams& params() const noexcept = 0;

  /// Runs one inference from a pre-compiled network (see
  /// sim/compiled_network.hpp) into `arena` (see
  /// sim/result_arena.hpp). `compiled` must have been built with this
  /// engine's ArchParams, must not be stale(), and must outlive the
  /// call. The returned reference is into the arena and is overwritten
  /// by the next run using it.
  virtual const SimResult& run(
      const CompiledNetwork& compiled, std::span<const float> input,
      ResultArena& arena,
      ValidationMode validation = ValidationMode::kFull) = 0;

  /// Same inference, returned by value: runs into a fresh ResultArena
  /// and moves the result out. Results are bit-identical to the arena
  /// overload; only the allocation profile differs.
  SimResult run(const CompiledNetwork& compiled,
                std::span<const float> input,
                ValidationMode validation = ValidationMode::kFull);

  /// Attaches a trace log; every subsequent run() appends per-phase
  /// records. Pass nullptr to detach. The log must outlive the engine.
  virtual void set_trace(TraceLog* trace) noexcept = 0;
};

/// Backend factory: the one place the concrete engine types are named.
/// The cycle backend it builds uses event stepping.
std::unique_ptr<ExecutionEngine> make_engine(EngineKind kind,
                                             const ArchParams& params);

/// Appends one layer's V/U/W phase records to `trace` from a filled
/// LayerSimResult — the shared trace shape of every backend
/// (TraceLog::record stamps the inference number). Phases with zero
/// cycles are skipped.
void record_layer_trace(TraceLog& trace, std::size_t layer,
                        const LayerSimResult& result);

}  // namespace sparsenn
