#pragma once
// The top-level cycle-accurate SparseNN simulator — the
// EngineKind::kCycle backend of the ExecutionEngine layer
// (sim/engine.hpp). Its results are the ground truth the analytic
// backend's predictions are verified against.
//
// AcceleratorSim owns the 64 PEs and drives the per-layer phase
// sequence of Section V.D:
//
//   V phase  — local column MACs, partial-sum reduction through the
//              accumulate-mode H-tree, result broadcast;
//   U phase  — row-based predictor evaluation filling the bit banks;
//   W phase  — nonzero activations race through the arbitrate-mode
//              H-tree to the root and broadcast to every PE, which
//              multiplies them with its predicted-active rows only.
//
// With `use_predictor = false` the V/U phases are skipped and every
// row computes — this is exactly the EIE-style input-sparsity-only
// baseline the paper calls uv_off.
//
// Every layer's values — V result, predictor mask, activations — come
// from one vectorised functional pass (QuantizedNetwork::
// forward_layer_into, the arithmetic AnalyticEngine also runs). The
// simulator then models timing in one of two ways (SteppingMode):
//
//   kEvent    — the event core (sim/event_core.hpp) simulates the NoC
//     and charges the PEs' event counters, taking every value from the
//     functional pass: functional pass + simulated NoC;
//   kPerCycle — the oracle steps every PE and router every cycle and
//     runs the real distributed datapath (V MACs, tree reduction, U
//     predictor, W MACs, write-back). With ValidationMode::kFull its
//     activations are checked against the functional pass each layer,
//     so every per-cycle == event comparison also proves that the
//     datapath computes the functional values.
//
// Two entry points share the engine:
//
//   run(network, input, use_predictor) — compiles the network's per-PE
//     slices for this one inference and runs it with
//     ValidationMode::kFull;
//
//   run(compiled, input, arena, mode) — the hot path: slices come from
//     a shared read-only CompiledNetwork, the NoC and all PE scratch
//     are reused in place, and the SimResult lands in caller-owned
//     storage (sim/result_arena.hpp). The whole inference performs
//     zero heap allocations in steady state.
//
// The inherited by-value run(compiled, input, mode) wraps the second
// (see ExecutionEngine in sim/engine.hpp). Results are bit-identical
// across all entry points and modes; only the wall-clock and
// allocation profile differ. A stale compiled image (the source
// network mutated after compilation — see QuantizedNetwork::epoch) is
// rejected with a precondition failure instead of silently simulating
// outdated weights.
//
// The steady-state cycle loop performs no heap allocation: the trees,
// broadcast channel, queues and scan buffers are preallocated members
// reused across phases, layers and inferences.

#include <cstdint>
#include <vector>

#include "arch/energy.hpp"
#include "arch/params.hpp"
#include "nn/quantized.hpp"
#include "noc/htree.hpp"
#include "pe/pe.hpp"
#include "sim/compiled_network.hpp"
#include "sim/engine.hpp"
#include "sim/event_core.hpp"
#include "sim/trace.hpp"

namespace sparsenn {

class AcceleratorSim final : public ExecutionEngine {
 public:
  explicit AcceleratorSim(const ArchParams& params);

  EngineKind kind() const noexcept override { return EngineKind::kCycle; }
  const ArchParams& params() const noexcept override { return params_; }

  using ExecutionEngine::run;

  /// Runs one inference against a one-shot compiled image with
  /// ValidationMode::kFull — identical results to the compiled
  /// overloads. The input is quantised with the network's input
  /// format, scattered across the PEs, and the layers execute in
  /// sequence. Throws InvariantError if the NoC deadlocks or, under
  /// the per-cycle oracle, the datapath diverges from the functional
  /// model.
  SimResult run(const QuantizedNetwork& network,
                std::span<const float> input, bool use_predictor);

  /// Runs one inference from a pre-compiled network into `arena` (see
  /// ExecutionEngine::run), allocation-free in steady state.
  /// `validation` acts only under SteppingMode::kPerCycle (see
  /// ValidationMode).
  const SimResult& run(
      const CompiledNetwork& compiled, std::span<const float> input,
      ResultArena& arena,
      ValidationMode validation = ValidationMode::kFull) override;

  /// Attaches a trace log; every subsequent run() appends per-phase
  /// records. Pass nullptr to detach. The log must outlive the sim.
  void set_trace(TraceLog* trace) noexcept override { trace_ = trace; }

  /// How simulated time advances (see SteppingMode in sim/engine.hpp).
  /// Results, cycle counts, event counters and NoC statistics are
  /// bit-identical in both modes (tests/event_core_test,
  /// tests/compiled_engine_test and tests/engine_equivalence_test pin
  /// this); the knob exists so tests and benches can cross-check the
  /// event core against the per-cycle oracle. Default: kEvent.
  void set_stepping_mode(SteppingMode mode) noexcept { stepping_ = mode; }
  SteppingMode stepping_mode() const noexcept { return stepping_; }

  /// How much work the event core did since the last reset (empty
  /// unless runs used SteppingMode::kEvent).
  const EventCore::Stats& event_core_stats() const noexcept {
    return event_core_.stats();
  }
  void reset_event_core_stats() noexcept { event_core_.reset_stats(); }

 private:
  /// Runs layer `l` on input `act` (the previous layer's activations,
  /// also held in the PEs' source register files).
  void run_layer_into(const CompiledNetwork& compiled, std::size_t l,
                      std::span<const std::int16_t> act, bool validate,
                      LayerSimResult& result);

  std::uint64_t simulate_v_phase(const QuantizedLayer& layer,
                                 LayerSimResult& result);
  std::uint64_t simulate_w_phase(LayerSimResult& result);

  EventCounts collect_pe_events();

  ArchParams params_;
  std::vector<ProcessingElement> pes_;

  // Persistent NoC instances, reset at each phase start instead of
  // rebuilt — reset is bit-identical to fresh construction.
  UpwardTree v_tree_;
  UpwardTree w_tree_;
  BroadcastChannel broadcast_;
  std::vector<bool> v_closed_;  ///< per-PE injector-closed scratch

  // Functional-pass scratch, reserved to the compiled image's widest
  // layer: the layer input's ascending nonzero indices, the V result,
  // the predictor mask, and the oracle's golden activations.
  std::vector<std::uint32_t> nz_idx_;
  std::vector<std::int16_t> v_scratch_;
  std::vector<std::uint8_t> mask_scratch_;
  std::vector<std::int16_t> golden_;

  SteppingMode stepping_ = SteppingMode::kEvent;
  EventCore event_core_;
  TraceLog* trace_ = nullptr;
};

}  // namespace sparsenn
