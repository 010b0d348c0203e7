#pragma once
// The EngineKind::kAnalytic backend: functional execution with
// closed-form hardware cost models (sim/engine.hpp).
//
// Where AcceleratorSim steps the NoC and every PE cycle by cycle, this
// engine runs each layer as the fixed-point functional model the
// hardware is verified against — the same integer MAC/rescale/mask
// arithmetic, so activations, predictor masks, nnz/active-row counts
// and therefore predicted labels are bit-identical to the cycle
// backend (tests/engine_equivalence_test pins this). So are the PE
// event counters: none depends on timing, and both engines take them
// from one closed form over the census (LayerPass::pe_events).
// Cycles, router counters and NoC statistics are then *derived* from
// the per-layer schedule math of Section V (the same reasoning as
// sim/schedule.hpp's estimators, but fed with the exact per-PE work
// distribution of this input — the census of the LayerPass it shares
// with the event-stepped cycle engine — instead of balanced averages):
//
//   V phase — the slowest PE's local column MACs (its local nonzero
//     inputs × rank) plus the pipelined tree reduction and broadcast
//     of the `rank` results;
//   U phase — the slowest PE's row MACs (mapped rows × rank) plus the
//     PE pipeline flush — identical to the cycle engine's formula,
//     which already computes this phase analytically;
//   W phase — the larger of the root's serialisation bound (one
//     delivered activation per cycle) and the slowest PE's consume
//     work (delivered activations × its predicted-active rows).
//
// These estimates track the simulator's magnitude but are not
// bit-identical to it — they skip arbitration conflicts and credit
// stalls. Callers that need exact cycle truth use the cycle backend;
// callers that need throughput (model-zoo serving, accuracy sweeps,
// dataset scoring) get an order-of-magnitude faster inference with
// identical predictions.
//
// Like AcceleratorSim, an AnalyticEngine is single-owner scratch: all
// per-inference buffers are members reused across calls.

#include <cstdint>

#include "arch/params.hpp"
#include "sim/compiled_network.hpp"
#include "sim/engine.hpp"

namespace sparsenn {

class AnalyticEngine final : public ExecutionEngine {
 public:
  explicit AnalyticEngine(const ArchParams& params);

  EngineKind kind() const noexcept override { return EngineKind::kAnalytic; }
  const ArchParams& params() const noexcept override { return params_; }

  using ExecutionEngine::run;

  /// Validation is ignored: this engine *is* the functional pass the
  /// per-cycle oracle validates against.
  const SimResult& run(
      const CompiledNetwork& compiled, std::span<const float> input,
      ResultArena& arena,
      ValidationMode validation = ValidationMode::kFull) override;

  void set_trace(TraceLog* trace) noexcept override { trace_ = trace; }

 private:
  /// One layer: bit-exact activations/mask into `result`, then the
  /// closed-form cycle/event/NoC estimates. `act` is the layer input.
  void run_layer_into(const CompiledNetwork& compiled, std::size_t l,
                      std::span<const std::int16_t> act,
                      LayerSimResult& result);

  ArchParams params_;

  LayerPass pass_;  ///< per-layer scratch, capacity kept across calls

  TraceLog* trace_ = nullptr;
};

}  // namespace sparsenn
