#pragma once
// The event-driven cycle core (SteppingMode::kEvent) — wake-lists over
// the same NoC the per-cycle loop drives.
//
// The layer's values — V result, predictor mask, activations — come
// from the one functional pass (QuantizedNetwork::forward_layer_into)
// that AcceleratorSim runs before the phases. The core simulates only
// timing, and charges every PE the event counters the datapath would
// have produced; each depends on counts only.
//
// The per-cycle reference visits every PE and router every cycle. This
// core keeps the cycle-by-cycle NoC simulation (the trees and the
// broadcast channel are the real objects, stepped for real) but stops
// visiting components that provably have nothing to do:
//
//   V phase — every PE's local column-MAC burst is a deterministic
//     number of cycles known at phase start, so the whole burst is
//     charged up front (ProcessingElement::burst_v_compute, no MACs)
//     and each PE carries a wake time. The tree reduces zero partial
//     sums (its timing never reads a payload) and every PE receives
//     the functional pass's V result. Until the earliest wake nothing
//     injects, so the phase opens with one jump there; after that the
//     cycle loop only walks the wake-list of PEs whose time has come.
//     When every awake PE is credit-blocked and the tree's last step
//     was provably quiet (no router decision, not even a cancelled
//     one, and no closure propagation — see
//     UpwardTree::last_step_quiet), the loop jumps straight to the
//     next wake time.
//
//   W phase — every delivered activation reaches every PE, so each PE
//     is charged the per-activation event totals in bulk at phase end
//     (ProcessingElement::charge_w_activations). Meanwhile the cycle
//     loop runs a compact queue-timing model over *cost groups*: every
//     PE sees the same delivery stream and pops at a fixed per-phase
//     cost, so PEs with equal cost have identical pop schedules and
//     collapse into one modelled group. Pop times are monotone in the
//     cost, so the fullest queue (the root's credit view) is always
//     the max-cost group's — an O(1) read, no histogram. Two windows
//     advance in one shot: the drain tail (all flits injected, NoC
//     empty — each group grinds down its queue in closed form) and a
//     fully-stalled NoC (every injector credit-blocked, a full queue
//     back-pressuring the root, UpwardTree::stalled_static) until the
//     first full queue pops.
//
// Every observable — cycle counts, event tallies, NoC statistics,
// activations — is bit-identical to the per-cycle reference
// (SteppingMode::kPerCycle, AcceleratorSim::simulate_v_phase /
// simulate_w_phase); tests/event_core_test.cpp, the
// SteppingEquivalence suite in tests/compiled_engine_test.cpp and
// tests/engine_equivalence_test.cpp pin it.
//
// Every pass runs on the calling thread: the per-PE passes (phase
// starts, burst and W charges) are plain loops, and the engine
// performs no allocation in steady state (the arena path's
// zero-allocation contract covers the event core). Parallelism lives
// one level up, across inferences (BatchRunner, the serving workers).

#include <cstdint>
#include <span>
#include <vector>

#include "arch/params.hpp"
#include "noc/htree.hpp"
#include "pe/pe.hpp"
#include "sim/engine.hpp"

namespace sparsenn {

/// Hard ceiling on any V or W phase, in simulated cycles; hitting it
/// means a flow-control deadlock. Both stepping modes check it with the
/// same "V-phase deadlock"/"W-phase deadlock" messages, so a deadlock
/// reports identically in either.
inline constexpr std::uint64_t kCycleLimit = 50'000'000;

/// The event-driven V/W phase loops. Owns only scratch (wake-lists,
/// the W timing model); the PEs, trees and broadcast channel belong to
/// the AcceleratorSim that calls in.
class EventCore {
 public:
  /// How much work the event core actually did, cumulative across
  /// phases since the last reset_stats(). The per-cycle reference
  /// executes every simulated cycle, so events_executed ==
  /// cycles_ticked there; the event core's ratio is the fraction of
  /// simulated cycles it could not prove away.
  struct Stats {
    std::uint64_t cycles_ticked = 0;    ///< simulated cycles (total)
    std::uint64_t events_executed = 0;  ///< cycle iterations executed

    friend bool operator==(const Stats&, const Stats&) = default;
  };

  explicit EventCore(const ArchParams& params);

  /// Event-driven V phase: identical contract and observables to
  /// AcceleratorSim::simulate_v_phase. `v_result` is the layer's V
  /// result from the functional pass (one word per rank row), which
  /// every PE receives as its row is delivered. Fills result.v_noc
  /// (including the downward multicast hops) and returns the phase
  /// cycles including the PE pipeline drain.
  std::uint64_t run_v_phase(std::span<ProcessingElement> pes,
                            UpwardTree& tree, BroadcastChannel& broadcast,
                            std::span<const std::int16_t> v_result,
                            LayerSimResult& result);

  /// Event-driven W phase: identical timing and counters to
  /// AcceleratorSim::simulate_w_phase (start_w_phase through the last
  /// drained cycle plus the bulk event charge); it computes no value.
  /// Fills result.w_noc and returns the phase cycles including the PE
  /// pipeline drain.
  std::uint64_t run_w_phase(std::span<ProcessingElement> pes,
                            UpwardTree& tree, BroadcastChannel& broadcast,
                            LayerSimResult& result);

  const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = Stats{}; }

 private:
  /// Records cost group `g` popping its queue at cycle `t` in the W
  /// timing model: pop count, busy horizon and next-free time. Groups
  /// are sorted by descending cost, so group 0 is the laggard and its
  /// pop count is the minimum over all PEs (the root's credit view).
  void do_pop(std::size_t g, std::uint64_t t);

  ArchParams params_;
  Stats stats_;

  // ---- V phase scratch ----
  std::vector<std::uint64_t> wake_;      ///< per-PE local-burst length
  std::vector<std::uint32_t> pending_;   ///< open injectors, ascending

  // ---- W phase scratch (the cost-group queue-timing model) ----
  std::vector<std::uint64_t> pe_cost_;   ///< per-PE cycles per pop
  std::vector<std::uint64_t> cost_;      ///< per-group cycles per pop, desc
  std::vector<std::uint64_t> pops_;      ///< per-group pops so far
  std::vector<std::uint64_t> sched_t_;   ///< per-group next datapath-free cycle
  std::vector<std::uint32_t> scheduled_; ///< groups with a pending sched_t_
  std::vector<std::uint32_t> idle_;      ///< groups waiting for a delivery
  std::vector<std::uint32_t> pending_inj_;  ///< PEs still injecting
  std::uint64_t delivered_ = 0;
  std::uint64_t max_busy_until_ = 0;     ///< last cycle any datapath busy
};

}  // namespace sparsenn
