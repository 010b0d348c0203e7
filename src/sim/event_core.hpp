#pragma once
// The event-driven cycle core (SteppingMode::kEvent) — wake-lists over
// the same NoC the per-cycle loop drives.
//
// The layer's values — V result, predictor mask, activations — come
// from the one functional pass (LayerPass, sim/compiled_network.hpp)
// that AcceleratorSim runs before the phases, and so do the per-PE
// counts this core reads: nonzero inputs and active rows per PE. The
// core simulates only NoC timing and touches no PE; AcceleratorSim
// derives the PE event counters from the same counts in closed form.
//
// The per-cycle reference visits every PE and router every cycle. This
// core keeps the cycle-by-cycle NoC simulation (the trees and the
// broadcast channel are the real objects, stepped for real) but stops
// visiting components that provably have nothing to do:
//
//   V phase — every PE's local column-MAC burst lasts its nonzero
//     inputs × rank cycles, known at phase start, and that is the PE's
//     wake time. After it the PE injects one partial-sum flit per rank
//     row, payload zero: the tree's timing never reads a payload, and
//     the V result comes from the functional pass. Until the earliest
//     wake nothing injects, so the phase opens with one jump there;
//     after that the cycle loop only walks the wake-list of PEs whose
//     time has come. When every awake PE is credit-blocked and the
//     tree's last step was provably quiet (no router decision, not
//     even a cancelled one, and no closure propagation — see
//     UpwardTree::last_step_quiet), the loop jumps straight to the
//     next wake time.
//
//   W phase — each PE injects its nonzero inputs in ascending index
//     order (the functional pass's nonzero list, bucketed per PE).
//     Every delivered activation reaches every PE, which is busy for
//     max(1, its active rows) cycles per activation. The cycle loop
//     runs a compact queue-timing model over *cost groups*: every PE
//     sees the same delivery stream and pops at that fixed per-phase
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
// Every pass runs on the calling thread: the per-PE passes are plain
// loops, and the engine performs no allocation in steady state (the
// arena path's zero-allocation contract covers the event core).
// Parallelism lives one level up, across inferences (BatchRunner, the
// serving workers).

#include <cstdint>
#include <span>
#include <vector>

#include "arch/params.hpp"
#include "noc/htree.hpp"
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

  /// Sizes the W phase's per-PE nonzero buckets for layers up to
  /// `max_width` inputs (CompiledNetwork::max_layer_width), so a
  /// denser input never reallocates mid-run.
  void reserve(std::size_t max_width);

  /// Event-driven V phase: identical timing and NoC statistics to
  /// AcceleratorSim::simulate_v_phase. `pe_nnz` holds each PE's local
  /// nonzero inputs; the tree reduces `rank` rows. Fills result.v_noc
  /// (including the downward multicast hops) and returns the phase
  /// cycles including the PE pipeline drain.
  std::uint64_t run_v_phase(UpwardTree& tree, BroadcastChannel& broadcast,
                            std::span<const std::size_t> pe_nnz,
                            std::size_t rank, LayerSimResult& result);

  /// Event-driven W phase: identical timing and NoC statistics to
  /// AcceleratorSim::simulate_w_phase. `nz_idx` is the ascending list
  /// of the layer input `act`'s nonzeros, `pe_nnz` and `pe_active` the
  /// per-PE nonzero inputs and predicted-active rows. Fills
  /// result.w_noc and returns the phase cycles including the PE
  /// pipeline drain.
  std::uint64_t run_w_phase(UpwardTree& tree, BroadcastChannel& broadcast,
                            std::span<const std::uint32_t> nz_idx,
                            std::span<const std::int16_t> act,
                            std::span<const std::size_t> pe_nnz,
                            std::span<const std::size_t> pe_active,
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
  std::vector<std::uint32_t> v_sent_;    ///< per-PE partials injected
  std::vector<std::uint32_t> pending_;   ///< open injectors, ascending

  // ---- W phase scratch (injection buckets, cost-group timing model) ----
  std::vector<std::uint32_t> inj_idx_;   ///< nonzero inputs, PE-bucketed
  std::vector<std::size_t> inj_next_;    ///< per-PE next bucket entry
  std::vector<std::size_t> inj_end_;     ///< per-PE bucket end
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
