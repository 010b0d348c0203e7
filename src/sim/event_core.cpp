#include "sim/event_core.hpp"

#include <algorithm>
#include <functional>

#include "common/check.hpp"

namespace sparsenn {

EventCore::EventCore(const ArchParams& params) : params_(params) {
  // Every per-PE and per-cost-group vector at its bound up front: an
  // input with more distinct cost groups than any before it must not
  // reallocate mid-inference (the arena path's zero-allocation
  // contract).
  const std::size_t n = params.num_pes;
  wake_.reserve(n);
  v_sent_.reserve(n);
  pending_.reserve(n);
  inj_next_.reserve(n);
  inj_end_.reserve(n);
  cost_.reserve(n);
  pops_.reserve(n);
  sched_t_.reserve(n);
  scheduled_.reserve(n);
  idle_.reserve(n);
  pending_inj_.reserve(n);
}

void EventCore::reserve(std::size_t max_width) { inj_idx_.reserve(max_width); }

// ------------------------------------------------------------------ V phase

std::uint64_t EventCore::run_v_phase(UpwardTree& tree,
                                     BroadcastChannel& broadcast,
                                     std::span<const std::size_t> pe_nnz,
                                     std::size_t rank,
                                     LayerSimResult& result) {
  tree.reset();
  broadcast.reset();
  const std::size_t num_pes = pe_nnz.size();

  // Each PE's wake time is its local-MAC burst, one MAC per cycle over
  // its nonzero inputs × rank — in the reference it computes (and does
  // nothing else) for exactly that many cycles.
  wake_.resize(num_pes);
  for (std::size_t i = 0; i < num_pes; ++i) wake_[i] = pe_nnz[i] * rank;
  v_sent_.assign(num_pes, 0);

  std::uint64_t cycles = 0;
  std::uint64_t executed = 0;
  std::size_t results_delivered = 0;
  pending_.clear();
  for (std::size_t i = 0; i < num_pes; ++i)
    pending_.push_back(static_cast<std::uint32_t>(i));

  // Until the earliest wake time nothing injects and the NoC is empty:
  // jump there. (The reference's cycles 1..min_wake only run compute.)
  if (rank > 0) {
    std::uint64_t min_wake = UINT64_MAX;
    for (const std::uint64_t w : wake_) min_wake = std::min(min_wake, w);
    if (min_wake > 0) {
      tree.skip_idle(min_wake);
      broadcast.skip(min_wake);
      cycles = min_wake;
      ensures(cycles < kCycleLimit, "V-phase deadlock");
    }
  }

  while (results_delivered < rank) {
    // Wait-skip: nothing in the broadcast pipe, the tree's last step
    // was provably quiet, every awake injector is credit-blocked and
    // at least one PE has not woken yet — every cycle until the next
    // wake only ticks clocks and occupancy. The quiet proof needs the
    // credit view frozen too (trivially true for latency-1 credits).
    if (!pending_.empty() && broadcast.idle() && tree.last_step_quiet() &&
        tree.credits_quiet()) {
      std::uint64_t next_wake = UINT64_MAX;
      bool awake_blocked = true;
      for (const std::uint32_t i : pending_) {
        if (wake_[i] > cycles) {
          next_wake = std::min<std::uint64_t>(next_wake, wake_[i]);
        } else if (tree.can_inject(i)) {
          awake_blocked = false;
          break;
        }
      }
      if (awake_blocked && next_wake != UINT64_MAX) {
        const std::uint64_t k = next_wake - cycles;
        tree.skip_waiting(k);
        broadcast.skip(k);
        cycles += k;
      }
    }

    ensures(++cycles < kCycleLimit, "V-phase deadlock");
    ++executed;

    // Injection pass over the wake-list, ascending PE order (arbitrary
    // but shared with the reference: injections consume leaf credits
    // that later PEs observe the same cycle). Closed injectors leave
    // the list.
    std::size_t kept = 0;
    for (std::size_t p = 0; p < pending_.size(); ++p) {
      const std::uint32_t i = pending_[p];
      bool closed = false;
      if (wake_[i] < cycles && tree.can_inject(i)) {
        tree.inject(i, Flit{.index = v_sent_[i],
                            .payload = 0,
                            .source = static_cast<std::uint16_t>(i)});
        if (++v_sent_[i] == rank) {
          tree.close_injector(i);
          closed = true;
        }
      }
      if (!closed) pending_[kept++] = i;
    }
    pending_.resize(kept);

    // The root multicasts each reduced row; V results always find
    // room (dedicated registers).
    if (const auto out = tree.step(true)) broadcast.send(*out);
    if (broadcast.step()) ++results_delivered;
  }

  stats_.cycles_ticked += cycles;
  stats_.events_executed += executed;

  result.v_noc = tree.stats();
  // Downward multicast traverses every router once per result flit.
  result.v_noc.flit_hops +=
      static_cast<std::uint64_t>(rank) * params_.total_routers();
  return cycles + params_.pe_pipeline_stages;
}

// ------------------------------------------------------------------ W phase

void EventCore::do_pop(std::size_t g, std::uint64_t t) {
  ++pops_[g];
  sched_t_[g] = t + cost_[g];
  max_busy_until_ = std::max(max_busy_until_, t + cost_[g] - 1);
}

std::uint64_t EventCore::run_w_phase(UpwardTree& tree,
                                     BroadcastChannel& broadcast,
                                     std::span<const std::uint32_t> nz_idx,
                                     std::span<const std::int16_t> act,
                                     std::span<const std::size_t> pe_nnz,
                                     std::span<const std::size_t> pe_active,
                                     LayerSimResult& result) {
  tree.reset();
  broadcast.reset();
  const std::size_t num_pes = pe_nnz.size();
  const std::uint64_t queue_depth = params_.act_queue_depth;

  // Bucket the nonzero inputs per PE (input c sits on PE c mod P), each
  // bucket ascending — the order a PE's LNZD injects them in. Filled
  // back to front, so every cursor ends at its bucket's start.
  pending_inj_.clear();
  inj_next_.resize(num_pes);
  inj_end_.resize(num_pes);
  std::size_t end = 0;
  for (std::size_t i = 0; i < num_pes; ++i) {
    end += pe_nnz[i];
    inj_next_[i] = inj_end_[i] = end;
    if (pe_nnz[i] != 0) pending_inj_.push_back(static_cast<std::uint32_t>(i));
  }
  inj_idx_.resize(nz_idx.size());
  const std::size_t pe_mask = num_pes - 1;
  const bool pow2 = (num_pes & pe_mask) == 0;
  for (auto c = nz_idx.rbegin(); c != nz_idx.rend(); ++c)
    inj_idx_[--inj_next_[pow2 ? *c & pe_mask : *c % num_pes]] = *c;
  bool all_injected = pending_inj_.empty();

  // Collapse PEs into cost groups. Every PE sees the same delivery
  // stream and pops at its fixed cost — max(1, active rows) cycles per
  // activation — so the pop schedule is a pure function of the cost:
  // equal-cost PEs are indistinguishable to the timing model and one
  // group stands in for all of them. Sorted by descending cost: pop
  // times are monotone in the cost, so group 0 (the laggard) always
  // holds the minimum pop count over all PEs — the fullest queue, i.e.
  // the root's credit view, read in O(1).
  cost_.clear();
  for (const std::size_t active : pe_active) {
    const std::uint64_t c = std::max<std::uint64_t>(1, active);
    if (std::find(cost_.begin(), cost_.end(), c) == cost_.end())
      cost_.push_back(c);
  }
  std::sort(cost_.begin(), cost_.end(), std::greater<>{});
  const std::size_t num_groups = cost_.size();

  // Timing-model state: every group starts idle (empty queue, free
  // datapath) with zero pops.
  pops_.assign(num_groups, 0);
  sched_t_.assign(num_groups, 0);
  scheduled_.clear();
  idle_.clear();
  for (std::size_t g = 0; g < num_groups; ++g)
    idle_.push_back(static_cast<std::uint32_t>(g));
  max_busy_until_ = 0;
  delivered_ = 0;
  std::uint64_t cycles = 0;
  std::uint64_t executed = 0;

  // Same termination predicate as the reference, read off the model:
  // queues empty everywhere <=> the laggard group has popped
  // everything; datapaths free <=> past the busy horizon.
  while (!(all_injected && pops_[0] == delivered_ &&
           cycles >= max_busy_until_ && tree.idle() && broadcast.idle())) {
    // Drain jump: every flit is injected and the NoC is empty, so the
    // rest of the phase is each PE independently grinding down its
    // queue at its fixed per-pop cost — closed form.
    if (all_injected && tree.idle() && broadcast.idle()) {
      std::uint64_t fin = std::max(cycles, max_busy_until_);
      for (const std::uint32_t g : scheduled_) {
        const std::uint64_t queued = delivered_ - pops_[g];
        if (queued > 0)
          fin = std::max(fin, sched_t_[g] + queued * cost_[g] - 1);
      }
      tree.skip_idle(fin - cycles);
      broadcast.skip(fin - cycles);
      cycles = fin;
      ensures(cycles < kCycleLimit, "W-phase deadlock");
      break;
    }

    // Stall window: nothing in the broadcast pipe, the tree holds
    // flits but provably cannot move one, every pending injection is
    // credit-blocked, and some queue is full (so the root stays
    // back-pressured until its first pop). Until then each cycle only
    // repeats the same stalled decisions while datapaths count down.
    if (broadcast.idle() && !tree.idle() && !tree.last_step_transferred()) {
      bool blocked = true;
      for (const std::uint32_t i : pending_inj_) {
        if (tree.can_inject(i)) {
          blocked = false;
          break;
        }
      }
      if (blocked && delivered_ - pops_[0] == queue_depth) {
        std::uint64_t burst = UINT64_MAX;
        for (const std::uint32_t g : scheduled_) {
          if (delivered_ - pops_[g] == queue_depth)
            burst = std::min(burst, sched_t_[g] - cycles);
        }
        if (burst > 1 && tree.stalled_static()) {
          // Advance the model through the window: pops fire at their
          // scheduled times (no deliveries arrive — the pipe is empty
          // and the root is stalled).
          const std::uint64_t end = cycles + burst;
          std::size_t kept = 0;
          for (std::size_t s = 0; s < scheduled_.size(); ++s) {
            const std::uint32_t g = scheduled_[s];
            while (sched_t_[g] <= end && pops_[g] < delivered_)
              do_pop(g, sched_t_[g]);
            if (sched_t_[g] <= end) {
              idle_.push_back(g);  // found its queue empty
            } else {
              scheduled_[kept++] = g;
            }
          }
          scheduled_.resize(kept);
          tree.skip_stalled(burst);
          broadcast.skip(burst);
          cycles += burst;
          ensures(cycles < kCycleLimit, "W-phase deadlock");
          continue;
        }
      }
    }

    ensures(++cycles < kCycleLimit, "W-phase deadlock");
    ++executed;

    // Injection pass, ascending PE order.
    if (!all_injected) {
      std::size_t kept = 0;
      for (std::size_t p = 0; p < pending_inj_.size(); ++p) {
        const std::uint32_t i = pending_inj_[p];
        if (tree.can_inject(i)) {
          const std::uint32_t c = inj_idx_[inj_next_[i]++];
          tree.inject(i, Flit{.index = c,
                              .payload = act[c],
                              .source = static_cast<std::uint16_t>(i)});
          if (inj_next_[i] == inj_end_[i]) continue;  // drained: drop
        }
        pending_inj_[kept++] = i;
      }
      pending_inj_.resize(kept);
      all_injected = pending_inj_.empty();
    }

    // Root credit view from end-of-previous-cycle queue state, exactly
    // like the reference's carried-over min_free scan (the laggard
    // group's queue is always the fullest).
    const std::uint64_t min_free =
        queue_depth - (delivered_ - pops_[0]);
    const bool root_ready = min_free > broadcast.in_flight();

    if (const auto out = tree.step(root_ready)) broadcast.send(*out);

    if (broadcast.step()) {
      ++delivered_;
      // Every idle group pops the fresh delivery this very cycle (its
      // datapath was free and its queue was empty until now).
      for (const std::uint32_t g : idle_) {
        do_pop(g, cycles);
        scheduled_.push_back(g);
      }
      idle_.clear();
    }

    // Scheduled pass: datapaths that free up this cycle either pop the
    // next queued activation or go idle.
    std::size_t kept = 0;
    for (std::size_t s = 0; s < scheduled_.size(); ++s) {
      const std::uint32_t g = scheduled_[s];
      if (sched_t_[g] == cycles) {
        if (pops_[g] < delivered_) {
          do_pop(g, cycles);
        } else {
          idle_.push_back(g);
          continue;
        }
      }
      scheduled_[kept++] = g;
    }
    scheduled_.resize(kept);
  }

  ensures(delivered_ == nz_idx.size(),
          "broadcast delivered a different number of activations than "
          "were injected");

  stats_.cycles_ticked += cycles;
  stats_.events_executed += executed;

  result.w_noc = tree.stats();
  result.w_noc.flit_hops +=
      delivered_ * params_.total_routers();  // downward multicast
  return cycles + params_.pe_pipeline_stages;
}

}  // namespace sparsenn
