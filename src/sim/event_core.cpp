#include "sim/event_core.hpp"

#include <algorithm>
#include <bit>
#include <functional>

#include "common/check.hpp"

namespace sparsenn {
namespace {

/// True when two equally long bitsets share a set bit.
bool any_common(std::span<const std::uint64_t> a,
                std::span<const std::uint64_t> b) {
  for (std::size_t w = 0; w < a.size(); ++w)
    if ((a[w] & b[w]) != 0) return true;
  return false;
}

}  // namespace

EventCore::EventCore(const ArchParams& params) : params_(params) {
  // Every per-PE and per-cost-group vector at its bound up front: an
  // input with more distinct cost groups than any before it must not
  // reallocate mid-inference (the arena path's zero-allocation
  // contract).
  const std::size_t n = params.num_pes;
  const std::size_t words = (n + 63) / 64;
  wake_.reserve(n);
  wake_order_.reserve(n);
  v_sent_.reserve(n);
  live_.reserve(words);
  inj_next_.reserve(n);
  inj_end_.reserve(n);
  cost_.reserve(n);
  pops_.reserve(n);
  sched_t_.reserve(n);
  scheduled_.reserve(n);
  idle_.reserve(n);
  inj_pending_.reserve(words);
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
  // nothing else) for exactly that many cycles. PEs wake in wake order.
  wake_.resize(num_pes);
  wake_order_.clear();
  for (std::size_t i = 0; i < num_pes; ++i) {
    wake_[i] = pe_nnz[i] * rank;
    wake_order_.push_back(static_cast<std::uint32_t>(i));
  }
  std::sort(wake_order_.begin(), wake_order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return wake_[a] < wake_[b];
            });
  v_sent_.assign(num_pes, 0);
  live_.assign((num_pes + 63) / 64, 0);
  std::size_t woken = 0;

  std::uint64_t cycles = 0;
  std::uint64_t executed = 0;
  std::size_t results_delivered = 0;

  while (results_delivered < rank) {
    // Every PE whose burst ended by now joins the live injectors.
    for (; woken < num_pes && wake_[wake_order_[woken]] <= cycles; ++woken) {
      const std::uint32_t i = wake_order_[woken];
      live_[i >> 6] |= std::uint64_t{1} << (i & 63);
    }

    // Wait-skip: some PE is still computing, nothing is in the
    // broadcast pipe, no live injector has credit and the tree is
    // quiet — every cycle until the next wake only ticks clocks, stall
    // charges and occupancy. This also opens the phase with one jump
    // to the earliest wake.
    const std::span<const std::uint64_t> credit = tree.injectable();
    if (woken < num_pes && broadcast.idle() && !any_common(live_, credit) &&
        tree.quiet(true)) {
      const std::uint64_t k = wake_[wake_order_[woken]] - cycles;
      tree.skip(k, true);
      broadcast.skip(k);
      cycles += k;
      ensures(cycles < kCycleLimit, "V-phase deadlock");
      continue;
    }

    ensures(++cycles < kCycleLimit, "V-phase deadlock");
    ++executed;

    // Injection pass over the live injectors with credit, ascending PE
    // order (arbitrary but shared with the reference; injecting into
    // PE i changes only PE i's credit). Closed injectors leave.
    for (std::size_t w = 0; w < live_.size(); ++w) {
      for (std::uint64_t bits = live_[w] & credit[w]; bits != 0;
           bits &= bits - 1) {
        const std::size_t i =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
        tree.inject(i, Flit{.index = v_sent_[i],
                            .payload = 0,
                            .source = static_cast<std::uint16_t>(i)});
        if (++v_sent_[i] == rank) {
          tree.close_injector(i);
          live_[w] &= ~(std::uint64_t{1} << (i & 63));
        }
      }
    }

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
  inj_pending_.assign((num_pes + 63) / 64, 0);
  std::size_t injectors = 0;
  inj_next_.resize(num_pes);
  inj_end_.resize(num_pes);
  std::size_t end = 0;
  for (std::size_t i = 0; i < num_pes; ++i) {
    end += pe_nnz[i];
    inj_next_[i] = inj_end_[i] = end;
    if (pe_nnz[i] != 0) {
      inj_pending_[i >> 6] |= std::uint64_t{1} << (i & 63);
      ++injectors;
    }
  }
  inj_idx_.resize(nz_idx.size());
  const std::size_t pe_mask = num_pes - 1;
  const bool pow2 = (num_pes & pe_mask) == 0;
  for (auto c = nz_idx.rbegin(); c != nz_idx.rend(); ++c)
    inj_idx_[--inj_next_[pow2 ? *c & pe_mask : *c % num_pes]] = *c;

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
  while (!(injectors == 0 && pops_[0] == delivered_ &&
           cycles >= max_busy_until_ && tree.idle() && broadcast.idle())) {
    // Drain jump: every flit is injected and the NoC is empty, so the
    // rest of the phase is each PE independently grinding down its
    // queue at its fixed per-pop cost — closed form.
    if (injectors == 0 && tree.idle() && broadcast.idle()) {
      std::uint64_t fin = std::max(cycles, max_busy_until_);
      for (const std::uint32_t g : scheduled_) {
        const std::uint64_t queued = delivered_ - pops_[g];
        if (queued > 0)
          fin = std::max(fin, sched_t_[g] + queued * cost_[g] - 1);
      }
      tree.skip(fin - cycles, false);
      broadcast.skip(fin - cycles);
      cycles = fin;
      ensures(cycles < kCycleLimit, "W-phase deadlock");
      break;
    }

    // Stall window: nothing in the broadcast pipe, every pending
    // injection is credit-blocked, some queue is full (so the root
    // stays back-pressured until its first pop) and the tree is quiet
    // under that closed root — every router holding flits repeats its
    // stall. Until the first full queue pops, each cycle only charges
    // those stalls while datapaths count down.
    const std::span<const std::uint64_t> credit = tree.injectable();
    if (broadcast.idle() && !any_common(inj_pending_, credit) &&
        delivered_ - pops_[0] == queue_depth) {
      std::uint64_t burst = UINT64_MAX;
      for (const std::uint32_t g : scheduled_) {
        if (delivered_ - pops_[g] == queue_depth)
          burst = std::min(burst, sched_t_[g] - cycles);
      }
      if (burst > 1 && tree.quiet(false)) {
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
        tree.skip(burst, false);
        broadcast.skip(burst);
        cycles += burst;
        ensures(cycles < kCycleLimit, "W-phase deadlock");
        continue;
      }
    }

    ensures(++cycles < kCycleLimit, "W-phase deadlock");
    ++executed;

    // Injection pass over the pending injectors with credit, ascending
    // PE order.
    for (std::size_t w = 0; injectors != 0 && w < inj_pending_.size(); ++w) {
      for (std::uint64_t bits = inj_pending_[w] & credit[w]; bits != 0;
           bits &= bits - 1) {
        const std::size_t i =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
        const std::uint32_t c = inj_idx_[inj_next_[i]++];
        tree.inject(i, Flit{.index = c,
                            .payload = act[c],
                            .source = static_cast<std::uint16_t>(i)});
        if (inj_next_[i] == inj_end_[i]) {  // drained
          inj_pending_[w] &= ~(std::uint64_t{1} << (i & 63));
          --injectors;
        }
      }
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
