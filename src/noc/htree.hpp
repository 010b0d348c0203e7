#pragma once
// The H-tree of SparseNN (paper Fig. 3b / Fig. 4b — 3 levels at the
// paper's 64-PE scale, built generically for any radix^levels array).
//
// UpwardTree wires radix-ary router tiers from the PEs to the root:
// 16 leaf + 4 internal + 1 root at paper scale. The same structure
// serves two phases:
//   - kArbitrate: W-phase (and V-result redistribution) activation
//     traffic, nonzero activations racing to the root;
//   - kAccumulate: V-phase partial-sum reduction, where each level's
//     ACC stage combines per-row partial sums.
//
// Layout (see noc/router.hpp): one flat router array, level-major
// with the root last, one flat port array and one slot array holding
// every port's flit ring inline. The tree owns the only clock. A
// bitset names the routers that hold flits, and step() visits only
// those, in two passes: every busy router decides from begin-of-cycle
// state (arbitration or ACC, plus its parent's credit view), then the
// winners commit root first — each router pops its begin-of-cycle
// heads before any child pushes into it — so a hop takes exactly one
// cycle. An arbitrating router keeps its winner current as flits
// arrive and rescans its ports only after a pop, so a stalled router
// repeats its decision in O(1). Nothing costs per idle router per
// cycle: buffer occupancy is
// integrated on change (count × cycles since the last change), and
// credits that take more than one cycle carry their return stamp, so
// the wait/stall/idle skips only move the clock.
//
// The root-to-PE direction is a contention-free pipelined multicast
// (BroadcastChannel): one flit per cycle enters, and after a fixed
// latency (one pipeline hop per level) it is delivered to every PE —
// subject to the receivers' queue backpressure, which the owner
// expresses through the `ready` argument.
//
// Both halves are built for reuse across phases: all storage is sized
// at construction (no per-cycle heap allocation), idle() reads a
// maintained flit count, and reset() returns the structure to its
// freshly-built state so one tree can serve every layer of every
// inference.

#include <optional>
#include <vector>

#include "arch/params.hpp"
#include "common/check.hpp"
#include "noc/flit.hpp"
#include "noc/router.hpp"

namespace sparsenn {

/// Aggregated NoC statistics for one phase.
struct NocStats {
  std::uint64_t flit_hops = 0;          ///< router traversals
  std::uint64_t acc_operations = 0;
  std::uint64_t arbitration_conflicts = 0;
  std::uint64_t credit_stalls = 0;
  double mean_leaf_occupancy = 0.0;
  std::uint64_t root_flits = 0;         ///< flits that reached the root

  friend bool operator==(const NocStats&, const NocStats&) = default;
};

/// PE-to-root half of the H-tree.
class UpwardTree {
 public:
  /// The tree ArchParams describes: buffered credit flow control uses
  /// router_buffer_depth slots and 1-cycle credits; the unbuffered
  /// ablation uses one slot and a router-pipeline credit round trip.
  UpwardTree(const ArchParams& params, RouterMode mode);

  /// A tree of radix-ary routers over `num_pes` injectors (a power of
  /// the radix; equal to it for a single router) with explicit per-port
  /// buffer depth and credit latency.
  UpwardTree(std::size_t num_pes, std::size_t radix,
             std::size_t buffer_depth, std::size_t credit_latency,
             RouterMode mode);

  std::size_t num_pes() const noexcept { return num_pes_; }

  /// Router `r` of the flat array (leaves first, root last).
  const Router& router(std::size_t r) const {
    expects(r < routers_.size(), "router id out of range");
    return routers_[r];
  }

  /// Can PE `pe` inject this cycle? (credit view of its leaf port, which
  /// is port `pe` of the flat port array)
  bool can_inject(std::size_t pe) const {
    expects(pe < num_pes_, "PE id out of range");
    return can_accept(pe);
  }
  /// Injects a flit from PE `pe`. Precondition: can_inject(pe).
  void inject(std::size_t pe, const Flit& flit) {
    expects(pe < num_pes_, "PE id out of range");
    push(static_cast<std::uint32_t>(pe / radix_), pe, flit);
  }

  /// Declares that PE `pe` will send nothing more this phase (used by
  /// the ACC reduction to terminate cleanly).
  void close_injector(std::size_t pe);

  /// Advances one cycle. `root_ready` tells whether the consumer of the
  /// root output can take a flit. Returns the flit leaving the root.
  std::optional<Flit> step(bool root_ready);

  /// True when no flit is buffered anywhere in the tree. O(1).
  bool idle() const noexcept { return buffered_total_ == 0; }

  /// True when the last step() moved at least one flit (any router
  /// granted an output). Cheap gate for the event core's stall window:
  /// a tree that just moved something is almost never static.
  bool last_step_transferred() const noexcept {
    return last_step_transferred_;
  }

  /// True when the last step() was a pure wait cycle: no router made an
  /// output decision (not even one cancelled by a closed parent credit
  /// window — a cancelled ACC still charges acc_operations and a
  /// credit stall) and no closure flag was newly propagated. Because
  /// router decisions are pure functions of buffer/closure/credit
  /// state, a quiet step with frozen inputs proves every following
  /// cycle is quiet too until an injection or credit expiry changes the
  /// state — the event core's wait-skip window rests on this.
  bool last_step_quiet() const noexcept { return last_step_quiet_; }

  /// True when no credit anywhere in the tree is still travelling back
  /// to a child (trivially true for the buffered latency-1 default).
  /// O(1): stamps are issued in clock order, so the newest one bounds
  /// them all.
  bool credits_quiet() const noexcept { return last_credit_at_ <= now_; }

  /// Advances `k` pure wait cycles verified by last_step_quiet() plus
  /// frozen inputs (no injections, quiet credits): bit-identical to k
  /// step(·) calls in that state — only the clock moves (occupancy is
  /// integrated lazily).
  void skip_waiting(std::uint64_t k) noexcept { now_ += k; }

  /// Advances `k` cycles on a fully-drained tree — bit-identical to k
  /// step(·) calls while idle(). Requires idle().
  void skip_idle(std::uint64_t k) {
    expects(buffered_total_ == 0, "skip_idle on a non-idle tree");
    now_ += k;
  }

  /// True when stepping with root_ready == false provably changes
  /// nothing: arbitrate mode, quiet credits everywhere, and every
  /// router holding flits has a closed parent credit window — so each
  /// cycle repeats the same stalled decisions. (The caller guarantees
  /// root_ready stays false for the window it skips.)
  bool stalled_static() const;

  /// Advances `k` cycles of the stalled pattern stalled_static()
  /// verified — bit-identical to k step(false) calls in that state
  /// (stall/conflict counters advance per cycle for every busy router).
  void skip_stalled(std::uint64_t k);

  /// Empties every router, reopens all injectors, zeroes the statistics
  /// and rewinds the clock — bit-identical to constructing a fresh
  /// tree, without the allocations.
  void reset();

  NocStats stats() const;

 private:
  /// A forward decided this cycle: `port` is the arbitration winner, or
  /// radix_ for an ACC firing (every port whose head carries the row).
  struct Grant {
    Flit flit;
    std::uint32_t router;
    std::uint32_t port;
  };

  /// Credit view of flat port `port`: a free slot, counting credits
  /// still travelling back to the child as occupied. Latency-1 credits
  /// are never stamped (a stamp now+1 could never exceed the clock by
  /// the next decision), so the buffered default reads one count.
  bool can_accept(std::size_t port) const {
    const RouterPort& p = ports_[port];
    std::size_t in_flight = 0;
    if (credit_latency_ > 1) {
      std::size_t slot = p.credit_head;
      for (std::size_t k = 0; k < p.credit_count; ++k) {
        if (credits_[port * depth_ + slot] > now_) ++in_flight;
        if (++slot == depth_) slot = 0;
      }
    }
    return p.count + in_flight < depth_;
  }

  const Flit& head(std::size_t port) const {
    return slots_[port * depth_ + ports_[port].head];
  }

  /// Folds the cycles since the last change of `r.buffered` into its
  /// occupancy integral; call before every change.
  void note_occupancy(Router& r) const noexcept {
    r.stats.buffer_occupancy_sum += r.buffered * (now_ - r.occupancy_since);
    r.occupancy_since = now_;
  }

  void push(std::uint32_t r, std::size_t port, const Flit& flit) {
    RouterPort& p = ports_[port];
    ensures(p.count < depth_,
            "router buffer overflow (credit protocol violated)");
    Router& router = routers_[r];
    if (p.count == 0 && !router.rescan) {
      // A new head: it wins if it beats the current winner's.
      const auto local = static_cast<std::uint32_t>(port - r * radix_);
      if (router.candidates == 0 ||
          flit.index < head(r * radix_ + router.winner).index)
        router.winner = local;
      ++router.candidates;
    }
    std::size_t slot = p.head + p.count;
    if (slot >= depth_) slot -= depth_;
    slots_[port * depth_ + slot] = flit;
    ++p.count;
    note_occupancy(router);
    ++router.buffered;
    ++buffered_total_;
    busy_[r >> 6] |= std::uint64_t{1} << (r & 63);
  }

  void pop(std::uint32_t r, std::size_t port);
  /// Decisions of busy router `r` from begin-of-cycle state; a decision
  /// becomes a grant when `parent_ready`, else a credit stall.
  void arbitrate(std::uint32_t r, bool parent_ready);
  /// Returns false when the ACC waits (an open port has no head yet).
  bool accumulate(std::uint32_t r, bool parent_ready);
  void grant_or_stall(std::uint32_t r, const Flit& flit,
                      std::uint32_t port, bool parent_ready);
  void close_port(std::uint32_t r, std::size_t port);
  bool propagate_closures();

  std::size_t num_pes_;
  std::size_t radix_;
  std::size_t depth_;
  std::size_t credit_latency_;
  RouterMode mode_;
  std::size_t num_leaves_;
  std::uint32_t root_ = 0;  ///< index of the root (the last router)

  std::vector<Router> routers_;    ///< level-major, root last
  std::vector<RouterPort> ports_;  ///< radix_ per router, in router order
  std::vector<Flit> slots_;        ///< depth_ per port, in port order
  /// Credit-return stamps, same shape as slots_; empty for 1-cycle
  /// credits (never tracked, see can_accept).
  std::vector<std::uint64_t> credits_;
  std::vector<std::uint64_t> busy_;     ///< bitset: routers holding flits
  /// Bitset: all-closed routers whose parent port is still open — the
  /// only candidates for kAccumulate closure propagation.
  std::vector<std::uint64_t> closing_;
  std::vector<Grant> grants_;  ///< this step's forwards, ascending router

  std::uint64_t now_ = 0;            ///< cycles stepped since reset
  std::uint64_t last_credit_at_ = 0;  ///< newest credit-return stamp
  std::size_t buffered_total_ = 0;   ///< flits sitting in any router
  /// Whether the previous step() granted any output anywhere. Starts
  /// (and resets) true so the first cycle of a phase always runs the
  /// full per-cycle path.
  bool last_step_transferred_ = true;
  /// Whether the previous step() was a pure wait cycle (no decisions,
  /// no closure change). Starts (and resets) false — conservative: the
  /// first cycle after any reset must execute for real.
  bool last_step_quiet_ = false;
};

/// Root-to-PEs pipelined multicast with fixed per-level latency.
class BroadcastChannel {
 public:
  /// `latency` = cycles from entry to delivery (levels × hop latency).
  explicit BroadcastChannel(std::size_t latency);

  bool can_send() const noexcept { return true; }  // contention-free
  void send(const Flit& flit);

  /// Advances one cycle; returns the flit delivered to all PEs this
  /// cycle, if any. The owner fans it out to the PE queues (it already
  /// checked receiver backpressure before send()). Inline — one call
  /// per simulated cycle.
  std::optional<Flit> step() {
    ++now_;
    if (head_ < in_flight_.size() &&
        in_flight_[head_].deliver_at <= now_) {
      const Flit f = in_flight_[head_].flit;
      if (++head_ == in_flight_.size()) {  // drained: compact
        in_flight_.clear();
        head_ = 0;
      }
      return f;
    }
    return std::nullopt;
  }

  bool idle() const noexcept { return head_ == in_flight_.size(); }
  std::size_t in_flight() const noexcept {
    return in_flight_.size() - head_;
  }

  /// Advances `k` cycles with nothing in flight — bit-identical to k
  /// step() calls returning nothing. Requires idle().
  void skip(std::uint64_t k) noexcept { now_ += k; }

  /// Drops any in-flight flits and rewinds the clock; the backing
  /// storage (grown to the busiest phase so far) is kept.
  void reset() noexcept {
    in_flight_.clear();
    head_ = 0;
    now_ = 0;
  }

  /// Pre-sizes the in-flight FIFO for a phase that will send at most
  /// `flits` (the simulator knows the exact bound: rank for the V
  /// phase, the nonzero-input count for the W phase), so send() never
  /// reallocates mid-phase — part of the allocation-free steady-state
  /// contract of the arena entry point.
  void reserve(std::size_t flits) { in_flight_.reserve(flits); }

 private:
  struct Timed {
    Flit flit;
    std::uint64_t deliver_at;
  };
  std::size_t latency_;
  std::uint64_t now_ = 0;
  /// FIFO by construction: consumed entries advance head_; the vector
  /// is compacted (capacity kept) whenever it drains, so steady-state
  /// operation never reallocates.
  std::vector<Timed> in_flight_;
  std::size_t head_ = 0;
};

}  // namespace sparsenn
