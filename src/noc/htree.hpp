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
// every port's flit ring inline. The tree owns the only clock.
//
// Change-driven stepping. A router's decision is a pure function of
// its heads, its closures and its parent's credit view, so the tree
// re-decides a router only when one of those changed. step() visits
// the busy routers that are either dirty (a push into an empty port, a
// pop or a closure since their last decision) or whose parent can
// accept (a credit bitset kept current on push, pop and credit
// expiry; the root's bit is step()'s root_ready), minus kAccumulate
// routers still waiting on a laggard child. The visit decides from
// begin-of-cycle state (arbitration or ACC), then the winners commit
// root first — each router pops its begin-of-cycle heads before any
// child pushes into it — so a hop takes exactly one cycle. A decision
// that dies on a closed parent credit window opens a stall charged
// lazily per cycle (Router::stall_since) and settled at the router's
// next visit, which comes as soon as an input changes; stats() folds
// the open charges in. An arbitrating router keeps its winner current
// as flits arrive and rescans its ports only after a pop. Nothing
// costs per idle or stalled router per cycle: buffer occupancy is
// integrated on change too, and credits that take more than one cycle
// return through one clock-ordered stamp queue, so quiet() is a few
// word tests and skip() only moves the clock.
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
#include <span>
#include <vector>

#include "arch/params.hpp"
#include "common/check.hpp"
#include "common/ring_buffer.hpp"
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

  /// Can PE `pe` inject this cycle? (credit view of its leaf port, which
  /// is port `pe` of the flat port array)
  bool can_inject(std::size_t pe) const {
    expects(pe < num_pes_, "PE id out of range");
    return test_bit(inject_credit_, pe);
  }
  /// Every PE's can_inject as a bitset (bit i of word i / 64), kept
  /// current on push, pop and credit expiry. Injecting into PE i
  /// changes only bit i.
  std::span<const std::uint64_t> injectable() const noexcept {
    return inject_credit_;
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

  /// True when step(root_ready) would change nothing but the clock and
  /// the lazily charged stalls, and so would every step after it until
  /// the caller injects or closes an injector: credits are quiet, no
  /// closure is pending, and step() would visit no router (none dirty,
  /// and every busy router either waits on a laggard child or has a
  /// closed parent credit window). One word test per 64 routers.
  bool quiet(bool root_ready) const;

  /// Advances `k` cycles, bit-identical to k step(root_ready) calls
  /// that inject nothing: only the clock moves (occupancy and stalls
  /// are charged lazily, credit stamps expire). Requires idle() or
  /// quiet(root_ready); an idle tree's caller guarantees that no
  /// injector waits on a returning credit.
  void skip(std::uint64_t k, bool root_ready);

  /// Empties every router, reopens all injectors, zeroes the statistics
  /// and rewinds the clock — bit-identical to constructing a fresh
  /// tree, without the allocations.
  void reset();

  /// Router `r` of the flat array (leaves first, root last), its open
  /// stall charged up to now.
  Router router(std::size_t r) const {
    expects(r < routers_.size(), "router id out of range");
    Router out = routers_[r];
    out.stats = out.settled_stats(now_);
    return out;
  }

  NocStats stats() const;

 private:
  /// A forward decided this cycle: `port` is the arbitration winner, or
  /// radix_ for an ACC firing (every port whose head carries the row).
  struct Grant {
    Flit flit;
    std::uint32_t router;
    std::uint32_t port;
  };
  /// A credit on its way back to the child feeding `port`; it arrives
  /// when the clock reaches `at`.
  struct CreditStamp {
    std::uint64_t at;
    std::size_t port;
  };

  /// True when no credit anywhere in the tree is still travelling back
  /// to a child (always true for the buffered latency-1 default).
  bool credits_quiet() const noexcept { return credit_stamps_.empty(); }

  static bool test_bit(std::span<const std::uint64_t> bits,
                       std::size_t i) noexcept {
    return (bits[i >> 6] >> (i & 63)) & 1;
  }
  static void set_bit(std::vector<std::uint64_t>& bits,
                      std::size_t i) noexcept {
    bits[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  static void clear_bit(std::vector<std::uint64_t>& bits,
                        std::size_t i) noexcept {
    bits[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  static void assign_bit(std::vector<std::uint64_t>& bits, std::size_t i,
                         bool on) noexcept {
    if (on) {
      set_bit(bits, i);
    } else {
      clear_bit(bits, i);
    }
  }

  /// Re-reads flat port `port`'s credit view into its bit: a free slot,
  /// counting credits still travelling back to the child as occupied.
  /// Leaf port p is PE p's injector; port r + num_pes_ is router r's
  /// parent port.
  void note_credit(std::size_t port) noexcept {
    const RouterPort& p = ports_[port];
    const bool room = p.count + p.in_flight < depth_;
    if (port < num_pes_) {
      assign_bit(inject_credit_, port, room);
    } else {
      assign_bit(up_credit_, port - num_pes_, room);
    }
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
    if (p.count == 0) {
      // A new head changes the router's decision.
      set_bit(dirty_, r);
      if (!router.rescan) {
        // It wins if it beats the current winner's.
        const auto local = static_cast<std::uint32_t>(port - r * radix_);
        if (router.candidates == 0 ||
            flit.index < head(r * radix_ + router.winner).index)
          router.winner = local;
        ++router.candidates;
      }
    }
    std::size_t slot = p.head + p.count;
    if (slot >= depth_) slot -= depth_;
    slots_[port * depth_ + slot] = flit;
    ++p.count;
    note_credit(port);
    note_occupancy(router);
    ++router.buffered;
    ++buffered_total_;
    set_bit(busy_, r);
  }

  void pop(std::uint32_t r, std::size_t port);
  /// Decides for busy router `r` from begin-of-cycle state, settling
  /// its open stall first.
  void decide(std::uint32_t r);
  /// Returns false when the ACC waits (an open port has no head yet).
  bool accumulate(std::uint32_t r, Flit& combined,
                  std::uint32_t& acc_ops) const;
  void close_port(std::uint32_t r, std::size_t port);
  void propagate_closures();
  /// Returns the credits whose stamps the clock has reached.
  void expire_credits();

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
  /// Credits taking more than one cycle, in clock order (every stamp
  /// takes credit_latency_); 1-cycle credits are never stamped.
  RingBuffer<CreditStamp> credit_stamps_;
  // Router bitsets, bit r of word r / 64.
  std::vector<std::uint64_t> busy_;   ///< holds flits
  std::vector<std::uint64_t> dirty_;  ///< an input changed since deciding
  /// kAccumulate: last decision was to wait on a laggard child.
  std::vector<std::uint64_t> waiting_;
  /// Parent input port has room (root: this step's root_ready).
  std::vector<std::uint64_t> up_credit_;
  /// kAccumulate: all-closed routers whose parent port is still open —
  /// the only candidates for closure propagation.
  std::vector<std::uint64_t> closing_;
  std::vector<std::uint64_t> inject_credit_;  ///< per PE: leaf port room
  std::vector<Grant> grants_;  ///< this step's forwards, ascending router

  std::uint64_t now_ = 0;            ///< cycles stepped since reset
  std::size_t buffered_total_ = 0;   ///< flits sitting in any router
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
