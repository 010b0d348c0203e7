#include "noc/htree.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace sparsenn {
namespace {

std::size_t credit_latency_for(const ArchParams& params) {
  // Buffered credit flow control returns credits in one cycle; the
  // unbuffered ablation waits a full router-pipeline round trip with a
  // single slot, which is what serialises the transfers.
  return params.flow_control == FlowControl::kPacketBufferCredit
             ? 1
             : params.router_pipeline_stages;
}

std::size_t buffer_depth_for(const ArchParams& params) {
  return params.flow_control == FlowControl::kPacketBufferCredit
             ? params.router_buffer_depth
             : 1;
}

const ArchParams& validated(const ArchParams& params) {
  params.validate();
  return params;
}

constexpr std::size_t kNone = SIZE_MAX;

/// First set bit at or after `from` in a word-array bitset, or kNone.
std::size_t next_set(const std::vector<std::uint64_t>& bits,
                     std::size_t from) {
  std::size_t w = from >> 6;
  if (w >= bits.size()) return kNone;
  std::uint64_t word = bits[w] & (~std::uint64_t{0} << (from & 63));
  while (word == 0) {
    if (++w == bits.size()) return kNone;
    word = bits[w];
  }
  return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
}

}  // namespace

UpwardTree::UpwardTree(const ArchParams& params, RouterMode mode)
    : UpwardTree(validated(params).num_pes, params.router_radix,
                 buffer_depth_for(params), credit_latency_for(params),
                 mode) {}

UpwardTree::UpwardTree(std::size_t num_pes, std::size_t radix,
                       std::size_t buffer_depth,
                       std::size_t credit_latency, RouterMode mode)
    : num_pes_(num_pes),
      radix_(radix),
      depth_(buffer_depth),
      credit_latency_(credit_latency),
      mode_(mode),
      num_leaves_(num_pes / radix) {
  expects(radix > 1, "router radix must be at least 2");
  expects(buffer_depth > 0, "router buffer depth must be positive");
  expects(num_pes >= radix && num_pes % radix == 0,
          "PE count must be a positive multiple of the router radix");

  // Tiers until a single root remains (64 PEs → 16 → 4 → 1), stored
  // level-major: tier t's router i feeds router i / radix of tier t+1,
  // on port i % radix.
  std::size_t tier_begin = 0;
  for (std::size_t tier = num_leaves_;; tier /= radix_) {
    const std::size_t next_begin = tier_begin + tier;
    for (std::size_t i = 0; i < tier; ++i) {
      Router r;
      if (tier == 1) {
        r.parent = static_cast<std::uint32_t>(tier_begin);
      } else {
        r.parent = static_cast<std::uint32_t>(next_begin + i / radix_);
        r.up_port =
            static_cast<std::uint32_t>(r.parent * radix_ + i % radix_);
      }
      routers_.push_back(r);
    }
    if (tier == 1) break;
    ensures(tier % radix_ == 0, "router tier does not tile");
    tier_begin = next_begin;
  }
  root_ = static_cast<std::uint32_t>(routers_.size() - 1);

  // Router r's parent port is port r + num_pes (tier t+1's ports list
  // tier t's routers in order), so one credit note serves both bitsets.
  for (std::uint32_t r = 0; r < root_; ++r)
    ensures(routers_[r].up_port == r + num_pes_,
            "router parent ports do not follow the router order");

  ports_.resize(routers_.size() * radix_);
  slots_.resize(ports_.size() * depth_);
  // The credit protocol bounds buffered + in-flight by the depth per
  // port, so the stamp queue never holds more than every slot.
  if (credit_latency_ > 1) credit_stamps_.assign_capacity(slots_.size());
  for (auto* bits : {&busy_, &dirty_, &waiting_, &up_credit_, &closing_})
    bits->resize((routers_.size() + 63) / 64);
  inject_credit_.resize((num_pes_ + 63) / 64);
  grants_.reserve(routers_.size());
  reset();
}

void UpwardTree::reset() {
  for (Router& r : routers_) {
    // Everything but the wiring returns to its default.
    Router fresh;
    fresh.parent = r.parent;
    fresh.up_port = r.up_port;
    fresh.open_ports = static_cast<std::uint32_t>(radix_);
    r = fresh;
  }
  for (RouterPort& p : ports_) p = RouterPort{};
  credit_stamps_.clear();
  for (auto* bits : {&busy_, &dirty_, &waiting_, &up_credit_, &closing_,
                     &inject_credit_})
    std::fill(bits->begin(), bits->end(), 0);
  for (std::size_t port = 0; port < ports_.size(); ++port)
    note_credit(port);
  grants_.clear();
  now_ = 0;
  buffered_total_ = 0;
}

void UpwardTree::pop(std::uint32_t r, std::size_t port) {
  RouterPort& p = ports_[port];
  if (++p.head == depth_) p.head = 0;
  --p.count;
  Router& router = routers_[r];
  router.rescan = true;
  set_bit(dirty_, r);
  note_occupancy(router);
  if (--router.buffered == 0) clear_bit(busy_, r);
  --buffered_total_;
  if (credit_latency_ > 1) {
    // The freed slot's credit reaches the child credit_latency_ cycles
    // from now; until then the slot still counts as occupied.
    ++p.in_flight;
    credit_stamps_.push_back(CreditStamp{now_ + credit_latency_, port});
  } else {
    note_credit(port);
  }
}

void UpwardTree::expire_credits() {
  while (!credit_stamps_.empty() && credit_stamps_.front().at <= now_) {
    const std::size_t port = credit_stamps_.front().port;
    credit_stamps_.pop_front();
    --ports_[port].in_flight;
    note_credit(port);
  }
}

void UpwardTree::decide(std::uint32_t r) {
  Router& router = routers_[r];
  // Every cycle since the stall opened made the same decision.
  router.stats = router.settled_stats(now_);
  router.stall_since = Router::kNoStall;

  const std::size_t base = r * radix_;
  Flit flit;
  std::uint32_t port = static_cast<std::uint32_t>(radix_);
  std::uint32_t conflicts = 0;
  std::uint32_t acc_ops = 0;
  if (mode_ == RouterMode::kArbitrate) {
    // The smallest head index wins; losers wait in their buffers.
    if (router.rescan) {
      router.candidates = 0;
      for (std::size_t p = 0; p < radix_; ++p) {
        if (ports_[base + p].count == 0) continue;
        if (router.candidates == 0 ||
            head(base + p).index < head(base + router.winner).index)
          router.winner = static_cast<std::uint32_t>(p);
        ++router.candidates;
      }
      router.rescan = false;
    }
    conflicts = router.candidates > 1 ? 1 : 0;
    flit = head(base + router.winner);
    port = router.winner;
  } else {
    const bool fires = accumulate(r, flit, acc_ops);
    assign_bit(waiting_, r, !fires);
    if (!fires) return;
  }

  if (test_bit(up_credit_, r)) {
    router.stats.arbitration_conflicts += conflicts;
    router.stats.acc_operations += acc_ops;
    grants_.push_back(Grant{flit, r, port});
  } else {
    // A credit stall: this decision repeats every cycle until an input
    // changes, and is charged when the router is next decided.
    router.stall_since = now_;
    router.stall_conflicts = conflicts;
    router.stall_acc_ops = acc_ops;
  }
}

bool UpwardTree::accumulate(std::uint32_t r, Flit& combined,
                            std::uint32_t& acc_ops) const {
  // Wait until every open port has its head flit; closed ports with
  // drained buffers drop out of the reduction. An empty open port means
  // the ACC waits for the laggard no matter what the other ports hold
  // (the router is busy, so some port holds data).
  const std::size_t base = r * radix_;
  std::uint32_t row = UINT32_MAX;
  for (std::size_t p = 0; p < radix_; ++p) {
    const RouterPort& port = ports_[base + p];
    if (port.count == 0) {
      if (!port.closed) return false;  // ragged: wait for laggard
      continue;
    }
    row = std::min(row, head(base + p).index);
  }
  combined = Flit{};
  combined.index = row;
  std::uint32_t contributors = 0;
  for (std::size_t p = 0; p < radix_; ++p) {
    if (ports_[base + p].count == 0) continue;
    const Flit& f = head(base + p);
    if (f.index != row) continue;
    combined.payload += f.payload;
    combined.source = f.source;
    ++contributors;
  }
  acc_ops = contributors - 1;
  return true;
}

std::optional<Flit> UpwardTree::step(bool root_ready) {
  // Decide pass: the busy routers whose decision can have changed read
  // begin-of-cycle state only — their own heads and their parent's
  // credit view. The others repeat their stall (or ACC wait) for free.
  assign_bit(up_credit_, root_, root_ready);
  grants_.clear();
  for (std::size_t w = 0; w < busy_.size(); ++w) {
    std::uint64_t bits =
        busy_[w] & (dirty_[w] | (up_credit_[w] & ~waiting_[w]));
    dirty_[w] = 0;
    for (; bits != 0; bits &= bits - 1)
      decide(static_cast<std::uint32_t>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits))));
  }

  // Commit pass, root first: each winner pops its begin-of-cycle heads
  // before any child pushes into it, and its flit moves one level up.
  std::optional<Flit> out;
  for (auto g = grants_.rbegin(); g != grants_.rend(); ++g) {
    const std::size_t base = std::size_t{g->router} * radix_;
    if (g->port < radix_) {
      pop(g->router, base + g->port);
    } else {
      for (std::size_t p = 0; p < radix_; ++p) {
        if (ports_[base + p].count != 0 &&
            head(base + p).index == g->flit.index)
          pop(g->router, base + p);
      }
    }
    Router& router = routers_[g->router];
    ++router.stats.flits_forwarded;
    router.fired_at = now_;
    if (g->router == root_) {
      out = g->flit;
    } else {
      push(router.parent, router.up_port, g->flit);
    }
  }

  if (mode_ == RouterMode::kAccumulate) propagate_closures();
  ++now_;
  expire_credits();
  return out;
}

bool UpwardTree::quiet(bool root_ready) const {
  if (!credits_quiet()) return false;
  const std::size_t root_word = root_ >> 6;
  const std::uint64_t root_bit = std::uint64_t{1} << (root_ & 63);
  for (std::size_t w = 0; w < busy_.size(); ++w) {
    std::uint64_t credit = up_credit_[w];
    if (w == root_word)
      credit = root_ready ? credit | root_bit : credit & ~root_bit;
    const std::uint64_t visits =
        busy_[w] & (dirty_[w] | (credit & ~waiting_[w]));
    if ((visits | (closing_[w] & ~busy_[w])) != 0) return false;
  }
  return true;
}

void UpwardTree::skip(std::uint64_t k, bool root_ready) {
  expects(idle() || quiet(root_ready),
          "skip over cycles in which the tree would change");
  now_ += k;
  expire_credits();
}

void UpwardTree::close_port(std::uint32_t r, std::size_t port) {
  if (ports_[port].closed) return;
  ports_[port].closed = true;
  set_bit(dirty_, r);
  --routers_[r].open_ports;
  if (mode_ == RouterMode::kAccumulate && routers_[r].all_closed() &&
      r != root_)
    set_bit(closing_, r);
}

void UpwardTree::close_injector(std::size_t pe) {
  expects(pe < num_pes_, "PE id out of range");
  close_port(static_cast<std::uint32_t>(pe / radix_), pe);
}

void UpwardTree::propagate_closures() {
  // A drained subtree closes its parent's port so the parent's ACC does
  // not wait for children that will never send. A router qualifies
  // once it is all-closed, empty and did not forward this cycle (the
  // state before this cycle's pops, with this cycle's arrivals, held no
  // flit). Ascending order reaches a parent after its children, so a
  // closure can climb several levels in one cycle.
  for (std::size_t r = next_set(closing_, 0); r != kNone;
       r = next_set(closing_, r + 1)) {
    const Router& child = routers_[r];
    if (child.buffered != 0 || child.fired_at == now_) continue;
    clear_bit(closing_, r);
    close_port(child.parent, child.up_port);
  }
}

NocStats UpwardTree::stats() const {
  NocStats out;
  double occupancy = 0.0;
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    const Router& r = routers_[i];
    const RouterStats s = r.settled_stats(now_);
    out.flit_hops += s.flits_forwarded;
    out.acc_operations += s.acc_operations;
    out.arbitration_conflicts += s.arbitration_conflicts;
    out.credit_stalls += s.credit_stalls;
    if (i < num_leaves_) {
      const std::uint64_t sum = s.buffer_occupancy_sum +
                                r.buffered * (now_ - r.occupancy_since);
      occupancy += now_ ? static_cast<double>(sum) /
                              static_cast<double>(now_)
                        : 0.0;
    }
  }
  out.mean_leaf_occupancy =
      occupancy / static_cast<double>(num_leaves_);
  out.root_flits = routers_[root_].stats.flits_forwarded;
  return out;
}

BroadcastChannel::BroadcastChannel(std::size_t latency)
    : latency_(latency) {}

void BroadcastChannel::send(const Flit& flit) {
  in_flight_.push_back({flit, now_ + latency_});
}

}  // namespace sparsenn
