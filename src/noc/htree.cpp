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

  ports_.resize(routers_.size() * radix_);
  slots_.resize(ports_.size() * depth_);
  if (credit_latency_ > 1) credits_.resize(slots_.size());
  busy_.resize((routers_.size() + 63) / 64);
  closing_.resize(busy_.size());
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
  std::fill(busy_.begin(), busy_.end(), 0);
  std::fill(closing_.begin(), closing_.end(), 0);
  grants_.clear();
  now_ = 0;
  last_credit_at_ = 0;
  buffered_total_ = 0;
  last_step_transferred_ = true;
  last_step_quiet_ = false;
}

void UpwardTree::pop(std::uint32_t r, std::size_t port) {
  RouterPort& p = ports_[port];
  if (++p.head == depth_) p.head = 0;
  --p.count;
  Router& router = routers_[r];
  router.rescan = true;
  note_occupancy(router);
  if (--router.buffered == 0) busy_[r >> 6] &= ~(std::uint64_t{1} << (r & 63));
  --buffered_total_;
  if (credit_latency_ > 1) {
    // The freed slot's credit reaches the child credit_latency_ cycles
    // from now. Stamps expired by now can go first: the credit protocol
    // bounds buffered + in-flight by the depth, so the ring never
    // overflows.
    const std::size_t base = port * depth_;
    while (p.credit_count > 0 && credits_[base + p.credit_head] <= now_) {
      if (++p.credit_head == depth_) p.credit_head = 0;
      --p.credit_count;
    }
    std::size_t slot = p.credit_head + p.credit_count;
    if (slot >= depth_) slot -= depth_;
    credits_[base + slot] = now_ + credit_latency_;
    ++p.credit_count;
    last_credit_at_ = now_ + credit_latency_;
  }
}

void UpwardTree::grant_or_stall(std::uint32_t r, const Flit& flit,
                                std::uint32_t port, bool parent_ready) {
  // A decision the parent cannot take is a credit stall; it has already
  // charged its conflict or ACC statistics.
  if (parent_ready) {
    grants_.push_back(Grant{flit, r, port});
  } else {
    ++routers_[r].stats.credit_stalls;
  }
}

void UpwardTree::arbitrate(std::uint32_t r, bool parent_ready) {
  // The smallest head index wins; losers wait in their buffers.
  Router& router = routers_[r];
  const std::size_t base = r * radix_;
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
  if (router.candidates > 1) ++router.stats.arbitration_conflicts;
  grant_or_stall(r, head(base + router.winner), router.winner,
                 parent_ready);
}

bool UpwardTree::accumulate(std::uint32_t r, bool parent_ready) {
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
  Flit combined;
  combined.index = row;
  std::uint64_t contributors = 0;
  for (std::size_t p = 0; p < radix_; ++p) {
    if (ports_[base + p].count == 0) continue;
    const Flit& f = head(base + p);
    if (f.index != row) continue;
    combined.payload += f.payload;
    combined.source = f.source;
    ++contributors;
  }
  routers_[r].stats.acc_operations += contributors - 1;
  grant_or_stall(r, combined, static_cast<std::uint32_t>(radix_),
                 parent_ready);
  return true;
}

std::optional<Flit> UpwardTree::step(bool root_ready) {
  // Decide pass: every busy router reads begin-of-cycle state only —
  // its own heads and its parent's credit view.
  grants_.clear();
  bool decided = false;
  for (std::size_t w = 0; w < busy_.size(); ++w) {
    for (std::uint64_t bits = busy_[w]; bits != 0; bits &= bits - 1) {
      const auto r = static_cast<std::uint32_t>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
      const bool parent_ready =
          r == root_ ? root_ready : can_accept(routers_[r].up_port);
      if (mode_ == RouterMode::kArbitrate) {
        arbitrate(r, parent_ready);  // a busy router always decides
        decided = true;
      } else {
        decided = accumulate(r, parent_ready) || decided;
      }
    }
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
  last_step_transferred_ = !grants_.empty();

  const bool closure_changed =
      mode_ == RouterMode::kAccumulate && propagate_closures();
  last_step_quiet_ = !decided && !closure_changed;
  ++now_;
  return out;
}

void UpwardTree::close_port(std::uint32_t r, std::size_t port) {
  if (ports_[port].closed) return;
  ports_[port].closed = true;
  --routers_[r].open_ports;
  if (routers_[r].all_closed() && r != root_)
    closing_[r >> 6] |= std::uint64_t{1} << (r & 63);
}

void UpwardTree::close_injector(std::size_t pe) {
  expects(pe < num_pes_, "PE id out of range");
  close_port(static_cast<std::uint32_t>(pe / radix_), pe);
}

bool UpwardTree::propagate_closures() {
  // A drained subtree closes its parent's port so the parent's ACC does
  // not wait for children that will never send. A router qualifies
  // once it is all-closed, empty and did not forward this cycle (the
  // state before this cycle's pops, with this cycle's arrivals, held no
  // flit). Ascending order reaches a parent after its children, so a
  // closure can climb several levels in one cycle. Every closure here
  // flips an open port, which can enable that parent's ACC next cycle,
  // so it makes the step non-quiet.
  bool changed = false;
  for (std::size_t r = next_set(closing_, 0); r != kNone;
       r = next_set(closing_, r + 1)) {
    const Router& child = routers_[r];
    if (child.buffered != 0 || child.fired_at == now_) continue;
    closing_[r >> 6] &= ~(std::uint64_t{1} << (r & 63));
    close_port(child.parent, child.up_port);
    changed = true;
  }
  return changed;
}

bool UpwardTree::stalled_static() const {
  if (mode_ != RouterMode::kArbitrate || !credits_quiet()) return false;
  for (std::size_t w = 0; w < busy_.size(); ++w) {
    for (std::uint64_t bits = busy_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t r =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      // A busy non-root router whose parent can accept would move a
      // flit; the root's consumer is closed by the caller's
      // precondition.
      if (r != root_ && can_accept(routers_[r].up_port)) return false;
    }
  }
  return true;
}

void UpwardTree::skip_stalled(std::uint64_t k) {
  expects(mode_ == RouterMode::kArbitrate || buffered_total_ == 0,
          "skip_stalled models the arbitration stall pattern only");
  // Each stalled cycle re-runs the same arbitration in every busy
  // router: a conflict when more than one port has a head flit, then
  // the grant dies on the closed parent credit window.
  for (std::size_t w = 0; w < busy_.size(); ++w) {
    for (std::uint64_t bits = busy_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t r =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      std::size_t candidates = 0;
      for (std::size_t p = 0; p < radix_; ++p)
        if (ports_[r * radix_ + p].count != 0) ++candidates;
      RouterStats& stats = routers_[r].stats;
      if (candidates > 1) stats.arbitration_conflicts += k;
      stats.credit_stalls += k;
    }
  }
  now_ += k;
}

NocStats UpwardTree::stats() const {
  NocStats out;
  double occupancy = 0.0;
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    const Router& r = routers_[i];
    out.flit_hops += r.stats.flits_forwarded;
    out.acc_operations += r.stats.acc_operations;
    out.arbitration_conflicts += r.stats.arbitration_conflicts;
    out.credit_stalls += r.stats.credit_stalls;
    if (i < num_leaves_) {
      const std::uint64_t sum = r.stats.buffer_occupancy_sum +
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
