// Randomised property tests of the NoC protocol: whatever traffic is
// offered, the H-tree must conserve flits (no loss, no duplication),
// preserve per-source FIFO order, never overflow a buffer (the credit
// protocol would trap), and always drain to idle. A differential test
// steps UpwardTree beside a naive eager reference tree and compares
// every cycle.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "noc/htree.hpp"

namespace sparsenn {
namespace {

struct FuzzConfig {
  std::size_t num_pes;
  std::size_t levels;
  FlowControl flow;
  std::size_t buffer_depth;
  double inject_probability;  ///< chance a ready PE injects this cycle
  double drain_probability;   ///< chance the root consumer is ready
  std::uint64_t seed;
};

class NocFuzz : public ::testing::TestWithParam<FuzzConfig> {};

TEST_P(NocFuzz, ConservationOrderAndDrain) {
  const FuzzConfig config = GetParam();
  ArchParams params;
  params.num_pes = config.num_pes;
  params.router_levels = config.levels;
  params.flow_control = config.flow;
  params.router_buffer_depth = config.buffer_depth;
  params.validate();

  Rng rng{config.seed};
  UpwardTree tree(params, RouterMode::kArbitrate);

  // Random per-PE traffic with ascending indices (as an LNZD produces).
  std::vector<std::vector<Flit>> pending(params.num_pes);
  std::size_t total = 0;
  for (std::size_t pe = 0; pe < params.num_pes; ++pe) {
    const std::size_t n = rng.uniform_index(24);
    std::uint32_t index = static_cast<std::uint32_t>(pe);
    for (std::size_t k = 0; k < n; ++k) {
      index += static_cast<std::uint32_t>(
          params.num_pes * (1 + rng.uniform_index(3)));
      pending[pe].push_back(
          Flit{.index = index,
               .payload = static_cast<std::int64_t>(rng.uniform_index(1 << 20)),
               .source = static_cast<std::uint16_t>(pe)});
      ++total;
    }
  }
  std::map<std::uint32_t, std::int64_t> expected;
  for (const auto& q : pending)
    for (const Flit& f : q) expected[f.index] += f.payload;

  std::map<std::uint32_t, std::int64_t> received;
  std::map<std::uint16_t, std::uint32_t> last_index_from;
  std::size_t count = 0;
  std::uint64_t guard = 0;

  // Inject and drain stochastically; then force-drain.
  while (count < total) {
    ASSERT_LT(++guard, 2'000'000u)
        << "deadlock at " << count << "/" << total;
    for (std::size_t pe = 0; pe < params.num_pes; ++pe) {
      if (!pending[pe].empty() && tree.can_inject(pe) &&
          rng.uniform() < config.inject_probability) {
        tree.inject(pe, pending[pe].front());
        pending[pe].erase(pending[pe].begin());
      }
    }
    const bool ready = rng.uniform() < config.drain_probability;
    if (const auto out = tree.step(ready)) {
      ASSERT_TRUE(ready) << "flit left the root while consumer stalled";
      received[out->index] += out->payload;
      ++count;
      // Per-source FIFO order must survive arbitrary arbitration.
      const auto it = last_index_from.find(out->source);
      if (it != last_index_from.end()) {
        EXPECT_GT(out->index, it->second)
            << "PE " << out->source << " flits reordered";
      }
      last_index_from[out->source] = out->index;
    }
  }

  EXPECT_EQ(received, expected);  // conservation: no loss, no dupes
  // The tree must be fully drained once everything was delivered.
  std::size_t settle = 0;
  while (!tree.idle()) {
    ASSERT_LT(++settle, 1000u) << "tree did not drain to idle";
    tree.step(true);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Traffic, NocFuzz,
    ::testing::Values(
        // Paper-scale, smooth traffic.
        FuzzConfig{64, 3, FlowControl::kPacketBufferCredit, 4, 1.0, 1.0,
                   101},
        // Paper-scale, bursty injection and a slow consumer.
        FuzzConfig{64, 3, FlowControl::kPacketBufferCredit, 4, 0.4, 0.5,
                   102},
        // Deep buffers.
        FuzzConfig{64, 3, FlowControl::kPacketBufferCredit, 8, 0.8, 0.9,
                   103},
        // Unbuffered handshake under pressure.
        FuzzConfig{64, 3, FlowControl::kUnbuffered, 4, 1.0, 0.7, 104},
        // Small array, stuttering consumer.
        FuzzConfig{16, 2, FlowControl::kPacketBufferCredit, 4, 0.6, 0.3,
                   105},
        // Minimal array.
        FuzzConfig{4, 1, FlowControl::kPacketBufferCredit, 2, 1.0, 1.0,
                   106}),
    [](const ::testing::TestParamInfo<FuzzConfig>& info) {
      const FuzzConfig& c = info.param;
      return std::to_string(c.num_pes) + "pe_" +
             (c.flow == FlowControl::kUnbuffered ? "unbuffered"
                                                 : "buffered") +
             "_seed" + std::to_string(c.seed);
    });

/// The reduction mode under the same stochastic stress: sums must stay
/// exact whatever the injection pattern.
TEST(NocFuzzReduction, StochasticReductionStaysExact) {
  ArchParams params;  // paper scale
  for (const std::uint64_t seed : {201u, 202u, 203u}) {
    Rng rng{seed};
    UpwardTree tree(params, RouterMode::kAccumulate);
    const std::size_t rank = 1 + rng.uniform_index(24);

    std::vector<std::int64_t> expected(rank, 0);
    std::vector<std::vector<Flit>> pending(params.num_pes);
    for (std::size_t pe = 0; pe < params.num_pes; ++pe) {
      for (std::uint32_t row = 0; row < rank; ++row) {
        const auto value =
            static_cast<std::int64_t>(rng.uniform_index(1 << 16)) -
            (1 << 15);
        pending[pe].push_back(
            Flit{.index = row, .payload = value,
                 .source = static_cast<std::uint16_t>(pe)});
        expected[row] += value;
      }
    }

    std::vector<bool> closed(params.num_pes, false);
    std::vector<std::int64_t> sums;
    std::uint64_t guard = 0;
    while (sums.size() < rank) {
      ASSERT_LT(++guard, 1'000'000u) << "reduction deadlocked";
      for (std::size_t pe = 0; pe < params.num_pes; ++pe) {
        if (!pending[pe].empty() && tree.can_inject(pe) &&
            rng.bernoulli(0.7)) {
          tree.inject(pe, pending[pe].front());
          pending[pe].erase(pending[pe].begin());
          if (pending[pe].empty()) {
            tree.close_injector(pe);
            closed[pe] = true;
          }
        }
      }
      if (const auto out = tree.step(rng.bernoulli(0.8))) {
        EXPECT_EQ(out->index, sums.size());
        sums.push_back(out->payload);
      }
    }
    EXPECT_EQ(sums, expected) << "seed " << seed;
  }
}

/// The naive H-tree the change-driven UpwardTree must match: every
/// router holding flits decides every cycle and charges its conflicts,
/// ACC additions and credit stalls on the spot, occupancy is summed
/// every cycle, and each port keeps its credit stamps in a list that
/// every credit read scans.
class EagerTree {
 public:
  EagerTree(std::size_t num_pes, std::size_t radix, std::size_t depth,
            std::size_t credit_latency, RouterMode mode)
      : num_pes_(num_pes),
        radix_(radix),
        depth_(depth),
        latency_(credit_latency),
        mode_(mode) {
    // Tiers from the leaves up, level-major, the root last: router i
    // of a tier feeds port i % radix of router i / radix of the next.
    std::size_t begin = 0;
    for (std::size_t tier = num_pes / radix;; tier /= radix) {
      for (std::size_t i = 0; i < tier; ++i) {
        Node n;
        n.parent = tier == 1 ? begin : begin + tier + i / radix;
        n.up_port = n.parent * radix + i % radix;
        nodes_.push_back(n);
      }
      if (tier == 1) break;
      begin += tier;
    }
    ports_.resize(nodes_.size() * radix);
  }

  bool can_inject(std::size_t pe) const { return has_room(pe); }
  void inject(std::size_t pe, const Flit& flit) {
    ports_[pe].flits.push_back(flit);
  }
  void close_injector(std::size_t pe) { ports_[pe].closed = true; }

  bool idle() const {
    for (const Port& p : ports_)
      if (!p.flits.empty()) return false;
    return true;
  }

  std::optional<Flit> step(bool root_ready) {
    const std::size_t root = nodes_.size() - 1;
    struct Grant {
      std::size_t router;
      Flit flit;
      std::size_t port;  ///< radix_ for an ACC firing
    };
    std::vector<Grant> grants;
    for (std::size_t r = 0; r < nodes_.size(); ++r) {
      if (buffered(r) == 0) continue;
      Node& node = nodes_[r];
      const bool ready = r == root ? root_ready : has_room(node.up_port);
      Grant g{r, Flit{}, radix_};
      if (mode_ == RouterMode::kArbitrate) {
        std::size_t candidates = 0;
        for (std::size_t p = 0; p < radix_; ++p) {
          const Port& port = ports_[r * radix_ + p];
          if (port.flits.empty()) continue;
          if (candidates++ == 0 || port.flits.front().index < g.flit.index) {
            g.flit = port.flits.front();
            g.port = p;
          }
        }
        if (candidates > 1) ++node.conflicts;
      } else {
        bool waits = false;
        std::uint32_t row = UINT32_MAX;
        for (std::size_t p = 0; p < radix_; ++p) {
          const Port& port = ports_[r * radix_ + p];
          if (port.flits.empty()) {
            waits = waits || !port.closed;
          } else {
            row = std::min(row, port.flits.front().index);
          }
        }
        if (waits) continue;
        g.flit.index = row;
        std::uint64_t contributors = 0;
        for (std::size_t p = 0; p < radix_; ++p) {
          const Port& port = ports_[r * radix_ + p];
          if (port.flits.empty() || port.flits.front().index != row)
            continue;
          g.flit.payload += port.flits.front().payload;
          g.flit.source = port.flits.front().source;
          ++contributors;
        }
        node.acc += contributors - 1;
      }
      if (ready) {
        grants.push_back(g);
      } else {
        ++node.stalls;
      }
    }

    std::optional<Flit> out;
    for (auto g = grants.rbegin(); g != grants.rend(); ++g) {
      for (std::size_t p = 0; p < radix_; ++p) {
        Port& port = ports_[g->router * radix_ + p];
        const bool pops = g->port < radix_
                              ? p == g->port
                              : !port.flits.empty() &&
                                    port.flits.front().index == g->flit.index;
        if (!pops) continue;
        port.flits.pop_front();
        if (latency_ > 1) port.credits.push_back(now_ + latency_);
      }
      Node& node = nodes_[g->router];
      ++node.forwarded;
      node.fired_at = now_;
      if (g->router == root) {
        out = g->flit;
      } else {
        ports_[node.up_port].flits.push_back(g->flit);
      }
    }

    if (mode_ == RouterMode::kAccumulate) {
      // A drained, all-closed subtree that did not fire this cycle
      // closes its parent's port; ascending order lets it climb.
      for (std::size_t r = 0; r < root; ++r) {
        const Node& node = nodes_[r];
        bool all_closed = true;
        for (std::size_t p = 0; p < radix_; ++p)
          all_closed = all_closed && ports_[r * radix_ + p].closed;
        if (all_closed && buffered(r) == 0 && node.fired_at != now_)
          ports_[node.up_port].closed = true;
      }
    }
    // Occupancy counts the flits buffered at the end of each cycle.
    for (std::size_t r = 0; r < num_pes_ / radix_; ++r)
      nodes_[r].occupancy += buffered(r);
    ++now_;
    return out;
  }

  NocStats stats() const {
    NocStats out;
    double occupancy = 0.0;
    const std::size_t leaves = num_pes_ / radix_;
    for (std::size_t r = 0; r < nodes_.size(); ++r) {
      const Node& n = nodes_[r];
      out.flit_hops += n.forwarded;
      out.acc_operations += n.acc;
      out.arbitration_conflicts += n.conflicts;
      out.credit_stalls += n.stalls;
      if (r < leaves)
        occupancy += now_ ? static_cast<double>(n.occupancy) /
                                static_cast<double>(now_)
                          : 0.0;
    }
    out.mean_leaf_occupancy = occupancy / static_cast<double>(leaves);
    out.root_flits = nodes_.back().forwarded;
    return out;
  }

 private:
  struct Port {
    std::deque<Flit> flits;
    std::vector<std::uint64_t> credits;  ///< return stamps, any age
    bool closed = false;
  };
  struct Node {
    std::size_t parent = 0;
    std::size_t up_port = 0;
    std::uint64_t fired_at = UINT64_MAX;
    std::uint64_t forwarded = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t stalls = 0;
    std::uint64_t acc = 0;
    std::uint64_t occupancy = 0;
  };

  bool has_room(std::size_t port) const {
    const Port& p = ports_[port];
    std::size_t in_flight = 0;
    for (const std::uint64_t at : p.credits)
      if (at > now_) ++in_flight;
    return p.flits.size() + in_flight < depth_;
  }

  std::size_t buffered(std::size_t r) const {
    std::size_t n = 0;
    for (std::size_t p = 0; p < radix_; ++p)
      n += ports_[r * radix_ + p].flits.size();
    return n;
  }

  std::size_t num_pes_;
  std::size_t radix_;
  std::size_t depth_;
  std::size_t latency_;
  RouterMode mode_;
  std::vector<Node> nodes_;
  std::vector<Port> ports_;
  std::uint64_t now_ = 0;
};

struct DiffConfig {
  std::size_t num_pes;
  std::size_t radix;
  std::size_t depth;
  std::size_t credit_latency;  ///< > 1: the unbuffered-style stamps
  RouterMode mode;
  std::uint64_t seed;
};

class NocDifferential : public ::testing::TestWithParam<DiffConfig> {};

/// Random injections, random runs of root_ready and random skips over
/// the cycles the tree calls quiet: after every cycle the returned
/// flit, every PE's credit view, idle() and every NocStats field must
/// equal the eager reference's.
TEST_P(NocDifferential, StatsMatchEagerReferenceEveryCycle) {
  const DiffConfig c = GetParam();
  const bool acc = c.mode == RouterMode::kAccumulate;
  for (std::size_t trial = 0; trial < 16; ++trial) {
    Rng rng{c.seed * 100 + trial};
    UpwardTree tree(c.num_pes, c.radix, c.depth, c.credit_latency, c.mode);
    EagerTree ref(c.num_pes, c.radix, c.depth, c.credit_latency, c.mode);

    // kArbitrate: unique ascending indices per PE (index ≡ pe mod P,
    // as the LNZD emits them). kAccumulate: every PE sends rows
    // 0..rank-1 and then closes.
    const std::size_t rank = 1 + rng.uniform_index(12);
    std::vector<std::deque<Flit>> pending(c.num_pes);
    for (std::size_t pe = 0; pe < c.num_pes; ++pe) {
      const std::size_t n = acc ? rank : rng.uniform_index(24);
      auto index = static_cast<std::uint32_t>(pe);
      for (std::size_t k = 0; k < n; ++k) {
        if (acc) {
          index = static_cast<std::uint32_t>(k);
        } else {
          index += static_cast<std::uint32_t>(
              c.num_pes * (1 + rng.uniform_index(3)));
        }
        pending[pe].push_back(
            Flit{.index = index,
                 .payload = static_cast<std::int64_t>(rng.uniform_index(1000)),
                 .source = static_cast<std::uint16_t>(pe)});
      }
    }
    // Each PE starts after a random delay, so ragged reductions and
    // partly filled trees both occur.
    std::vector<std::uint64_t> start(c.num_pes);
    for (auto& t : start) t = rng.uniform_index(40);
    const double inject_p = 0.2 + 0.8 * rng.uniform();

    bool root_ready = true;
    std::uint64_t cycle = 0;
    std::size_t left = 0;
    for (const auto& q : pending) left += q.size();
    while (left > 0 || !ref.idle()) {
      ASSERT_LT(cycle, 100'000u) << "deadlock, trial " << trial;
      // Runs of a closed or open root consumer: long stall windows.
      if (rng.bernoulli(0.15)) root_ready = !root_ready;

      if (rng.bernoulli(0.3) && tree.quiet(root_ready)) {
        const std::uint64_t k = 1 + rng.uniform_index(6);
        tree.skip(k, root_ready);
        for (std::uint64_t i = 0; i < k; ++i)
          ASSERT_FALSE(ref.step(root_ready).has_value())
              << "a quiet tree moved a flit, trial " << trial;
        cycle += k;
      } else {
        for (std::size_t pe = 0; pe < c.num_pes; ++pe) {
          ASSERT_EQ(tree.can_inject(pe), ref.can_inject(pe))
              << "PE " << pe << " cycle " << cycle << " trial " << trial;
          if (pending[pe].empty() || cycle < start[pe] ||
              !ref.can_inject(pe) || !rng.bernoulli(inject_p))
            continue;
          tree.inject(pe, pending[pe].front());
          ref.inject(pe, pending[pe].front());
          pending[pe].pop_front();
          --left;
          if (acc && pending[pe].empty()) {
            tree.close_injector(pe);
            ref.close_injector(pe);
          }
        }
        const std::optional<Flit> got = tree.step(root_ready);
        const std::optional<Flit> want = ref.step(root_ready);
        ASSERT_EQ(got, want) << "cycle " << cycle << " trial " << trial;
        ++cycle;
      }
      ASSERT_EQ(tree.stats(), ref.stats())
          << "cycle " << cycle << " trial " << trial;
      ASSERT_EQ(tree.idle(), ref.idle());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, NocDifferential,
    ::testing::Values(
        DiffConfig{64, 4, 4, 1, RouterMode::kArbitrate, 301},
        DiffConfig{64, 4, 1, 4, RouterMode::kArbitrate, 302},
        DiffConfig{16, 2, 2, 2, RouterMode::kArbitrate, 303},
        DiffConfig{64, 4, 4, 1, RouterMode::kAccumulate, 304},
        DiffConfig{64, 4, 1, 4, RouterMode::kAccumulate, 305},
        DiffConfig{16, 2, 2, 2, RouterMode::kAccumulate, 306}),
    [](const ::testing::TestParamInfo<DiffConfig>& info) {
      const DiffConfig& c = info.param;
      return std::string(c.mode == RouterMode::kArbitrate ? "arbitrate"
                                                          : "accumulate") +
             "_" + std::to_string(c.num_pes) + "pe_depth" +
             std::to_string(c.depth) + "_credit" +
             std::to_string(c.credit_latency);
    });

}  // namespace
}  // namespace sparsenn
