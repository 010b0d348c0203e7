// Pins the H-tree model at paper scale. The per-cycle and event
// engines step the same UpwardTree, so their equivalence suites cannot
// catch a bug inside the tree; these figures can. For fixed seeds they
// record, per inference, the total cycles and every W- and V-phase
// NocStats field of every layer — hidden widths 96 and 1000, UV on and
// off, under ArchParams::paper() (buffered credit flow control) and
// under the unbuffered flow-control ablation. The table was recorded
// from the nested per-router tree (one object and one clock per
// router, every router stepped every cycle) that the flat router array
// replaced, and must match exactly, mean_leaf_occupancy included. A
// second case pins a ragged reduction's root timeline, which exercises
// closure propagation.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arch/params.hpp"
#include "common/rng.hpp"
#include "nn/network.hpp"
#include "nn/predictor.hpp"
#include "nn/quantized.hpp"
#include "nn/trainer.hpp"
#include "noc/htree.hpp"
#include "sim/accelerator.hpp"
#include "sim/compiled_network.hpp"

namespace sparsenn {
namespace {

/// The pinned network: {784, h, h, h, 10} with random weights and
/// rank-15 random predictors on the hidden layers, quantised against a
/// random calibration batch, plus `inputs` synthetic images (40%
/// nonzero pixels). Everything is drawn from Rng{seed}.
struct PinnedModel {
  QuantizedNetwork network;
  std::vector<std::vector<float>> inputs;
};

PinnedModel pinned_model(std::size_t hidden, std::uint64_t seed,
                         std::size_t inputs) {
  Rng rng{seed};
  Network net{five_layer_topology(hidden), rng};
  for (std::size_t l = 0; l < net.num_hidden_layers(); ++l) {
    const auto sizes = net.layer_sizes();
    net.set_predictor(l,
                      Predictor::random(sizes[l + 1], sizes[l], 15, rng));
  }
  Matrix calib(8, 784);
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib.flat()[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  QuantizedNetwork network(net, calib);
  std::vector<std::vector<float>> images(inputs,
                                         std::vector<float>(784, 0.0f));
  for (auto& x : images)
    for (float& v : x)
      v = rng.bernoulli(0.6) ? 0.0f
                             : static_cast<float>(rng.uniform(0.0, 1.0));
  return PinnedModel{std::move(network), std::move(images)};
}

ArchParams pinned_arch(bool unbuffered) {
  ArchParams arch = ArchParams::paper();
  if (unbuffered) arch.flow_control = FlowControl::kUnbuffered;
  return arch;
}

struct PinnedLayer {
  NocStats w;
  NocStats v;
};

struct PinnedRun {
  std::size_t hidden;
  bool uv_on;
  bool unbuffered;
  std::size_t input;
  std::uint64_t total_cycles;
  std::array<PinnedLayer, 4> layers;
};

// Fields per NocStats: {flit_hops, acc_operations,
// arbitration_conflicts, credit_stalls, mean_leaf_occupancy,
// root_flits}; the occupancy is written as a hex float so the double
// round-trips exactly.
const PinnedRun kPinned[] = {
    {96, true, false, 0, 1162,
     {{{{7608, 0, 9286, 9023, 0x1.4bd30f3f65eb2p+2, 317},
        {630, 2925, 0, 660, 0x1.ac06a63bd81aap+2, 15}},
       {{648, 0, 87, 56, 0x1.8469ee58469eep-6, 27},
        {630, 1710, 0, 255, 0x1.0d829cbc14e5fp+3, 15}},
       {{552, 0, 50, 35, 0x1.9999999999999p-7, 23},
        {630, 1665, 0, 240, 0x1.1d2f05397829dp+3, 15}},
       {{480, 0, 38, 9, 0x1.aaaaaaaaaaaacp-6, 20},
        {0, 0, 0, 0, 0x0p+0, 0}}}}},
    {96, true, false, 1, 1139,
     {{{{7368, 0, 8890, 8791, 0x1.310ac52d90fbdp+2, 307},
        {630, 2835, 0, 630, 0x1.baace213f2b39p+2, 15}},
       {{576, 0, 61, 27, 0x1.2762762762762p-6, 24},
        {630, 1710, 0, 255, 0x1.1849249249249p+3, 15}},
       {{552, 0, 60, 23, 0x1.1eb851eb851ecp-6, 23},
        {630, 1701, 0, 252, 0x1.245397829cbc2p+3, 15}},
       {{552, 0, 52, 17, 0x1.2f684bda12f68p-6, 23},
        {0, 0, 0, 0, 0x0p+0, 0}}}}},
    {96, true, true, 0, 1357,
     {{{{7608, 0, 11422, 11218, 0x1.82685375f7f9ap+1, 317},
        {630, 3777, 0, 944, 0x1.6c44444444444p+0, 15}},
       {{648, 0, 159, 254, 0x1.0f72c234f72c2p-2, 27},
        {630, 2562, 0, 539, 0x1.6f63f63f63f64p+0, 15}},
       {{552, 0, 96, 158, 0x1.f5c28f5c28f5ep-4, 23},
        {630, 2517, 0, 524, 0x1.788888888888ap+0, 15}},
       {{480, 0, 93, 173, 0x1.6464646464646p-3, 20},
        {0, 0, 0, 0, 0x0p+0, 0}}}}},
    {96, true, true, 1, 1313,
     {{{{7368, 0, 11006, 10777, 0x1.732be8cd7678fp+1, 307},
        {630, 3687, 0, 914, 0x1.77b1fb1fb1fb3p+0, 15}},
       {{576, 0, 117, 190, 0x1.93b13b13b13b2p-3, 24},
        {630, 2562, 0, 539, 0x1.763f63f63f641p+0, 15}},
       {{552, 0, 102, 202, 0x1.a8f5c28f5c28fp-3, 23},
        {630, 2517, 0, 524, 0x1.788888888888ap+0, 15}},
       {{552, 0, 82, 184, 0x1.c9b26c9b26c9bp-3, 23},
        {0, 0, 0, 0, 0x0p+0, 0}}}}},
    {96, false, false, 0, 893,
     {{{{7608, 0, 9286, 9023, 0x1.4bd30f3f65eb2p+2, 317},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{1104, 0, 232, 180, 0x1.6555555555554p-5, 46},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{1056, 0, 214, 171, 0x1.48590b21642c9p-5, 44},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{1032, 0, 144, 83, 0x1.572620ae4c414p-4, 43},
        {0, 0, 0, 0, 0x0p+0, 0}}}}},
    {96, false, false, 1, 887,
     {{{{7368, 0, 8890, 8791, 0x1.310ac52d90fbdp+2, 307},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{1128, 0, 241, 182, 0x1.4924924924924p-5, 47},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{1128, 0, 240, 193, 0x1.0a72f0539782ap-5, 47},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{1176, 0, 172, 105, 0x1.73ecade304d48p-4, 49},
        {0, 0, 0, 0, 0x0p+0, 0}}}}},
    {96, false, true, 0, 942,
     {{{{7608, 0, 11422, 11218, 0x1.82685375f7f9ap+1, 317},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{1104, 0, 559, 732, 0x1.5caaaaaaaaaaap-1, 46},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{1056, 0, 423, 677, 0x1.2a6f4de9bd37ap-1, 44},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{1032, 0, 413, 584, 0x1.02p-1, 43},
        {0, 0, 0, 0, 0x0p+0, 0}}}}},
    {96, false, true, 1, 936,
     {{{{7368, 0, 11006, 10777, 0x1.732be8cd7678fp+1, 307},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{1128, 0, 535, 748, 0x1.4814afd6a052bp-1, 47},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{1128, 0, 525, 797, 0x1.3a72f0539782ap-1, 47},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{1176, 0, 587, 667, 0x1.54e930288df0bp-1, 49},
        {0, 0, 0, 0, 0x0p+0, 0}}}}},
    {1000, true, false, 0, 12152,
     {{{{7776, 0, 61763, 65900, 0x1.4fbdef7bdef7dp+2, 324},
        {630, 1893, 0, 316, 0x1.6033917f14426p+2, 15}},
       {{6888, 0, 47712, 50979, 0x1.0cea9dfecfe38p+2, 287},
        {630, 2700, 0, 585, 0x1.db1745d1745d1p+2, 15}},
       {{6072, 0, 39060, 41985, 0x1.b29cf7ea712ddp+1, 253},
        {630, 2556, 0, 537, 0x1.ddded952e0b0bp+2, 15}},
       {{5808, 0, 3355, 2901, 0x1.b829a0429a044p+1, 242},
        {0, 0, 0, 0, 0x0p+0, 0}}}}},
    {1000, true, false, 1, 11564,
     {{{{7128, 0, 53573, 58649, 0x1.25a541e77e2dbp+2, 297},
        {630, 2067, 0, 374, 0x1.934075ded952cp+2, 15}},
       {{6000, 0, 37404, 40842, 0x1.ac74949f8802dp+1, 250},
        {630, 1872, 0, 309, 0x1.a5ce739ce739dp+2, 15}},
       {{6576, 0, 45540, 47226, 0x1.f47bccfc94103p+1, 274},
        {630, 2151, 0, 402, 0x1.ba0b0ce45fc52p+2, 15}},
       {{5448, 0, 3005, 2630, 0x1.84b5bfb912d7p+1, 227},
        {0, 0, 0, 0, 0x0p+0, 0}}}}},
    {1000, true, true, 0, 12392,
     {{{{7776, 0, 75166, 78624, 0x1.82074959ddffp+1, 324},
        {630, 2697, 0, 584, 0x1.30e70e70e70e6p+0, 15}},
       {{6888, 0, 60441, 62705, 0x1.73a77fb3f8df4p+1, 287},
        {630, 3552, 0, 869, 0x1.8e8d68d68d68ep+0, 15}},
       {{6072, 0, 50881, 54222, 0x1.5aa3b48c20563p+1, 253},
        {630, 3372, 0, 809, 0x1.8849849849849p+0, 15}},
       {{5808, 0, 5248, 5145, 0x1.5b85a29dc9422p+1, 242},
        {0, 0, 0, 0, 0x0p+0, 0}}}}},
    {1000, true, true, 1, 11826,
     {{{{7128, 0, 67619, 69609, 0x1.6e0a334428019p+1, 297},
        {630, 2877, 0, 644, 0x1.5222222222222p+0, 15}},
       {{6000, 0, 49481, 52611, 0x1.4d4aa707d7185p+1, 250},
        {630, 2652, 0, 569, 0x1.57a4fa4fa4fa5p+0, 15}},
       {{6576, 0, 56612, 59514, 0x1.65e8fb558a6bap+1, 274},
        {630, 2967, 0, 674, 0x1.6e70e70e70e72p+0, 15}},
       {{5448, 0, 4818, 4720, 0x1.2d5121deeabb7p+1, 227},
        {0, 0, 0, 0, 0x0p+0, 0}}}}},
    {1000, false, false, 0, 21722,
     {{{{7776, 0, 75980, 81296, 0x1.4f9cb7f4f2617p+2, 324},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{12312, 0, 140508, 143705, 0x1.1a7119502de35p+3, 513},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{11664, 0, 131580, 135274, 0x1.0e67c8317d2b9p+3, 486},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{12432, 0, 9033, 7809, 0x1.1bc912a2d1e68p+3, 518},
        {0, 0, 0, 0, 0x0p+0, 0}}}}},
    {1000, false, false, 1, 21143,
     {{{{7128, 0, 65900, 72353, 0x1.25819d63afe7ep+2, 297},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{12168, 0, 140124, 140987, 0x1.1acb937e4bf46p+3, 507},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{11616, 0, 130476, 134432, 0x1.0a8d9ce0ad65ep+3, 484},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{11976, 0, 8657, 7489, 0x1.15695a156030dp+3, 499},
        {0, 0, 0, 0, 0x0p+0, 0}}}}},
    {1000, false, true, 0, 21892,
     {{{{7776, 0, 92470, 96939, 0x1.822bd16b2d333p+1, 324},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{12312, 0, 156183, 160204, 0x1.b048d27c7238ap+1, 513},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{11664, 0, 146367, 152013, 0x1.b3962d8a5506bp+1, 486},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{12432, 0, 12067, 11437, 0x1.8814b77dc7c4dp+1, 518},
        {0, 0, 0, 0, 0x0p+0, 0}}}}},
    {1000, false, true, 1, 21305,
     {{{{7128, 0, 83180, 85827, 0x1.6e279dd1ec9f4p+1, 297},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{12168, 0, 153572, 157621, 0x1.b3773b2c89c75p+1, 507},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{11616, 0, 145777, 148620, 0x1.af69dcd838098p+1, 484},
        {0, 0, 0, 0, 0x0p+0, 0}},
       {{11976, 0, 11570, 11043, 0x1.91ff3ae6351ffp+1, 499},
        {0, 0, 0, 0, 0x0p+0, 0}}}}},
};

std::string describe(const NocStats& s) {
  std::ostringstream os;
  os << "{hops " << s.flit_hops << ", acc " << s.acc_operations
     << ", conflicts " << s.arbitration_conflicts << ", stalls "
     << s.credit_stalls << ", occupancy " << std::hexfloat
     << s.mean_leaf_occupancy << std::defaultfloat << ", root "
     << s.root_flits << "}";
  return os.str();
}

/// One flit leaving the root: the cycle it left on, its row and sum.
struct RootFlit {
  std::uint64_t cycle;
  std::uint32_t row;
  std::int64_t payload;

  friend bool operator==(const RootFlit&, const RootFlit&) = default;
};

/// A ragged reduction on an accumulate tree: PE p sends rows
/// 0 .. rows_of(p)-1 (some PEs send nothing) and closes its injector
/// once done, and the root consumer stalls every third cycle, so
/// drained subtrees must close their parents' ports (sometimes several
/// levels in one cycle) for the ACCs to finish.
std::vector<RootFlit> ragged_reduction(UpwardTree& tree) {
  const auto rows_of = [](std::size_t pe) -> std::uint32_t {
    return static_cast<std::uint32_t>((pe * 7 + 3) % 6);  // 0..5 rows
  };
  std::vector<std::uint32_t> sent(tree.num_pes(), 0);
  std::vector<bool> closed(tree.num_pes(), false);
  std::vector<RootFlit> out;
  for (std::uint64_t cycle = 1; cycle < 400; ++cycle) {
    for (std::size_t pe = 0; pe < tree.num_pes(); ++pe) {
      if (closed[pe]) continue;
      if (sent[pe] < rows_of(pe) && tree.can_inject(pe)) {
        tree.inject(pe, Flit{.index = sent[pe],
                             .payload = static_cast<std::int64_t>(
                                 100 * pe + sent[pe]),
                             .source = static_cast<std::uint16_t>(pe)});
        ++sent[pe];
      }
      if (sent[pe] == rows_of(pe)) {
        tree.close_injector(pe);
        closed[pe] = true;
      }
    }
    if (const auto f = tree.step(cycle % 3 != 0))
      out.push_back(RootFlit{cycle, f->index, f->payload});
  }
  return out;
}

TEST(NocPinned, MatchesRecordedTreeFigures) {
  std::size_t checked = 0;
  for (const std::size_t hidden : {std::size_t{96}, std::size_t{1000}}) {
    const PinnedModel model = pinned_model(hidden, 1200 + hidden, 2);
    for (const bool uv_on : {true, false}) {
      for (const bool unbuffered : {false, true}) {
        const ArchParams arch = pinned_arch(unbuffered);
        const CompiledNetwork compiled(model.network, arch, uv_on);
        AcceleratorSim sim(arch);
        for (std::size_t i = 0; i < model.inputs.size(); ++i) {
          const SimResult r =
              sim.run(compiled, model.inputs[i], ValidationMode::kFull);
          const PinnedRun* pin = nullptr;
          for (const PinnedRun& p : kPinned) {
            if (p.hidden == hidden && p.uv_on == uv_on &&
                p.unbuffered == unbuffered && p.input == i)
              pin = &p;
          }
          ASSERT_NE(pin, nullptr);
          const std::string where =
              "hidden " + std::to_string(hidden) + " uv " +
              (uv_on ? "on" : "off") +
              (unbuffered ? " unbuffered" : " buffered") + " input " +
              std::to_string(i);
          EXPECT_EQ(r.total_cycles, pin->total_cycles) << where;
          ASSERT_EQ(r.layers.size(), pin->layers.size()) << where;
          for (std::size_t l = 0; l < r.layers.size(); ++l) {
            EXPECT_TRUE(r.layers[l].w_noc == pin->layers[l].w)
                << where << " layer " << l << " W: got "
                << describe(r.layers[l].w_noc) << ", pinned "
                << describe(pin->layers[l].w);
            EXPECT_TRUE(r.layers[l].v_noc == pin->layers[l].v)
                << where << " layer " << l << " V: got "
                << describe(r.layers[l].v_noc) << ", pinned "
                << describe(pin->layers[l].v);
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, std::size(kPinned));
}

// Closure propagation is invisible in the simulator's figures (every
// PE sends `rank` partials, so no V-phase port drains early); the
// ragged reduction pins it, recorded from the same earlier tree.
TEST(NocPinned, RaggedReductionTimeline) {
  struct Pinned {
    bool unbuffered;
    std::vector<RootFlit> flits;
    NocStats stats;
  };
  const Pinned pinned[] = {
      {false,
       {{4, 0, 165300}, {5, 1, 134343}, {7, 2, 102366}, {8, 3, 69366},
        {10, 4, 35244}},
       {100, 166, 0, 3, 0x0p+0, 5}},
      {true,
       {{4, 0, 165300}, {10, 1, 134343}, {16, 2, 102366}, {22, 3, 69366},
        {28, 4, 35244}},
       {100, 288, 0, 123, 0x1.c11f7047dc11fp-6, 5}},
  };
  for (const Pinned& pin : pinned) {
    UpwardTree tree(pinned_arch(pin.unbuffered), RouterMode::kAccumulate);
    const std::vector<RootFlit> flits = ragged_reduction(tree);
    ASSERT_EQ(flits.size(), pin.flits.size()) << pin.unbuffered;
    for (std::size_t i = 0; i < flits.size(); ++i) {
      EXPECT_TRUE(flits[i] == pin.flits[i])
          << (pin.unbuffered ? "unbuffered" : "buffered") << " flit " << i
          << ": cycle " << flits[i].cycle << " row " << flits[i].row
          << " payload " << flits[i].payload;
    }
    EXPECT_TRUE(tree.stats() == pin.stats)
        << (pin.unbuffered ? "unbuffered" : "buffered") << ": got "
        << describe(tree.stats()) << ", pinned " << describe(pin.stats);
  }
}

}  // namespace
}  // namespace sparsenn
