// Tests for src/sim/result_arena: the arena entry point of
// AcceleratorSim must be a pure storage optimisation — SimResults
// bit-identical to the heap-returning overload — and exactly zero heap
// allocations per steady-state inference. Allocations are counted by the shared
// common/alloc_counter.hpp hook — the same definition
// bench/sim_throughput measures with.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/alloc_counter.hpp"
#include "common/rng.hpp"
#include "nn/network.hpp"
#include "nn/predictor.hpp"
#include "nn/trainer.hpp"
#include "sim/accelerator.hpp"
#include "sim/batch_runner.hpp"
#include "sim/compiled_network.hpp"
#include "sim/result_arena.hpp"
#include "sim_fixtures.hpp"

namespace sparsenn {
namespace {

std::atomic<std::uint64_t>& g_allocs = alloc_counter::count();

using test_fixtures::make_batch_fixture;
using test_fixtures::tiny_arch;
using Fixture = test_fixtures::BatchFixture;

TEST(ResultArena, BitIdenticalToHeapPath) {
  const Fixture f = make_batch_fixture(8, /*seed=*/77);
  for (const bool uv_on : {true, false}) {
    const CompiledNetwork compiled(f.network, tiny_arch(), uv_on);
    AcceleratorSim heap_sim(tiny_arch());
    AcceleratorSim arena_sim(tiny_arch());
    ResultArena arena(compiled);
    for (std::size_t i = 0; i < f.data.size(); ++i) {
      const SimResult expected =
          heap_sim.run(compiled, f.data.image(i), ValidationMode::kFull);
      // Both validation modes through the arena; the slot is reused
      // across every iteration (the dirty-reuse case).
      EXPECT_EQ(arena_sim.run(compiled, f.data.image(i), arena,
                              ValidationMode::kFull),
                expected)
          << "input " << i << " uv " << uv_on << " (kFull)";
      EXPECT_EQ(arena_sim.run(compiled, f.data.image(i), arena,
                              ValidationMode::kOff),
                expected)
          << "input " << i << " uv " << uv_on << " (kOff)";
    }
  }
}

TEST(ResultArena, SteadyStateInferencesAreAllocationFree) {
  const Fixture f = make_batch_fixture(12, /*seed=*/81);
  for (const bool uv_on : {true, false}) {
    const CompiledNetwork compiled(f.network, tiny_arch(), uv_on);
    AcceleratorSim sim(tiny_arch());
    ResultArena arena(compiled);

    // One warm-up inference grows the simulator's own scratch (PE scan
    // buffers, the injector-closed flags) to its steady capacity.
    (void)sim.run(compiled, f.data.image(0), arena, ValidationMode::kOff);

    const std::uint64_t before = g_allocs.load();
    std::uint64_t cycles = 0;
    for (std::size_t i = 0; i < f.data.size(); ++i)
      cycles += sim.run(compiled, f.data.image(i), arena,
                        ValidationMode::kOff)
                    .total_cycles;
    const std::uint64_t allocs = g_allocs.load() - before;
    EXPECT_EQ(allocs, 0u) << "uv " << uv_on;
    EXPECT_GT(cycles, 0u);
  }
}

TEST(ResultArena, ReusedAcrossDifferentNetworksStaysCorrect) {
  // An arena sized for one network must still produce exact results
  // after switching to another (pools regrow as needed).
  const Fixture a = make_batch_fixture(3, /*seed=*/87);
  const Fixture b = make_batch_fixture(3, /*seed=*/93);
  const CompiledNetwork ca(a.network, tiny_arch(), true);
  const CompiledNetwork cb(b.network, tiny_arch(), true);
  AcceleratorSim sim(tiny_arch());
  ResultArena arena(ca);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sim.run(ca, a.data.image(i), arena),
              AcceleratorSim(tiny_arch())
                  .run(ca, a.data.image(i), ValidationMode::kFull));
    EXPECT_EQ(sim.run(cb, b.data.image(i), arena),
              AcceleratorSim(tiny_arch())
                  .run(cb, b.data.image(i), ValidationMode::kFull));
  }
}

TEST(ResultArena, BatchAggregateOnlyPathIsMarginallyAllocationFree) {
  // The keep_results=false BatchRunner path folds arena-held results
  // into per-worker accumulators. Setup (threads, simulators, arenas,
  // the first inference) allocates; the marginal cost of
  // each further inference must be exactly zero — measured by running
  // the same batch at two sizes and comparing allocation totals.
  const Fixture f = make_batch_fixture(24, /*seed=*/99);
  BatchOptions options;
  options.num_threads = 1;  // one worker → deterministic setup costs
  options.keep_results = false;

  const auto run_and_count = [&](std::size_t samples) {
    BatchOptions o = options;
    o.max_samples = samples;
    const std::uint64_t before = g_allocs.load();
    const BatchResult r = BatchRunner(tiny_arch(), o).run(f.network, f.data);
    const std::uint64_t allocs = g_allocs.load() - before;
    EXPECT_EQ(r.num_inferences, samples);
    return allocs;
  };

  (void)run_and_count(12);  // warm anything process-global
  const std::uint64_t small = run_and_count(12);
  const std::uint64_t large = run_and_count(24);
  EXPECT_EQ(large, small)
      << "12 extra inferences must not allocate (marginal cost 0)";
}

TEST(ResultArena, PaperScaleInferencesAreAllocationFree) {
  // The paper's 64-PE array at hidden width 1024, UV on and off, with
  // validation off and on (event stepping takes every value from the
  // functional pass, so kFull adds no work there). Inputs differ in
  // how many distinct per-PE W cost groups (predicted-active row
  // counts) they produce, so a later input can need more timing-model
  // groups than any before it; and the warm-up input is far sparser
  // than the rest, so scratch sized from what the first input needed
  // (nonzero lists, V and mask buffers) would have to grow. After the
  // warm-up, 33 more distinct inputs must not allocate at all.
  Rng rng{42};
  Network net{five_layer_topology(1024), rng};
  for (std::size_t l = 0; l < net.num_hidden_layers(); ++l) {
    const auto sizes = net.layer_sizes();
    net.set_predictor(
        l, Predictor::random(sizes[l + 1], sizes[l], 15, rng));
  }
  Matrix calib(8, 784);
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib.flat()[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  const QuantizedNetwork quantized(net, calib);
  std::vector<std::vector<float>> inputs(33, std::vector<float>(784));
  for (auto& x : inputs)
    for (float& v : x)
      v = rng.bernoulli(0.6) ? 0.0f
                             : static_cast<float>(rng.uniform(0.0, 1.0));
  std::vector<float> warmup(784, 0.0f);
  for (std::size_t i = 0; i < warmup.size(); i += 50)
    warmup[i] = static_cast<float>(rng.uniform(0.0, 1.0));

  const ArchParams arch = ArchParams::paper();
  for (const bool uv_on : {true, false}) {
    const CompiledNetwork compiled(quantized, arch, uv_on);
    for (const ValidationMode mode :
         {ValidationMode::kOff, ValidationMode::kFull}) {
      AcceleratorSim sim(arch);
      ResultArena arena(compiled);
      (void)sim.run(compiled, warmup, arena, mode);

      const std::uint64_t before = g_allocs.load();
      std::uint64_t cycles = 0;
      for (const std::vector<float>& x : inputs)
        cycles += sim.run(compiled, x, arena, mode).total_cycles;
      const std::uint64_t allocs = g_allocs.load() - before;
      const bool full = mode == ValidationMode::kFull;
      EXPECT_EQ(allocs, 0u) << "over " << inputs.size()
                            << " marginal inferences, uv " << uv_on
                            << (full ? " (kFull)" : " (kOff)");
      EXPECT_GT(cycles, 0u);
    }
  }
}

}  // namespace
}  // namespace sparsenn
