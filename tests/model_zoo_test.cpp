// Tests for core/model_zoo.hpp: the thread-safe, arch-keyed LRU of
// compiled images behind the serving path. Pinned properties: the
// per-arch capacity bound holds, recency protects hot networks, an
// evicted network recompiles to bit-identical results, an epoch bump
// (network mutation) invalidates only that network's entries, and
// concurrent fetches of one key compile it once.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/model_zoo.hpp"
#include "sim/accelerator.hpp"
#include "sim/engine.hpp"
#include "sim_fixtures.hpp"

namespace sparsenn {
namespace {

using test_fixtures::seeded_network;
using test_fixtures::tiny_arch;

QuantizedNetwork network_with_seed(std::uint64_t seed) {
  Rng rng{seed};
  return seeded_network(rng);
}

std::vector<float> test_input(std::uint64_t seed) {
  Rng rng{seed};
  std::vector<float> input(24, 0.0f);
  for (float& v : input)
    if (!rng.bernoulli(0.4))
      v = static_cast<float>(rng.uniform(0.0, 1.0));
  return input;
}

TEST(ModelZoo, RejectsZeroCapacity) {
  EXPECT_THROW(ModelZoo(0), std::invalid_argument);
}

TEST(ModelZoo, CapacityBoundRespected) {
  ModelZoo zoo(/*capacity_per_arch=*/2);
  const ArchParams arch = tiny_arch();
  const QuantizedNetwork a = network_with_seed(1);
  const QuantizedNetwork b = network_with_seed(2);
  const QuantizedNetwork c = network_with_seed(3);

  (void)zoo.get(arch, a, true);
  (void)zoo.get(arch, b, true);
  EXPECT_EQ(zoo.size(), 2u);
  EXPECT_EQ(zoo.compile_count(), 2u);
  EXPECT_EQ(zoo.eviction_count(), 0u);

  (void)zoo.get(arch, c, true);  // full → evicts the LRU entry (a)
  EXPECT_EQ(zoo.size(), 2u);
  EXPECT_EQ(zoo.compile_count(), 3u);
  EXPECT_EQ(zoo.eviction_count(), 1u);
  EXPECT_FALSE(zoo.contains(arch, a, true));
  EXPECT_TRUE(zoo.contains(arch, b, true));
  EXPECT_TRUE(zoo.contains(arch, c, true));
}

TEST(ModelZoo, HotNetworkSurvivesEviction) {
  ModelZoo zoo(/*capacity_per_arch=*/2);
  const ArchParams arch = tiny_arch();
  const QuantizedNetwork a = network_with_seed(1);
  const QuantizedNetwork b = network_with_seed(2);
  const QuantizedNetwork c = network_with_seed(3);

  (void)zoo.get(arch, a, true);
  (void)zoo.get(arch, b, true);
  (void)zoo.get(arch, a, true);  // touch: a becomes most-recent
  EXPECT_EQ(zoo.hit_count(), 1u);

  (void)zoo.get(arch, c, true);  // evicts b, the least recently used
  EXPECT_TRUE(zoo.contains(arch, a, true));
  EXPECT_FALSE(zoo.contains(arch, b, true));
  EXPECT_TRUE(zoo.contains(arch, c, true));

  // The survivor is still a hit — no recompile for the hot network.
  (void)zoo.get(arch, a, true);
  EXPECT_EQ(zoo.compile_count(), 3u);
  EXPECT_EQ(zoo.hit_count(), 2u);
}

TEST(ModelZoo, EvictedNetworkRecompilesIdentically) {
  ModelZoo zoo(/*capacity_per_arch=*/1);
  const ArchParams arch = tiny_arch();
  const QuantizedNetwork a = network_with_seed(1);
  const QuantizedNetwork b = network_with_seed(2);
  const std::vector<float> input = test_input(9);

  AcceleratorSim sim(tiny_arch());
  const SimResult before = sim.run(*zoo.get(arch, a, true), input);

  (void)zoo.get(arch, b, true);  // capacity 1 → evicts a's image
  EXPECT_FALSE(zoo.contains(arch, a, true));

  const SimResult after = sim.run(*zoo.get(arch, a, true), input);
  EXPECT_EQ(zoo.compile_count(), 3u);  // a, b, a again
  // Images are pure functions of (network state, arch, uv): the
  // recompiled image reproduces cycles, events and activations
  // bit-for-bit.
  EXPECT_EQ(before, after);
}

TEST(ModelZoo, EpochBumpInvalidatesOnlyItsOwnEntries) {
  ModelZoo zoo(/*capacity_per_arch=*/4);
  const ArchParams arch = tiny_arch();
  QuantizedNetwork a = network_with_seed(1);
  const QuantizedNetwork b = network_with_seed(2);

  (void)zoo.get(arch, a, true);
  (void)zoo.get(arch, a, false);
  (void)zoo.get(arch, b, true);
  EXPECT_EQ(zoo.size(), 3u);
  EXPECT_EQ(zoo.compile_count(), 3u);

  a.set_prediction_threshold(0.1);  // epoch moves → a's images stale
  EXPECT_FALSE(zoo.contains(arch, a, true));
  EXPECT_FALSE(zoo.contains(arch, a, false));
  EXPECT_TRUE(zoo.contains(arch, b, true));

  // Re-fetching a recompiles (and sweeps out both stale images);
  // b's entry was untouched and stays a pure hit.
  (void)zoo.get(arch, a, true);
  EXPECT_EQ(zoo.compile_count(), 4u);
  EXPECT_EQ(zoo.size(), 2u);  // fresh a(uv_on) + untouched b(uv_on)
  const std::uint64_t hits = zoo.hit_count();
  (void)zoo.get(arch, b, true);
  EXPECT_EQ(zoo.hit_count(), hits + 1);
  EXPECT_EQ(zoo.compile_count(), 4u);
}

TEST(ModelZoo, BothUvModesCoexistForOneNetwork) {
  ModelZoo zoo(/*capacity_per_arch=*/2);
  const ArchParams arch = tiny_arch();
  const QuantizedNetwork a = network_with_seed(1);

  const std::shared_ptr<const CompiledNetwork> on = zoo.get(arch, a, true);
  const std::shared_ptr<const CompiledNetwork> off = zoo.get(arch, a, false);
  EXPECT_TRUE(on->use_predictor());
  EXPECT_FALSE(off->use_predictor());
  EXPECT_EQ(zoo.size(), 2u);

  (void)zoo.get(arch, a, true);
  (void)zoo.get(arch, a, false);
  EXPECT_EQ(zoo.compile_count(), 2u);  // both further gets were hits
  EXPECT_EQ(zoo.hit_count(), 2u);
}

TEST(ModelZoo, PinnedImageSurvivesEvictionInFlight) {
  ModelZoo zoo(/*capacity_per_arch=*/1);
  const ArchParams arch = tiny_arch();
  const QuantizedNetwork a = network_with_seed(1);
  const QuantizedNetwork b = network_with_seed(2);
  const std::vector<float> input = test_input(9);

  AcceleratorSim sim(tiny_arch());
  const std::shared_ptr<const CompiledNetwork> pinned =
      zoo.get(arch, a, true);
  const SimResult before = sim.run(*pinned, input);

  // Eviction (capacity 1) AND an invalidation of the evictor while the
  // image is still held "in flight": the pin keeps it alive and
  // bit-exact.
  (void)zoo.get(arch, b, true);
  EXPECT_EQ(zoo.invalidate(b.uid()), 1u);
  EXPECT_FALSE(zoo.contains(arch, a, true));
  EXPECT_EQ(zoo.size(), 0u);
  EXPECT_EQ(sim.run(*pinned, input), before);

  // The recompile-after-evict property still holds alongside pinning.
  EXPECT_EQ(sim.run(*zoo.get(arch, a, true), input), before);
}

TEST(ModelZoo, RoutesMixedArchConfigsToSeparateImages) {
  ModelZoo zoo;
  const QuantizedNetwork a = network_with_seed(1);

  ArchParams small = tiny_arch();
  ArchParams deeper = tiny_arch();
  deeper.act_queue_depth = 4;  // distinct config → distinct image
  ASSERT_NE(small.cache_key(), deeper.cache_key());

  const auto img_small = zoo.get(small, a, true);
  const auto img_deeper = zoo.get(deeper, a, true);
  EXPECT_EQ(zoo.compile_count(), 2u);
  EXPECT_EQ(img_small->params().act_queue_depth, 8u);
  EXPECT_EQ(img_deeper->params().act_queue_depth, 4u);

  // Same (arch, network, uv) again: a hit on the right arch's image.
  EXPECT_EQ(zoo.get(small, a, true), img_small);
  EXPECT_EQ(zoo.compile_count(), 2u);
  EXPECT_EQ(zoo.hit_count(), 1u);

  // Targeted invalidation sweeps the uid out of every arch.
  EXPECT_EQ(zoo.invalidate(a.uid()), 2u);
  (void)zoo.get(small, a, true);
  EXPECT_EQ(zoo.compile_count(), 3u);
}

TEST(ModelZoo, CapacityIsPerArch) {
  ModelZoo zoo(/*capacity_per_arch=*/1);
  const QuantizedNetwork a = network_with_seed(1);
  const QuantizedNetwork b = network_with_seed(2);
  const ArchParams arch_a = tiny_arch();
  ArchParams arch_b = tiny_arch();
  arch_b.act_queue_depth = 4;

  // One image per arch fits, even at capacity 1: the arches coexist.
  (void)zoo.get(arch_a, a, true);
  (void)zoo.get(arch_b, a, true);
  EXPECT_EQ(zoo.size(), 2u);
  EXPECT_EQ(zoo.eviction_count(), 0u);

  // A second network on arch A evicts only A's older image.
  (void)zoo.get(arch_a, b, true);
  EXPECT_EQ(zoo.size(), 2u);
  EXPECT_EQ(zoo.eviction_count(), 1u);
  EXPECT_FALSE(zoo.contains(arch_a, a, true));
  EXPECT_TRUE(zoo.contains(arch_a, b, true));
  EXPECT_TRUE(zoo.contains(arch_b, a, true));
}

TEST(ModelZoo, ConcurrentFetchesCompileOnce) {
  ModelZoo zoo;
  const ArchParams arch = tiny_arch();
  const QuantizedNetwork a = network_with_seed(1);

  constexpr std::size_t kThreads = 4;
  std::vector<std::shared_ptr<const CompiledNetwork>> images(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] { images[t] = zoo.get(arch, a, true); });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(zoo.compile_count(), 1u);
  EXPECT_EQ(zoo.hit_count(), kThreads - 1);
  for (const auto& image : images) EXPECT_EQ(image, images.front());
}

TEST(ModelZoo, TargetedInvalidateDropsOneNetwork) {
  ModelZoo zoo(/*capacity_per_arch=*/4);
  const ArchParams arch = tiny_arch();
  const QuantizedNetwork a = network_with_seed(1);
  const QuantizedNetwork b = network_with_seed(2);
  (void)zoo.get(arch, a, true);
  (void)zoo.get(arch, a, false);
  (void)zoo.get(arch, b, true);

  EXPECT_EQ(zoo.invalidate(a.uid()), 2u);
  EXPECT_EQ(zoo.size(), 1u);
  EXPECT_TRUE(zoo.contains(arch, b, true));

  EXPECT_EQ(zoo.invalidate(b.uid()), 1u);
  EXPECT_EQ(zoo.size(), 0u);
  EXPECT_FALSE(zoo.contains(arch, b, true));
}

TEST(ModelZoo, ServesBothBackendsTheSameImage) {
  ModelZoo zoo(/*capacity_per_arch=*/2);
  const ArchParams arch = tiny_arch();
  const QuantizedNetwork a = network_with_seed(1);
  const std::vector<float> input = test_input(11);

  const std::shared_ptr<const CompiledNetwork> image = zoo.get(arch, a, true);
  const std::unique_ptr<ExecutionEngine> cycle =
      make_engine(EngineKind::kCycle, tiny_arch());
  const std::unique_ptr<ExecutionEngine> analytic =
      make_engine(EngineKind::kAnalytic, tiny_arch());

  const SimResult exact = cycle->run(*image, input);
  const SimResult fast = analytic->run(*image, input);
  EXPECT_EQ(exact.output, fast.output);
  ASSERT_EQ(exact.layers.size(), fast.layers.size());
  for (std::size_t l = 0; l < exact.layers.size(); ++l)
    EXPECT_EQ(exact.layers[l].activations, fast.layers[l].activations);
  EXPECT_EQ(zoo.compile_count(), 1u);
}

}  // namespace
}  // namespace sparsenn
