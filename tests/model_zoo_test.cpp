// Tests for core/model_zoo.hpp: the multi-network LRU of compiled
// images behind the serving path. Pinned properties: the capacity
// bound holds, recency protects hot networks, an evicted network
// recompiles to bit-identical results, and an epoch bump (network
// mutation) invalidates only that network's entries.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/model_zoo.hpp"
#include "core/zoo_registry.hpp"
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
  EXPECT_THROW(ModelZoo(tiny_arch(), 0), std::invalid_argument);
}

TEST(ModelZoo, CapacityBoundRespected) {
  ModelZoo zoo(tiny_arch(), /*capacity=*/2);
  const QuantizedNetwork a = network_with_seed(1);
  const QuantizedNetwork b = network_with_seed(2);
  const QuantizedNetwork c = network_with_seed(3);

  (void)zoo.get(a, true);
  (void)zoo.get(b, true);
  EXPECT_EQ(zoo.size(), 2u);
  EXPECT_EQ(zoo.compile_count(), 2u);
  EXPECT_EQ(zoo.eviction_count(), 0u);

  (void)zoo.get(c, true);  // full → evicts the LRU entry (a)
  EXPECT_EQ(zoo.size(), 2u);
  EXPECT_EQ(zoo.compile_count(), 3u);
  EXPECT_EQ(zoo.eviction_count(), 1u);
  EXPECT_FALSE(zoo.contains(a, true));
  EXPECT_TRUE(zoo.contains(b, true));
  EXPECT_TRUE(zoo.contains(c, true));
}

TEST(ModelZoo, HotNetworkSurvivesEviction) {
  ModelZoo zoo(tiny_arch(), /*capacity=*/2);
  const QuantizedNetwork a = network_with_seed(1);
  const QuantizedNetwork b = network_with_seed(2);
  const QuantizedNetwork c = network_with_seed(3);

  (void)zoo.get(a, true);
  (void)zoo.get(b, true);
  (void)zoo.get(a, true);  // touch: a becomes most-recent
  EXPECT_EQ(zoo.hit_count(), 1u);

  (void)zoo.get(c, true);  // evicts b, the least recently used
  EXPECT_TRUE(zoo.contains(a, true));
  EXPECT_FALSE(zoo.contains(b, true));
  EXPECT_TRUE(zoo.contains(c, true));

  // The survivor is still a hit — no recompile for the hot network.
  (void)zoo.get(a, true);
  EXPECT_EQ(zoo.compile_count(), 3u);
  EXPECT_EQ(zoo.hit_count(), 2u);
}

TEST(ModelZoo, EvictedNetworkRecompilesIdentically) {
  ModelZoo zoo(tiny_arch(), /*capacity=*/1);
  const QuantizedNetwork a = network_with_seed(1);
  const QuantizedNetwork b = network_with_seed(2);
  const std::vector<float> input = test_input(9);

  AcceleratorSim sim(tiny_arch());
  const SimResult before = sim.run(*zoo.get(a, true), input);

  (void)zoo.get(b, true);  // capacity 1 → evicts a's image
  EXPECT_FALSE(zoo.contains(a, true));

  const SimResult after = sim.run(*zoo.get(a, true), input);
  EXPECT_EQ(zoo.compile_count(), 3u);  // a, b, a again
  // Images are pure functions of (network state, arch, uv): the
  // recompiled image reproduces cycles, events and activations
  // bit-for-bit.
  EXPECT_EQ(before, after);
}

TEST(ModelZoo, EpochBumpInvalidatesOnlyItsOwnEntries) {
  ModelZoo zoo(tiny_arch(), /*capacity=*/4);
  QuantizedNetwork a = network_with_seed(1);
  const QuantizedNetwork b = network_with_seed(2);

  (void)zoo.get(a, true);
  (void)zoo.get(a, false);
  (void)zoo.get(b, true);
  EXPECT_EQ(zoo.size(), 3u);
  EXPECT_EQ(zoo.compile_count(), 3u);

  a.set_prediction_threshold(0.1);  // epoch moves → a's images stale
  EXPECT_FALSE(zoo.contains(a, true));
  EXPECT_FALSE(zoo.contains(a, false));
  EXPECT_TRUE(zoo.contains(b, true));

  // Re-fetching a recompiles (and sweeps out both stale images);
  // b's entry was untouched and stays a pure hit.
  (void)zoo.get(a, true);
  EXPECT_EQ(zoo.compile_count(), 4u);
  EXPECT_EQ(zoo.size(), 2u);  // fresh a(uv_on) + untouched b(uv_on)
  const std::uint64_t hits = zoo.hit_count();
  (void)zoo.get(b, true);
  EXPECT_EQ(zoo.hit_count(), hits + 1);
  EXPECT_EQ(zoo.compile_count(), 4u);
}

TEST(ModelZoo, BothUvModesCoexistForOneNetwork) {
  ModelZoo zoo(tiny_arch(), /*capacity=*/2);
  const QuantizedNetwork a = network_with_seed(1);

  const std::shared_ptr<const CompiledNetwork> on = zoo.get(a, true);
  const std::shared_ptr<const CompiledNetwork> off = zoo.get(a, false);
  EXPECT_TRUE(on->use_predictor());
  EXPECT_FALSE(off->use_predictor());
  EXPECT_EQ(zoo.size(), 2u);

  (void)zoo.get(a, true);
  (void)zoo.get(a, false);
  EXPECT_EQ(zoo.compile_count(), 2u);  // both further gets were hits
  EXPECT_EQ(zoo.hit_count(), 2u);
}

TEST(ModelZoo, PinnedImageSurvivesEvictionInFlight) {
  ModelZoo zoo(tiny_arch(), /*capacity=*/1);
  const QuantizedNetwork a = network_with_seed(1);
  const QuantizedNetwork b = network_with_seed(2);
  const std::vector<float> input = test_input(9);

  AcceleratorSim sim(tiny_arch());
  const std::shared_ptr<const CompiledNetwork> pinned = zoo.get(a, true);
  const SimResult before = sim.run(*pinned, input);

  // Eviction (capacity 1) AND an invalidation of the evictor while the
  // image is still held "in flight": the pin keeps it alive and
  // bit-exact.
  (void)zoo.get(b, true);
  EXPECT_EQ(zoo.invalidate(b.uid()), 1u);
  EXPECT_FALSE(zoo.contains(a, true));
  EXPECT_EQ(zoo.size(), 0u);
  EXPECT_EQ(sim.run(*pinned, input), before);

  // The recompile-after-evict property still holds alongside pinning.
  EXPECT_EQ(sim.run(*zoo.get(a, true), input), before);
}

TEST(ZooRegistry, RoutesMixedArchConfigsToSeparateZoos) {
  ZooRegistry registry;
  const QuantizedNetwork a = network_with_seed(1);

  ArchParams small = tiny_arch();
  ArchParams deeper = tiny_arch();
  deeper.act_queue_depth = 4;  // distinct config → distinct zoo
  ASSERT_NE(small.cache_key(), deeper.cache_key());

  const auto img_small = registry.get(small, a, true);
  const auto img_deeper = registry.get(deeper, a, true);
  EXPECT_EQ(registry.num_zoos(), 2u);
  EXPECT_EQ(registry.compile_count(), 2u);
  EXPECT_EQ(img_small->params().act_queue_depth, 8u);
  EXPECT_EQ(img_deeper->params().act_queue_depth, 4u);

  // Same (arch, network, uv) again: a hit in the right zoo.
  (void)registry.get(small, a, true);
  EXPECT_EQ(registry.compile_count(), 2u);
  EXPECT_EQ(registry.hit_count(), 1u);

  // Targeted invalidation sweeps the uid out of every zoo.
  EXPECT_EQ(registry.invalidate(a.uid()), 2u);
  (void)registry.get(small, a, true);
  EXPECT_EQ(registry.compile_count(), 3u);
}

TEST(ModelZoo, TargetedInvalidateDropsOneNetwork) {
  ModelZoo zoo(tiny_arch(), /*capacity=*/4);
  const QuantizedNetwork a = network_with_seed(1);
  const QuantizedNetwork b = network_with_seed(2);
  (void)zoo.get(a, true);
  (void)zoo.get(a, false);
  (void)zoo.get(b, true);

  EXPECT_EQ(zoo.invalidate(a.uid()), 2u);
  EXPECT_EQ(zoo.size(), 1u);
  EXPECT_TRUE(zoo.contains(b, true));

  EXPECT_EQ(zoo.invalidate(b.uid()), 1u);
  EXPECT_EQ(zoo.size(), 0u);
  EXPECT_FALSE(zoo.contains(b, true));
}

TEST(ModelZoo, ServesBothBackendsTheSameImage) {
  ModelZoo zoo(tiny_arch(), /*capacity=*/2);
  const QuantizedNetwork a = network_with_seed(1);
  const std::vector<float> input = test_input(11);

  const std::shared_ptr<const CompiledNetwork> image = zoo.get(a, true);
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
