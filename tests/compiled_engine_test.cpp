// Tests for src/sim/compiled_network + the compiled engine path of
// AcceleratorSim/BatchRunner: compiling a network once and running many
// inferences from the shared read-only image must be a pure
// optimisation — SimResult cycles, activations and every EventCounts
// field bit-identical to a freshly-constructed per-inference run,
// across predictor modes, validation modes and thread counts.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <ranges>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/model_zoo.hpp"
#include "sim/accelerator.hpp"
#include "sim/batch_runner.hpp"
#include "sim/compiled_network.hpp"
#include "sim/schedule.hpp"
#include "sim_fixtures.hpp"

namespace sparsenn {
namespace {

using test_fixtures::make_batch_fixture;
using test_fixtures::seeded_network;
using test_fixtures::tiny_arch;
using Fixture = test_fixtures::BatchFixture;

/// Seed-engine reference: a brand-new simulator per inference, the
/// one-shot (recompile + full validation) entry point.
SimResult fresh_run(const QuantizedNetwork& network,
                    std::span<const float> input, bool use_predictor) {
  AcceleratorSim sim(tiny_arch());
  return sim.run(network, input, use_predictor);
}

TEST(CompiledNetwork, SlicesMatchFreshlyBuiltOnes) {
  Rng rng{3};
  const QuantizedNetwork q = seeded_network(rng);
  const ArchParams arch = tiny_arch();

  for (const bool uv_on : {true, false}) {
    const CompiledNetwork compiled(q, arch, uv_on);
    ASSERT_EQ(compiled.num_layers(), q.num_layers());
    for (std::size_t l = 0; l < q.num_layers(); ++l) {
      for (std::size_t pe = 0; pe < arch.num_pes; ++pe) {
        const OwnedPeSlice fresh =
            make_pe_slice(q.layer(l), arch, pe, uv_on);
        const PeLayerSlice& got = compiled.slice(l, pe);
        EXPECT_EQ(got.layer_input_dim, fresh.view.layer_input_dim);
        EXPECT_EQ(got.layer_output_dim, fresh.view.layer_output_dim);
        EXPECT_EQ(got.rank, fresh.view.rank);
        EXPECT_EQ(got.has_predictor, fresh.view.has_predictor);
        EXPECT_EQ(got.is_output, fresh.view.is_output);
        EXPECT_EQ(got.predictor_threshold_raw,
                  fresh.view.predictor_threshold_raw);
        EXPECT_TRUE(std::ranges::equal(got.global_rows, fresh.global_rows))
            << "layer " << l << " pe " << pe;
        EXPECT_TRUE(std::ranges::equal(got.w_words, fresh.w_words))
            << "layer " << l << " pe " << pe;
        EXPECT_TRUE(std::ranges::equal(got.u_words, fresh.u_words))
            << "layer " << l << " pe " << pe;
        EXPECT_TRUE(std::ranges::equal(got.v_words, fresh.v_words))
            << "layer " << l << " pe " << pe;
      }
    }
  }
}

/// Compiled engine vs the per-inference engine, both uv modes, both
/// validation modes — every SimResult field must be bit-identical
/// (operator== covers cycles, activations, NocStats and EventCounts).
class CompiledEngineExactness : public ::testing::TestWithParam<bool> {};

TEST_P(CompiledEngineExactness, BitIdenticalToFreshPerInferenceRuns) {
  const bool uv_on = GetParam();
  const Fixture f = make_batch_fixture(6, /*seed=*/21);
  const CompiledNetwork compiled(f.network, tiny_arch(), uv_on);

  AcceleratorSim sim(tiny_arch());  // one reused simulator
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    const SimResult expected =
        fresh_run(f.network, f.data.image(i), uv_on);
    const SimResult validated =
        sim.run(compiled, f.data.image(i), ValidationMode::kFull);
    const SimResult unvalidated =
        sim.run(compiled, f.data.image(i), ValidationMode::kOff);
    EXPECT_EQ(validated, expected) << "input " << i << " (kFull)";
    EXPECT_EQ(unvalidated, expected) << "input " << i << " (kOff)";
  }
}

INSTANTIATE_TEST_SUITE_P(UvModes, CompiledEngineExactness,
                         ::testing::Values(true, false));

/// Event-driven cycle advancement vs the per-cycle oracle: every
/// SimResult field — cycle counts, event counters, NoC statistics
/// (conflicts, credit stalls, occupancy sums), activations — must be
/// bit-identical. Runs both uv modes and several queue depths so the
/// event core's wake jumps, drain tail and stalled-NoC window all fire
/// with different frequencies.
class SteppingEquivalence : public ::testing::TestWithParam<bool> {};

TEST_P(SteppingEquivalence, EventBitIdenticalToPerCycleEngine) {
  const bool uv_on = GetParam();
  const Fixture f = make_batch_fixture(8, /*seed=*/57);
  for (const std::size_t queue_depth : {2u, 8u, 32u}) {
    ArchParams arch = tiny_arch();
    arch.act_queue_depth = queue_depth;
    const CompiledNetwork compiled(f.network, arch, uv_on);

    AcceleratorSim event(arch);
    event.set_stepping_mode(SteppingMode::kEvent);
    AcceleratorSim per_cycle(arch);
    per_cycle.set_stepping_mode(SteppingMode::kPerCycle);
    ASSERT_EQ(event.stepping_mode(), SteppingMode::kEvent);
    ASSERT_EQ(per_cycle.stepping_mode(), SteppingMode::kPerCycle);

    for (std::size_t i = 0; i < f.data.size(); ++i) {
      const SimResult expected =
          per_cycle.run(compiled, f.data.image(i), ValidationMode::kOff);
      const SimResult evented =
          event.run(compiled, f.data.image(i), ValidationMode::kOff);
      EXPECT_EQ(evented, expected)
          << "event input " << i << " uv " << uv_on << " depth "
          << queue_depth;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(UvModes, SteppingEquivalence,
                         ::testing::Values(true, false));

/// One CompiledNetwork shared read-only across BatchRunner workers:
/// per-input results identical to fresh per-inference runs for every
/// thread count.
class CompiledBatchThreads : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(CompiledBatchThreads, SharedAcrossWorkersMatchesFreshRuns) {
  const Fixture f = make_batch_fixture(12, /*seed=*/33);
  for (const bool uv_on : {true, false}) {
    const CompiledNetwork compiled(f.network, tiny_arch(), uv_on);

    BatchOptions options;
    options.num_threads = GetParam();
    options.use_predictor = uv_on;
    const BatchRunner runner(tiny_arch(), options);
    // The same image is shared by all workers of this run (and can be
    // reused across runs).
    const BatchResult batched = runner.run(compiled, f.data);

    ASSERT_EQ(batched.results.size(), f.data.size());
    for (std::size_t i = 0; i < f.data.size(); ++i) {
      EXPECT_EQ(batched.results[i],
                fresh_run(f.network, f.data.image(i), uv_on))
          << "input " << i << " uv " << uv_on << " threads " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, CompiledBatchThreads,
                         ::testing::Values(1, 2, 8));

TEST(CompiledEngine, MismatchedArchitectureIsRejected) {
  Rng rng{5};
  const QuantizedNetwork q = seeded_network(rng);
  ArchParams other = tiny_arch();
  other.num_pes = 4;
  other.router_levels = 1;
  const CompiledNetwork compiled(q, other, true);

  AcceleratorSim sim(tiny_arch());
  const Vector x(24, 0.5f);
  EXPECT_THROW((void)sim.run(compiled, x), std::invalid_argument);
}

TEST(CompiledEngine, StaleSnapshotIsRejectedInEveryMode) {
  // PR-2 behaviour: a stale image silently simulated the old threshold
  // under kOff and only kFull *might* notice (when the masks happened
  // to differ). The epoch counter turns that silent divergence into a
  // deterministic precondition failure for every validation mode and
  // every consumer.
  Rng rng{9};
  QuantizedNetwork q = seeded_network(rng);
  const CompiledNetwork compiled(q, tiny_arch(), true);
  EXPECT_FALSE(compiled.stale());
  EXPECT_EQ(compiled.source_epoch(), q.epoch());

  q.set_prediction_threshold(0.35);  // mutate AFTER compiling
  EXPECT_TRUE(compiled.stale());

  AcceleratorSim sim(tiny_arch());
  Vector x(24);
  for (float& v : x)
    v = rng.bernoulli(0.3) ? 0.0f
                           : static_cast<float>(rng.uniform(0.5, 1.0));
  EXPECT_THROW((void)sim.run(compiled, x, ValidationMode::kOff),
               std::invalid_argument);
  EXPECT_THROW((void)sim.run(compiled, x, ValidationMode::kFull),
               std::invalid_argument);

  // BatchRunner rejects the stale image up front, on the calling
  // thread, before spawning workers.
  BatchOptions options;
  options.num_threads = 2;
  const Fixture f = make_batch_fixture(4, /*seed=*/9);
  EXPECT_THROW(
      (void)BatchRunner(tiny_arch(), options).run(compiled, f.data),
      std::invalid_argument);

  // Even a no-op mutation bumps the epoch: the image snapshotted the
  // network, so any mutation after compiling invalidates it.
  const CompiledNetwork recompiled(q, tiny_arch(), true);
  q.set_prediction_threshold(0.35);  // same value — still a mutation
  EXPECT_TRUE(recompiled.stale());
}

TEST(CompiledEngine, EpochIsMonotone) {
  Rng rng{15};
  QuantizedNetwork q = seeded_network(rng);
  const std::uint64_t e0 = q.epoch();
  q.set_prediction_threshold(0.1);
  q.set_prediction_threshold(0.2);
  EXPECT_EQ(q.epoch(), e0 + 2);
}

TEST(ModelZooCache, ReusesImagesUntilEpochMoves) {
  Rng rng{27};
  QuantizedNetwork q = seeded_network(rng);
  ModelZoo cache;
  EXPECT_EQ(cache.compile_count(), 0u);

  const std::shared_ptr<const CompiledNetwork> on =
      cache.get(tiny_arch(), q, true);
  const std::shared_ptr<const CompiledNetwork> off =
      cache.get(tiny_arch(), q, false);
  EXPECT_EQ(cache.compile_count(), 2u);
  EXPECT_TRUE(on->use_predictor());
  EXPECT_FALSE(off->use_predictor());

  // Hits: same network, same epoch, same uv mode → the same image.
  EXPECT_EQ(cache.get(tiny_arch(), q, true), on);
  EXPECT_EQ(cache.get(tiny_arch(), q, false), off);
  EXPECT_EQ(cache.compile_count(), 2u);

  // A mutation moves the epoch; the next get() recompiles, and the
  // fresh image carries the new threshold (never a stale snapshot).
  q.set_prediction_threshold(0.25);
  const std::shared_ptr<const CompiledNetwork> on2 =
      cache.get(tiny_arch(), q, true);
  EXPECT_EQ(cache.compile_count(), 3u);
  EXPECT_FALSE(on2->stale());
  EXPECT_EQ(on2->source_epoch(), q.epoch());

  cache.invalidate(q.uid());
  (void)cache.get(tiny_arch(), q, true);
  EXPECT_EQ(cache.compile_count(), 4u);
}

TEST(ModelZooCache, AddressReuseNeverServesTheOldNetworksImage) {
  // Regression guard for the cache key: System::prepare() re-emplaces
  // its QuantizedNetwork into the same std::optional slot, so a new
  // network routinely occupies a dead network's address at epoch 0. A
  // key of (address, epoch) would serve the OLD network's weights; the
  // (uid, epoch) key must recompile.
  Rng rng{35};
  ModelZoo cache;
  std::optional<QuantizedNetwork> slot(seeded_network(rng));
  (void)cache.get(tiny_arch(), *slot, true);
  EXPECT_EQ(cache.compile_count(), 1u);

  slot.emplace(seeded_network(rng));  // same address, different weights
  const std::shared_ptr<const CompiledNetwork> recompiled =
      cache.get(tiny_arch(), *slot, true);
  EXPECT_EQ(cache.compile_count(), 2u);
  EXPECT_TRUE(recompiled->compiled_from(*slot));
  EXPECT_FALSE(recompiled->stale());
}

TEST(CompiledEngine, UidIsFreshAcrossCopiesAndAssignment) {
  // uid() names an object's content history: copies and assignment
  // targets can diverge from the original, so they must never share a
  // (uid, epoch) key with it.
  Rng rng{39};
  QuantizedNetwork a = seeded_network(rng);
  QuantizedNetwork b = a;  // copy
  EXPECT_NE(a.uid(), b.uid());

  const CompiledNetwork compiled_a(a, tiny_arch(), true);
  EXPECT_FALSE(compiled_a.compiled_from(b));

  b = seeded_network(rng);  // assignment re-identifies the target
  const std::uint64_t assigned_uid = b.uid();
  EXPECT_NE(assigned_uid, a.uid());

  QuantizedNetwork c = std::move(b);  // move re-identifies the source
  EXPECT_NE(c.uid(), b.uid());  // NOLINT(bugprone-use-after-move)
}

TEST(ModelZooCache, CachedRunsBitIdenticalToUncached) {
  const Fixture f = make_batch_fixture(5, /*seed=*/51);
  ModelZoo cache;
  AcceleratorSim sim(tiny_arch());
  for (const bool uv_on : {true, false}) {
    for (std::size_t i = 0; i < f.data.size(); ++i) {
      const SimResult cached =
          sim.run(*cache.get(tiny_arch(), f.network, uv_on), f.data.image(i));
      EXPECT_EQ(cached, fresh_run(f.network, f.data.image(i), uv_on))
          << "input " << i << " uv " << uv_on;
    }
  }
  EXPECT_EQ(cache.compile_count(), 2u);  // one compile per uv mode
}

TEST(CompiledEngine, UvOffValidatesAgainstUvOffGoldenPath) {
  // Regression guard for the golden cross-check's uv mode: a uv_off
  // image must be validated against the uv_off (EIE-style, all rows
  // computed) functional model, not the uv_on one. Pick an input where
  // the two modes produce different outputs — if kFull compared
  // against the wrong mode, it would throw here.
  Rng rng{63};
  const QuantizedNetwork q = seeded_network(rng);
  const CompiledNetwork compiled_off(q, tiny_arch(), false);
  AcceleratorSim sim(tiny_arch());

  bool saw_divergent_modes = false;
  for (int trial = 0; trial < 32; ++trial) {
    Vector x(24);
    for (float& v : x)
      v = rng.bernoulli(0.4) ? 0.0f
                             : static_cast<float>(rng.uniform(0.0, 1.0));
    const auto golden_off = q.infer_raw(x, /*use_predictor=*/false);
    saw_divergent_modes = saw_divergent_modes ||
                          golden_off != q.infer_raw(x, true);
    SimResult run;
    ASSERT_NO_THROW(run = sim.run(compiled_off, x, ValidationMode::kFull))
        << "trial " << trial;
    EXPECT_EQ(run.output, golden_off) << "trial " << trial;
  }
  // The guard is vacuous if uv_on and uv_off agree on every input.
  EXPECT_TRUE(saw_divergent_modes);
}

}  // namespace
}  // namespace sparsenn
