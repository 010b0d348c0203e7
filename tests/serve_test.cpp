// Tests for the serving tier (src/serve/): the work-conserving claim,
// admission-control shedding, drain-on-shutdown, mixed-arch routing —
// and the acceptance bar: a served result is bit-identical to a direct
// simulation of the same input on both engine backends. Batching only
// changes *when* an inference runs, never its arithmetic.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/sync.hpp"
#include "serve/frontend.hpp"
#include "serve/request_queue.hpp"
#include "sim/compiled_network.hpp"
#include "sim_fixtures.hpp"

namespace sparsenn {
namespace {

using test_fixtures::make_batch_fixture;
using test_fixtures::tiny_arch;
using Fixture = test_fixtures::BatchFixture;
using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// RequestQueue: the claim rule and admission control are
// deterministic at this level (no worker threads racing the clock).

RequestQueue<int>::Options queue_options(std::size_t capacity,
                                         std::size_t lane_depth,
                                         std::size_t max_batch) {
  RequestQueue<int>::Options o;
  o.capacity = capacity;
  o.max_lane_depth = lane_depth;
  o.max_batch = max_batch;
  return o;
}

TEST(RequestQueue, ClaimTakesWhatTheLaneHoldsWithoutWaiting) {
  // Work-conserving claim: a batch is whatever the lane holds when a
  // consumer claims it, capped at max_batch — never a wait for more.
  RequestQueue<int> partial(queue_options(64, 64, /*max_batch=*/8));
  ASSERT_EQ(partial.try_push(/*lane=*/7, 1), PushOutcome::kAccepted);
  ASSERT_EQ(partial.try_push(/*lane=*/7, 2), PushOutcome::kAccepted);
  const auto both = partial.next_batch();
  ASSERT_TRUE(both.has_value());
  EXPECT_EQ(both->lane, 7u);
  EXPECT_EQ(both->items, (std::vector<int>{1, 2}));
  ASSERT_EQ(both->enqueued.size(), 2u);
  ASSERT_EQ(both->deadlines.size(), 2u);
  EXPECT_EQ(partial.size(), 0u);

  // More than max_batch queued: full batches, then the remainder, in
  // FIFO order.
  RequestQueue<int> q(queue_options(64, 64, /*max_batch=*/4));
  for (int i = 0; i < 11; ++i)
    ASSERT_EQ(q.try_push(/*lane=*/7, int{i}), PushOutcome::kAccepted);
  int next = 0;
  for (const std::size_t want : {4u, 4u, 3u}) {
    const auto batch = q.next_batch();
    ASSERT_TRUE(batch.has_value());
    ASSERT_EQ(batch->items.size(), want);
    for (const int item : batch->items) EXPECT_EQ(item, next++);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(RequestQueue, ShedsOnGlobalAndPerLaneBounds) {
  RequestQueue<int> q(queue_options(/*capacity=*/3, /*lane_depth=*/2,
                                    /*max_batch=*/8));
  EXPECT_EQ(q.try_push(0, 0), PushOutcome::kAccepted);
  EXPECT_EQ(q.try_push(0, 1), PushOutcome::kAccepted);
  // Lane 0 is at its depth bound; the queue still has room.
  EXPECT_EQ(q.try_push(0, 2), PushOutcome::kShedLaneFull);
  EXPECT_EQ(q.try_push(1, 3), PushOutcome::kAccepted);
  // Global capacity reached: every lane sheds, even fresh ones.
  EXPECT_EQ(q.try_push(2, 4), PushOutcome::kShedQueueFull);
  EXPECT_EQ(q.size(), 3u);
  q.shutdown();
  while (const auto batch = q.next_batch()) {
    if (batch->lane == 0) {
      EXPECT_EQ(batch->items.size(), 2u);
    }
  }
}

TEST(RequestQueue, ShutdownDrainsThenSignalsExit) {
  RequestQueue<int> q(queue_options(64, 64, /*max_batch=*/2));
  for (int i = 0; i < 5; ++i)
    ASSERT_EQ(q.try_push(/*lane=*/i % 2, int{i}), PushOutcome::kAccepted);
  q.shutdown();
  EXPECT_EQ(q.try_push(0, 99), PushOutcome::kClosed);

  std::size_t drained = 0;
  while (const auto batch = q.next_batch()) {
    EXPECT_LE(batch->items.size(), 2u);
    drained += batch->items.size();
  }
  EXPECT_EQ(drained, 5u);
  EXPECT_EQ(q.next_batch(), std::nullopt);  // stays terminal
}

TEST(RequestQueue, ManyProducersManyConsumersLoseNothing) {
  // The MPMC contract under the sanitizer jobs: every accepted item
  // comes out in exactly one batch.
  RequestQueue<int> q(queue_options(4096, 4096, 4));
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i)
        ASSERT_EQ(q.try_push(/*lane=*/p % 3, p * kPerProducer + i),
                  PushOutcome::kAccepted);
    });
  }
  std::vector<std::thread> consumers;
  // Local struct (not two locals) so the GUARDED_BY contract between
  // the mutex and the vector is statically checked under clang TSA.
  struct Seen {
    sync::Mutex mutex;
    std::vector<int> items SPARSENN_GUARDED_BY(mutex);
  } seen;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (const auto batch = q.next_batch()) {
        const sync::MutexLock lock(seen.mutex);
        seen.items.insert(seen.items.end(), batch->items.begin(),
                          batch->items.end());
      }
    });
  }
  for (auto& t : producers) t.join();
  q.shutdown();
  for (auto& t : consumers) t.join();

  const sync::MutexLock lock(seen.mutex);
  ASSERT_EQ(seen.items.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  std::sort(seen.items.begin(), seen.items.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i)
    ASSERT_EQ(seen.items[static_cast<std::size_t>(i)], i);
}

// ---------------------------------------------------------------------------
// ServingFrontend: end-to-end over real inferences.

/// Parks a one-worker frontend: the first batch its worker claims
/// stalls 200 ms at batch entry, so requests submitted meanwhile stay
/// queued. serve.worker.batch fires before the claim-time deadline
/// check, so a request with a short deadline expires while parked.
void park_first_batch(fault::ScopedFaultStorm& storm) {
  storm.add({.point = "serve.worker.batch",
             .action = fault::FaultAction::kDelay, .one_shot = true,
             .delay_us = 200'000});
}

ServingOptions serving_options(EngineKind kind) {
  ServingOptions o;
  o.num_workers = 2;
  o.max_batch = 4;
  o.engine = kind;
  return o;
}

class ServeEngines : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ServeEngines, ServedResultsBitIdenticalToDirectSimulation) {
  // The acceptance bar: for the same (network, arch, input, uv), a
  // result that travelled queue → micro-batch → worker engine → arena
  // equals a direct fully-validated simulation, bitwise, on both
  // backends and in both uv modes.
  const Fixture f = make_batch_fixture(10, /*seed=*/51);
  ServingFrontend frontend(serving_options(GetParam()));
  const std::size_t model = frontend.register_model(f.network, tiny_arch());

  std::vector<std::future<ServeResult>> futures;
  for (std::size_t i = 0; i < f.data.size(); ++i)
    for (const bool uv : {true, false})
      futures.push_back(frontend.submit(model, f.data.image(i), uv));

  const auto engine = make_engine(GetParam(), tiny_arch());
  const CompiledNetwork on(f.network, tiny_arch(), /*use_predictor=*/true);
  const CompiledNetwork off(f.network, tiny_arch(), /*use_predictor=*/false);
  std::size_t k = 0;
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    for (const bool uv : {true, false}) {
      const ServeResult served = futures[k++].get();
      ASSERT_EQ(served.status, ServeStatus::kOk);
      EXPECT_EQ(served.model, model);
      EXPECT_EQ(served.use_predictor, uv);
      EXPECT_GE(served.batch_size, 1u);
      EXPECT_GE(served.total_us, served.exec_us);
      const SimResult expected = engine->run(uv ? on : off, f.data.image(i),
                                             ValidationMode::kFull);
      EXPECT_EQ(served.result, expected) << "input " << i << " uv " << uv;
    }
  }

  frontend.shutdown();
  const ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.submitted, futures.size());
  EXPECT_EQ(stats.completed, futures.size());
  EXPECT_EQ(stats.shed, 0u);
  std::uint64_t histogram_requests = 0;
  for (std::size_t n = 0; n < stats.batch_size_counts.size(); ++n)
    histogram_requests += stats.batch_size_counts[n] * (n + 1);
  EXPECT_EQ(histogram_requests, stats.completed);
  // Two lanes (uv on/off) → exactly two compiles, everything else hits.
  EXPECT_EQ(stats.zoo_compiles, 2u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ServeEngines,
                         ::testing::Values(EngineKind::kCycle,
                                           EngineKind::kAnalytic));

TEST(ServingFrontend, MixedArchConfigsServeSideBySide) {
  // The zoo-of-zoos: one process, one frontend, two ArchParams. Each
  // model's results must match a direct simulation under ITS arch.
  const Fixture f = make_batch_fixture(4, /*seed=*/53);
  ArchParams wide = tiny_arch();
  wide.act_queue_depth = 4;

  ServingFrontend frontend(serving_options(EngineKind::kAnalytic));
  const std::size_t m_tiny = frontend.register_model(f.network, tiny_arch());
  const std::size_t m_wide = frontend.register_model(f.network, wide);

  std::vector<std::future<ServeResult>> tiny_futs, wide_futs;
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    tiny_futs.push_back(frontend.submit(m_tiny, f.data.image(i)));
    wide_futs.push_back(frontend.submit(m_wide, f.data.image(i)));
  }

  const auto tiny_engine = make_engine(EngineKind::kAnalytic, tiny_arch());
  const auto wide_engine = make_engine(EngineKind::kAnalytic, wide);
  const CompiledNetwork tiny_img(f.network, tiny_arch(), true);
  const CompiledNetwork wide_img(f.network, wide, true);
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    EXPECT_EQ(tiny_futs[i].get().result,
              tiny_engine->run(tiny_img, f.data.image(i)));
    EXPECT_EQ(wide_futs[i].get().result,
              wide_engine->run(wide_img, f.data.image(i)));
  }
  // One compile per (arch, uv-on) pair; no cross-arch aliasing.
  EXPECT_EQ(frontend.stats().zoo_compiles, 2u);
}

TEST(ServingFrontend, ShedsUnderOverloadInsteadOfQueueingUnboundedly) {
  // Tiny queue + the one worker parked for far longer than the submit
  // burst takes: almost everything past the capacity must shed,
  // immediately, with a diagnosable status — and every accepted
  // request must still complete.
  const Fixture f = make_batch_fixture(1, /*seed=*/57);
  ServingOptions options;
  options.num_workers = 1;
  options.max_batch = 64;  // never reached (capacity is smaller)
  options.queue_capacity = 4;
  options.max_queued_per_model = 4;
  ServingFrontend frontend(options);
  const std::size_t model = frontend.register_model(f.network, tiny_arch());
  fault::ScopedFaultStorm storm(/*seed_value=*/57);
  park_first_batch(storm);  // 200 ms: the burst below takes µs

  constexpr std::size_t kBurst = 32;
  std::vector<std::future<ServeResult>> futures;
  for (std::size_t i = 0; i < kBurst; ++i)
    futures.push_back(frontend.submit(model, f.data.image(0)));

  std::size_t ok = 0, shed = 0;
  for (auto& fut : futures) {
    const ServeResult r = fut.get();
    if (r.status == ServeStatus::kOk) {
      ++ok;
      EXPECT_FALSE(r.result.layers.empty());
    } else {
      ++shed;
      EXPECT_TRUE(r.status == ServeStatus::kShedQueueFull ||
                  r.status == ServeStatus::kShedModelBusy)
          << to_string(r.status);
      EXPECT_TRUE(r.result.layers.empty());
      EXPECT_EQ(r.total_us, 0.0);  // refused at admission, zero residence
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GE(shed, kBurst - 2 * options.queue_capacity);  // most of the burst
  EXPECT_GE(ok, options.queue_capacity);  // the admitted head completed

  frontend.shutdown();
  const ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.submitted, kBurst);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.completed, ok);
  EXPECT_GT(stats.shed_rate(), 0.5);
}

TEST(ServingFrontend, ShutdownDrainsAcceptedWorkAndRefusesNewWork) {
  const Fixture f = make_batch_fixture(6, /*seed=*/59);
  ServingOptions options = serving_options(EngineKind::kAnalytic);
  options.num_workers = 1;
  ServingFrontend frontend(options);
  const std::size_t model = frontend.register_model(f.network, tiny_arch());
  fault::ScopedFaultStorm storm(/*seed_value=*/59);
  park_first_batch(storm);  // requests are queued when we shut down

  std::vector<std::future<ServeResult>> futures;
  for (std::size_t i = 0; i < f.data.size(); ++i)
    futures.push_back(frontend.submit(model, f.data.image(i)));
  frontend.shutdown();  // drains; idempotent with the destructor

  for (auto& fut : futures) EXPECT_EQ(fut.get().status, ServeStatus::kOk);
  const ServeResult refused =
      frontend.submit(model, f.data.image(0)).get();
  EXPECT_EQ(refused.status, ServeStatus::kShutdown);
  EXPECT_EQ(frontend.stats().completed, f.data.size());
}

TEST(ServingFrontend, BatchSizeHistogramAccountsEveryBatch) {
  const Fixture f = make_batch_fixture(9, /*seed=*/61);
  ServingFrontend frontend(serving_options(EngineKind::kAnalytic));
  std::vector<std::future<ServeResult>> futures;
  const std::size_t model = frontend.register_model(f.network, tiny_arch());
  for (std::size_t i = 0; i < f.data.size(); ++i)
    futures.push_back(frontend.submit(model, f.data.image(i)));
  for (auto& fut : futures) ASSERT_EQ(fut.get().status, ServeStatus::kOk);
  frontend.shutdown();

  const ServingStats stats = frontend.stats();
  ASSERT_EQ(stats.batch_size_counts.size(), frontend.options().max_batch);
  std::uint64_t histogram_batches = 0, histogram_requests = 0;
  for (std::size_t n = 0; n < stats.batch_size_counts.size(); ++n) {
    histogram_batches += stats.batch_size_counts[n];
    histogram_requests += stats.batch_size_counts[n] * (n + 1);
  }
  EXPECT_EQ(histogram_batches, stats.batches);
  EXPECT_EQ(histogram_requests, stats.completed);
  EXPECT_GT(stats.mean_batch_size(), 0.0);
}

TEST(ServingFrontend, MeanBatchSizeCountsOnlyWhatBatchesHeld) {
  // Every second submit fails on the admission path (an armed
  // serve.queue.push throw), so it resolves kEngineError without ever
  // joining a micro-batch. The mean batch size must still be the
  // histogram's mean, not (completed + failed) / batches.
  const Fixture f = make_batch_fixture(16, /*seed=*/63);
  ServingOptions options = serving_options(EngineKind::kAnalytic);
  options.num_workers = 1;
  ServingFrontend frontend(options);
  const std::size_t model = frontend.register_model(f.network, tiny_arch());
  {
    fault::ScopedFaultStorm storm(/*seed_value=*/29);
    // The parked worker lets the accepted requests queue up into
    // batches of up to max_batch (4).
    park_first_batch(storm);
    storm.add({.point = "serve.queue.push",
               .action = fault::FaultAction::kThrow,
               .every_n = 2});
    std::vector<std::future<ServeResult>> futures;
    for (std::size_t i = 0; i < f.data.size(); ++i)
      futures.push_back(frontend.submit(model, f.data.image(i)));
    for (auto& fut : futures) (void)fut.get();
  }
  frontend.shutdown();

  const ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.failed, f.data.size() / 2);
  EXPECT_EQ(stats.completed, f.data.size() / 2);
  ASSERT_GT(stats.batches, 0u);
  std::uint64_t histogram_requests = 0;
  for (std::size_t n = 0; n < stats.batch_size_counts.size(); ++n)
    histogram_requests += stats.batch_size_counts[n] * (n + 1);
  EXPECT_EQ(stats.mean_batch_size(),
            static_cast<double>(histogram_requests) /
                static_cast<double>(stats.batches));
}

TEST(ServingFrontend, BatchCountersAgreeInEveryLiveSnapshot) {
  // Regression: `batches` used to come from the queue, which counts a
  // batch when a worker claims it, while the histogram moves only
  // after the batch resolves. A snapshot taken
  // while a batch was in flight disagreed with itself (and
  // mean_batch_size() read 0). A 200 ms stall at batch entry holds the
  // one batch in flight while stats() is polled.
  const Fixture f = make_batch_fixture(1, /*seed=*/67);
  ServingOptions options = serving_options(EngineKind::kAnalytic);
  options.num_workers = 1;
  ServingFrontend frontend(options);
  const std::size_t model = frontend.register_model(f.network, tiny_arch());

  fault::ScopedFaultStorm storm(/*seed_value=*/37);
  storm.add({.point = "serve.worker.batch",
             .action = fault::FaultAction::kDelay, .one_shot = true,
             .delay_us = 200'000});
  std::future<ServeResult> future = frontend.submit(model, f.data.image(0));
  std::size_t snapshots = 0;
  for (;;) {
    const bool resolved =
        future.wait_for(std::chrono::milliseconds(1)) ==
        std::future_status::ready;
    const ServingStats s = frontend.stats();
    std::uint64_t histogram_batches = 0;
    for (const std::uint64_t count : s.batch_size_counts)
      histogram_batches += count;
    EXPECT_EQ(s.batches, histogram_batches) << "snapshot " << snapshots;
    ++snapshots;
    if (resolved) break;
  }
  EXPECT_EQ(future.get().status, ServeStatus::kOk);
  EXPECT_GT(snapshots, 1u);
}

TEST(ServingFrontend, DestructionWithQueuedWorkResolvesEveryFuture) {
  // Destroying the frontend while requests are still queued (the one
  // worker is parked on its first batch) must not break a single
  // promise: the shutdown drain either executes or resolves each one,
  // and get() never throws std::future_error.
  const Fixture f = make_batch_fixture(16, /*seed=*/67);
  std::vector<std::future<ServeResult>> futures;
  {
    ServingOptions options = serving_options(EngineKind::kAnalytic);
    options.num_workers = 1;
    options.max_batch = 16;
    ServingFrontend frontend(options);
    const std::size_t model =
        frontend.register_model(f.network, tiny_arch());
    fault::ScopedFaultStorm storm(/*seed_value=*/67);
    park_first_batch(storm);
    for (std::size_t i = 0; i < f.data.size() - 1; ++i)
      futures.push_back(frontend.submit(model, f.data.image(i)));
    // Frontend destroyed here with the worker parked and the rest of
    // the 15 requests in the queue.
  }
  for (auto& fut : futures) {
    const ServeResult r = fut.get();  // must not throw
    EXPECT_TRUE(r.status == ServeStatus::kOk ||
                r.status == ServeStatus::kShutdown)
        << "unexpected status " << to_string(r.status);
  }
}

TEST(ServingFrontend, ExpiredDeadlineIsShedBeforeExecution) {
  // A request whose deadline has already passed when a worker claims
  // it resolves kDeadlineExceeded without touching the engine, as soon
  // as the worker gets to it.
  const Fixture f = make_batch_fixture(2, /*seed=*/59);
  ServingOptions options = serving_options(EngineKind::kAnalytic);
  options.num_workers = 1;
  options.max_batch = 8;
  ServingFrontend frontend(options);
  const std::size_t model = frontend.register_model(f.network, tiny_arch());
  fault::ScopedFaultStorm storm(/*seed_value=*/59);
  park_first_batch(storm);  // the claim-time check runs after the stall

  SubmitOptions expired;
  expired.deadline_us = 1;  // expires before the worker checks it
  const auto start = std::chrono::steady_clock::now();
  const ServeResult r =
      frontend.submit(model, f.data.image(0), expired).get();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(r.status, ServeStatus::kDeadlineExceeded);
  EXPECT_TRUE(r.result.layers.empty());
  EXPECT_LT(elapsed, 1s) << "the expired request waited past the stall";

  // Deadline-free traffic on the same lane is untouched.
  SubmitOptions relaxed;
  EXPECT_EQ(frontend.submit(model, f.data.image(1), relaxed).get().status,
            ServeStatus::kOk);
  frontend.shutdown();

  const ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.deadline_shed, 1u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.shed + stats.failed);
}

TEST(ServingFrontend, LiveStatsNeverShowMoreResolvedThanSubmitted) {
  // Regression (found by the thread-safety annotation pass): submit()
  // used to count `submitted` only *after* queue_.try_push, so a fast
  // worker could complete — and count — the request first, and a
  // concurrent stats() snapshot transiently showed
  // completed + shed + failed > submitted. The count now lands before
  // the push; every live snapshot must satisfy the ledger inequality.
  const Fixture f = make_batch_fixture(8, /*seed=*/91);
  ServingOptions options = serving_options(EngineKind::kAnalytic);
  ServingFrontend frontend(options);
  const std::size_t model = frontend.register_model(f.network, tiny_arch());

  std::atomic<bool> done{false};
  std::atomic<bool> violated{false};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const ServingStats s = frontend.stats();
      if (s.completed + s.shed + s.failed > s.submitted)
        violated.store(true, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  constexpr std::size_t kRequests = 600;
  std::vector<std::future<ServeResult>> futures;
  futures.reserve(kRequests);
  for (std::size_t r = 0; r < kRequests; ++r)
    futures.push_back(
        frontend.submit(model, f.data.image(r % f.data.size())));
  for (auto& future : futures) (void)future.get();
  done.store(true, std::memory_order_relaxed);
  sampler.join();

  EXPECT_FALSE(violated.load())
      << "a stats() snapshot showed completed + shed + failed > submitted";
  frontend.shutdown();
  const ServingStats stats = frontend.stats();
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.completed + stats.shed + stats.failed, kRequests);
}

}  // namespace
}  // namespace sparsenn
