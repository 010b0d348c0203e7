#pragma once
// Bounded MPMC request queue with per-lane, work-conserving
// micro-batching.
//
// The serving frontend's admission point: any number of producer
// threads push requests, any number of consumer (worker) threads pop
// *micro-batches*. Requests are grouped into lanes — one lane per
// (model, uv-mode) pair — because a micro-batch only makes sense over
// requests that execute the same compiled image. Batching is
// work-conserving: an idle consumer claims a lane and takes whatever
// it holds right now, capped at max_batch, without waiting for more.
// Batches therefore form only from requests that arrived while every
// consumer was busy. The engines run one inference at a time, so a
// wait for a fuller batch would buy latency and no throughput.
//
// Boundedness is the backpressure story: try_push sheds (refuses)
// when the global capacity is reached or when one lane exceeds its
// per-lane depth bound (per-model admission control) instead of
// queueing unboundedly — under overload the queue converts load into
// a measured shed rate, not into latency collapse.
//
// Priority classes: each lane carries a Priority (the frontend keys
// lanes by (model, uv, priority)) and admission is watermarked per
// class — class c is admitted only while the global depth (and the
// lane depth) is below watermark[c] × the bound, so with e.g.
// {1.0, 0.85, 0.5} best-effort traffic sheds first as depth rises,
// normal next, and high-priority requests keep the full bound. The
// defaults are all 1.0 (no differentiation) so priority admission is
// strictly opt-in.
//
// Lanes are claimed oldest-highest-first — the most urgent priority
// class among non-empty lanes wins, and the oldest head request breaks
// ties — so a high-priority head never starves behind a best-effort
// flood, and service order stays FIFO-ish within a class. A claim
// takes its items under the lock, so two workers never split one
// batch. All state lives under one mutex with one consumer-side
// condition variable (producer-side none — push never blocks); the
// locking contract is *static*: every field is
// SPARSENN_GUARDED_BY(mutex_) and clang's -Wthread-safety proves every
// access holds it (common/sync.hpp), on top of the sanitizer CI jobs
// running the multi-producer/multi-consumer tests under ASan+UBSan and
// TSan.
//
// Deadlines: try_push optionally carries an absolute per-request
// deadline. The queue itself never drops a request — it hands the
// deadline back in the Batch (parallel to items) so the *consumer*
// sheds already-dead requests at batch-claim time.
//
// T must be movable; the queue stamps each item's enqueue time itself
// (steady clock) so the consumer can measure true queue residence.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/sync.hpp"

namespace sparsenn {

/// Request priority classes, most urgent first (the numeric order is
/// the claiming order: lower value = served first, shed last).
enum class Priority : std::uint8_t {
  kHigh = 0,        ///< latency-critical: full admission bound
  kNormal = 1,      ///< default traffic
  kBestEffort = 2,  ///< background / speculative: sheds first
};

inline constexpr std::size_t kNumPriorityClasses = 3;

/// Priority → array index for per-class tables and counters.
constexpr std::size_t class_index(Priority priority) noexcept {
  return static_cast<std::size_t>(priority);
}

constexpr const char* to_string(Priority priority) noexcept {
  switch (priority) {
    case Priority::kHigh: return "high";
    case Priority::kNormal: return "normal";
    case Priority::kBestEffort: return "best-effort";
  }
  return "unknown";
}

/// Outcome of a push attempt.
enum class PushOutcome {
  kAccepted,
  kShedQueueFull,  ///< global capacity reached
  kShedLaneFull,   ///< this lane's depth bound reached (per-model
                   ///< admission control)
  kClosed,         ///< queue shut down
};

template <typename T>
class RequestQueue {
 public:
  using Clock = std::chrono::steady_clock;

  struct Options {
    std::size_t capacity = 1024;       ///< global bound (all lanes)
    std::size_t max_lane_depth = 256;  ///< per-lane admission bound
    std::size_t max_batch = 8;         ///< most requests per batch
    /// Per-class admission watermarks, fractions of capacity /
    /// max_lane_depth (indexed by class_index). Must be in (0, 1] and
    /// non-increasing from kHigh to kBestEffort — lower classes shed
    /// first as depth rises. All-1.0 (the default) disables priority
    /// admission.
    std::array<double, kNumPriorityClasses> class_watermarks{1.0, 1.0, 1.0};
  };

  /// Sentinel for "no deadline".
  static constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

  struct Batch {
    std::uint64_t lane = 0;
    std::vector<T> items;
    /// Each item's enqueue stamp (parallel to items) and the claim
    /// stamp, for queueing-delay accounting downstream.
    std::vector<Clock::time_point> enqueued;
    /// Each item's absolute deadline (parallel to items; kNoDeadline
    /// when none) — the consumer sheds expired items at claim time.
    std::vector<Clock::time_point> deadlines;
    Clock::time_point claimed_at{};
  };

  explicit RequestQueue(const Options& options) : options_(options) {
    expects(options_.capacity > 0, "queue capacity must be at least 1");
    expects(options_.max_lane_depth > 0, "lane depth must be at least 1");
    expects(options_.max_batch > 0, "max_batch must be at least 1");
    double previous = 1.0;
    for (std::size_t c = 0; c < kNumPriorityClasses; ++c) {
      const double w = options_.class_watermarks[c];
      expects(w > 0.0 && w <= 1.0, "class watermarks must be in (0, 1]");
      expects(w <= previous,
              "class watermarks must be non-increasing from kHigh");
      previous = w;
      global_limits_[c] = watermark_limit(w, options_.capacity);
      lane_limits_[c] = watermark_limit(w, options_.max_lane_depth);
    }
  }

  /// Non-blocking admission: sheds instead of waiting (the caller
  /// converts a shed into an immediate client-visible response).
  /// `deadline` is the request's absolute expiry (kNoDeadline = none);
  /// it travels with the item to the consumer. `priority` selects the
  /// admission watermarks and becomes the lane's claiming class (the
  /// caller keys lanes by priority, so one lane never mixes classes).
  PushOutcome try_push(std::uint64_t lane_id, T item,
                       Clock::time_point deadline = kNoDeadline,
                       Priority priority = Priority::kNormal)
      SPARSENN_EXCLUDES(mutex_) {
    // Chaos hook, outside the lock: an injected delay models a slow
    // admission path, an injected throw is contained by the caller
    // (the frontend converts it into a failed-future response).
    (void)fault::point("serve.queue.push");
    {
      const sync::MutexLock lock(mutex_);
      if (closed_) return PushOutcome::kClosed;
      if (total_ >= global_limits_[class_index(priority)])
        return PushOutcome::kShedQueueFull;
      Lane& lane = lanes_[lane_id];
      if (lane.slots.size() >= lane_limits_[class_index(priority)])
        return PushOutcome::kShedLaneFull;
      lane.priority = priority;
      lane.slots.push_back(
          Slot{std::move(item), Clock::now(), deadline, seq_++});
      ++total_;
    }
    // One idle consumer is enough to claim the new request.
    work_cv_.notify_one();
    return PushOutcome::kAccepted;
  }

  /// Blocks until some lane holds a request, then claims the most
  /// urgent lane and returns what it holds right now, up to max_batch —
  /// it never waits for a batch to fill. Returns nullopt once the
  /// queue is closed AND empty, telling the worker to exit. Safe for
  /// any number of concurrent consumers.
  std::optional<Batch> next_batch() SPARSENN_EXCLUDES(mutex_) {
    sync::UniqueLock lock(mutex_);
    Lane* lane = nullptr;
    std::uint64_t lane_id = 0;
    for (;;) {
      // Oldest-highest-first claim: the most urgent priority class
      // among non-empty lanes wins; the oldest head request breaks
      // ties within a class. A best-effort flood therefore never
      // delays a waiting high-priority head by more than the batches
      // already in service.
      auto best_pri = static_cast<std::uint8_t>(0xFF);
      std::uint64_t best_seq = ~std::uint64_t{0};
      for (auto& [id, candidate] : lanes_) {
        if (candidate.slots.empty()) continue;
        const auto pri = static_cast<std::uint8_t>(candidate.priority);
        const std::uint64_t seq = candidate.slots.front().seq;
        if (pri < best_pri || (pri == best_pri && seq < best_seq)) {
          best_pri = pri;
          best_seq = seq;
          lane = &candidate;
          lane_id = id;
        }
      }
      if (lane != nullptr) break;
      if (closed_) return std::nullopt;
      // Hand-rolled wait (no predicate lambda) so the guarded reads
      // stay inside this annotated function for the thread-safety
      // analysis.
      work_cv_.wait(lock);
    }

    Batch batch;
    batch.lane = lane_id;
    batch.claimed_at = Clock::now();
    const std::size_t take = std::min(lane->slots.size(), options_.max_batch);
    batch.items.reserve(take);
    batch.enqueued.reserve(take);
    batch.deadlines.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.items.push_back(std::move(lane->slots.front().item));
      batch.enqueued.push_back(lane->slots.front().enqueued);
      batch.deadlines.push_back(lane->slots.front().deadline);
      lane->slots.pop_front();
    }
    total_ -= take;
    // Pass the wake-up on when work is left: pushes that arrived while
    // every consumer was busy notified nobody.
    const bool notify = total_ > 0;
    lock.unlock();
    if (notify) work_cv_.notify_one();
    return batch;
  }

  /// Stops admission and wakes every consumer; queued requests still
  /// drain as ordinary batches, then next_batch() returns nullopt.
  void shutdown() SPARSENN_EXCLUDES(mutex_) {
    {
      const sync::MutexLock lock(mutex_);
      closed_ = true;
    }
    work_cv_.notify_all();
  }

  std::size_t size() const SPARSENN_EXCLUDES(mutex_) {
    const sync::MutexLock lock(mutex_);
    return total_;
  }

 private:
  struct Slot {
    T item;
    Clock::time_point enqueued;
    Clock::time_point deadline;
    std::uint64_t seq;
  };
  struct Lane {
    std::deque<Slot> slots;
    Priority priority = Priority::kNormal;  ///< claiming class
  };

  /// Admission bound for one class: floor(w × bound), at least 1 so a
  /// watermarked class can always make *some* progress on an idle
  /// queue.
  static std::size_t watermark_limit(double w, std::size_t bound) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(w * static_cast<double>(bound)));
  }

  Options options_;  ///< immutable after construction — no guard
  /// Per-class depth bounds derived from class_watermarks — immutable.
  std::array<std::size_t, kNumPriorityClasses> global_limits_{};
  std::array<std::size_t, kNumPriorityClasses> lane_limits_{};
  mutable sync::Mutex mutex_;
  sync::CondVar work_cv_;
  std::map<std::uint64_t, Lane> lanes_ SPARSENN_GUARDED_BY(mutex_);
  std::size_t total_ SPARSENN_GUARDED_BY(mutex_) = 0;
  std::uint64_t seq_ SPARSENN_GUARDED_BY(mutex_) = 0;
  bool closed_ SPARSENN_GUARDED_BY(mutex_) = false;
};

}  // namespace sparsenn
