#pragma once
// Multi-network compiled-image store for model-zoo serving.
//
// PR 3's CompiledNetworkCache memoised exactly one network's images —
// enough for a single-model sweep, useless for a serving path that
// rotates several deployed models through the same accelerator.
// ModelZoo supersedes it (the single-network cache is gone): a
// capacity-bounded LRU of compiled images keyed on (network uid,
// network epoch, uv mode). The ArchParams are fixed per zoo — a
// compiled image is only meaningful for the architecture it was
// sliced for, so the arch is the fourth key component by
// construction.
//
// Semantics:
//   - get() compiles at most once per live key and serves every
//     ExecutionEngine backend (cycle and analytic) the same image;
//   - when the zoo is full, inserting a new image evicts the least
//     recently used one; a re-requested evicted network simply
//     recompiles — images are pure functions of (network state, arch,
//     uv), so results are bit-identical after recompilation
//     (tests/model_zoo_test pins it);
//   - a network mutation (epoch bump, e.g. set_prediction_threshold)
//     invalidates only that network's entries: get() drops same-uid
//     entries whose epoch moved, other networks stay warm.
//
// Thread-safety: none. Concurrent callers (System, the serving
// frontend) go through ZooRegistry (core/zoo_registry.hpp), which
// declares its zoo map SPARSENN_GUARDED_BY(its mutex)
// (common/sync.hpp), so clang's -Wthread-safety proves every access to
// a shared zoo is serialised; a zoo used directly (tests,
// bench/sim_throughput) stays on one thread. The returned image is
// shared read-only across threads: get() hands out a shared_ptr that
// co-owns the image, so eviction and invalidation only drop the zoo's
// own reference and an image held by an in-flight inference stays
// alive until that inference releases it. (The pre-serving contract —
// "references are valid until eviction, size the capacity above the
// pairs in flight" — cannot hold under multi-model serving churn,
// where an eviction can race an arbitrarily long cycle-engine run.)
// The source QuantizedNetwork must still outlive any pinned image: the
// image's stale() check reads through its network pointer.

#include <cstdint>
#include <list>
#include <memory>

#include "arch/params.hpp"
#include "nn/quantized.hpp"
#include "sim/compiled_network.hpp"

namespace sparsenn {

class ModelZoo {
 public:
  /// Default bound: generous for one serving node, small enough that a
  /// runaway sweep over ever-fresh networks cannot hold the whole
  /// model catalogue in memory.
  static constexpr std::size_t kDefaultCapacity = 8;

  explicit ModelZoo(const ArchParams& params,
                    std::size_t capacity = kDefaultCapacity);

  const ArchParams& params() const noexcept { return params_; }
  std::size_t capacity() const noexcept { return capacity_; }
  /// Live compiled images currently held (≤ capacity()).
  std::size_t size() const noexcept { return entries_.size(); }

  /// The compiled image for (network@its-current-epoch, uv mode):
  /// a hit refreshes the entry's recency; a miss compiles, inserting
  /// as most-recent and evicting the LRU entry when full. Same-uid
  /// entries compiled at an older epoch are dropped on the way. The
  /// returned pointer pins the image: it stays valid (and bit-exact)
  /// even if the entry is evicted or invalidated while held.
  std::shared_ptr<const CompiledNetwork> get(const QuantizedNetwork& network,
                                             bool use_predictor);

  /// Whether a live image exists for (network@its-current-epoch, uv).
  bool contains(const QuantizedNetwork& network,
                bool use_predictor) const noexcept;

  /// Drops all of one network's images (both uv modes, any epoch);
  /// returns how many were dropped.
  std::size_t invalidate(std::uint64_t uid) noexcept;

  // Observability for tests and serving dashboards.
  std::uint64_t compile_count() const noexcept { return compile_count_; }
  std::uint64_t hit_count() const noexcept { return hit_count_; }
  std::uint64_t eviction_count() const noexcept { return eviction_count_; }

 private:
  struct Entry {
    std::uint64_t uid;
    std::uint64_t epoch;
    bool use_predictor;
    /// Shared with every in-flight holder: dropping the entry only
    /// releases the zoo's reference, never a running inference's.
    std::shared_ptr<const CompiledNetwork> image;
  };

  ArchParams params_;
  std::size_t capacity_;
  /// MRU first.
  std::list<Entry> entries_;
  std::uint64_t compile_count_ = 0;
  std::uint64_t hit_count_ = 0;
  std::uint64_t eviction_count_ = 0;
};

}  // namespace sparsenn
