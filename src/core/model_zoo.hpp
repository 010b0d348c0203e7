#pragma once
// Multi-network, multi-arch compiled-image store for model-zoo serving.
//
// ModelZoo is an LRU of compiled images keyed on
// (ArchParams::cache_key(), network uid, network epoch, uv mode), so a
// serving path can rotate several deployed models through the
// accelerator without recompiling per request. A compiled image is
// only meaningful for the architecture it was sliced for, so one
// process serving models deployed against mixed configs (paper 64-PE
// next to reduced 16-PE experiments, different queue depths, different
// clocks) resolves any (arch, network, uv) triple through one zoo.
//
// Semantics:
//   - get() compiles at most once per live key and serves every
//     ExecutionEngine backend (cycle and analytic) the same image;
//   - capacity is per arch: when an arch holds `capacity_per_arch`
//     images, inserting a new image for that arch evicts that arch's
//     least recently used one (other arches are untouched); a
//     re-requested evicted network simply recompiles — images are pure
//     functions of (network state, arch, uv), so results are
//     bit-identical after recompilation (tests/model_zoo_test pins it);
//   - a network mutation (epoch bump, e.g. set_prediction_threshold)
//     invalidates only that network's entries: get() drops same-arch,
//     same-uid entries whose epoch moved; other networks stay warm.
//
// Thread-safety: one sync::Mutex guards the entry list and the
// counters (SPARSENN_GUARDED_BY, so clang's -Wthread-safety proves
// every access is serialised — common/sync.hpp). Hits are cheap
// lookups; a miss compiles under the lock, which also guarantees
// at-most-one compile per key under concurrent requests for the same
// image. The returned image is shared read-only across threads: get()
// hands out a shared_ptr that co-owns the image, so eviction and
// invalidation only drop the zoo's own reference and an image held by
// an in-flight inference stays alive until that inference releases it.
// The source QuantizedNetwork must still outlive any pinned image: the
// image's stale() check reads through its network pointer.

#include <cstdint>
#include <list>
#include <memory>
#include <string>

#include "arch/params.hpp"
#include "common/sync.hpp"
#include "nn/quantized.hpp"
#include "sim/compiled_network.hpp"

namespace sparsenn {

class ModelZoo {
 public:
  /// Default per-arch bound: generous for one serving node, small
  /// enough that a runaway sweep over ever-fresh networks cannot hold
  /// the whole model catalogue in memory.
  static constexpr std::size_t kDefaultCapacity = 8;

  explicit ModelZoo(std::size_t capacity_per_arch = kDefaultCapacity);

  /// Live compiled images currently held, across every arch.
  std::size_t size() const SPARSENN_EXCLUDES(mutex_);

  /// The compiled image for (arch, network@its-current-epoch, uv
  /// mode): a hit refreshes the entry's recency; a miss compiles,
  /// inserting as most-recent and evicting the arch's LRU entry when
  /// that arch is full. Same-arch, same-uid entries compiled at an
  /// older epoch are dropped on the way. The returned pointer pins the
  /// image: it stays valid (and bit-exact) even if the entry is
  /// evicted or invalidated while held.
  std::shared_ptr<const CompiledNetwork> get(const ArchParams& arch,
                                             const QuantizedNetwork& network,
                                             bool use_predictor)
      SPARSENN_EXCLUDES(mutex_);

  /// Whether a live image exists for (arch, network@its-current-epoch,
  /// uv).
  bool contains(const ArchParams& arch, const QuantizedNetwork& network,
                bool use_predictor) const SPARSENN_EXCLUDES(mutex_);

  /// Drops all of one network's images (every arch, both uv modes, any
  /// epoch); returns how many were dropped.
  std::size_t invalidate(std::uint64_t uid) SPARSENN_EXCLUDES(mutex_);

  // Observability for tests and serving dashboards.
  std::uint64_t compile_count() const SPARSENN_EXCLUDES(mutex_);
  std::uint64_t hit_count() const SPARSENN_EXCLUDES(mutex_);
  std::uint64_t eviction_count() const SPARSENN_EXCLUDES(mutex_);

 private:
  struct Entry {
    std::string arch_key;  ///< ArchParams::cache_key()
    std::uint64_t uid;
    std::uint64_t epoch;
    bool use_predictor;
    /// Shared with every in-flight holder: dropping the entry only
    /// releases the zoo's reference, never a running inference's.
    std::shared_ptr<const CompiledNetwork> image;
  };

  const std::size_t capacity_per_arch_;  ///< immutable — no guard
  mutable sync::Mutex mutex_;
  /// MRU first (one recency order across every arch).
  std::list<Entry> entries_ SPARSENN_GUARDED_BY(mutex_);
  std::uint64_t compile_count_ SPARSENN_GUARDED_BY(mutex_) = 0;
  std::uint64_t hit_count_ SPARSENN_GUARDED_BY(mutex_) = 0;
  std::uint64_t eviction_count_ SPARSENN_GUARDED_BY(mutex_) = 0;
};

}  // namespace sparsenn
