#include "core/model_zoo.hpp"

#include "common/check.hpp"
#include "common/fault.hpp"

namespace sparsenn {

ModelZoo::ModelZoo(std::size_t capacity_per_arch)
    : capacity_per_arch_(capacity_per_arch) {
  expects(capacity_per_arch_ > 0, "ModelZoo capacity must be at least 1");
}

std::size_t ModelZoo::size() const {
  const sync::MutexLock lock(mutex_);
  return entries_.size();
}

std::shared_ptr<const CompiledNetwork> ModelZoo::get(
    const ArchParams& arch, const QuantizedNetwork& network,
    bool use_predictor) {
  // Chaos hook, deliberately outside the lock so an injected stall
  // delays one fetch, not every fetch in the process. A throw here (or
  // from zoo.compile below) is the serving tier's transient
  // compile-failure class — the frontend retries it with backoff.
  (void)fault::point("zoo.registry.get");
  const std::string key = arch.cache_key();
  const std::uint64_t uid = network.uid();
  const std::uint64_t epoch = network.epoch();

  const sync::MutexLock lock(mutex_);
  std::size_t arch_entries = 0;
  auto arch_lru = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->arch_key != key) {
      ++it;
      continue;
    }
    if (it->uid == uid && it->epoch != epoch) {
      // The network mutated since this image was compiled: the image
      // is stale and can never be served again. Only this network's
      // entries are touched — other networks stay warm.
      it = entries_.erase(it);
      continue;
    }
    if (it->uid == uid && it->use_predictor == use_predictor) {
      // Hit: refresh recency (MRU first) and serve.
      ++hit_count_;
      entries_.splice(entries_.begin(), entries_, it);
      return entries_.front().image;
    }
    ++arch_entries;
    arch_lru = it++;
  }

  // Chaos hook on the miss path only: an injected compile failure is
  // transient by construction — the retrying caller re-enters here and
  // may succeed on the next attempt. Fires before eviction so a failed
  // compile never costs a warm image.
  (void)fault::point("zoo.compile");

  // Miss: evict before compiling, so an arch never holds more than
  // `capacity_per_arch_` images even transiently.
  if (arch_entries >= capacity_per_arch_) {
    entries_.erase(arch_lru);
    ++eviction_count_;
  }
  ++compile_count_;
  entries_.push_front(Entry{
      key, uid, epoch, use_predictor,
      std::make_shared<const CompiledNetwork>(network, arch, use_predictor)});
  return entries_.front().image;
}

bool ModelZoo::contains(const ArchParams& arch,
                        const QuantizedNetwork& network,
                        bool use_predictor) const {
  const std::string key = arch.cache_key();
  const sync::MutexLock lock(mutex_);
  for (const Entry& e : entries_) {
    if (e.uid == network.uid() && e.epoch == network.epoch() &&
        e.use_predictor == use_predictor && e.arch_key == key) {
      return true;
    }
  }
  return false;
}

std::size_t ModelZoo::invalidate(std::uint64_t uid) {
  const sync::MutexLock lock(mutex_);
  return entries_.remove_if([uid](const Entry& e) { return e.uid == uid; });
}

std::uint64_t ModelZoo::compile_count() const {
  const sync::MutexLock lock(mutex_);
  return compile_count_;
}

std::uint64_t ModelZoo::hit_count() const {
  const sync::MutexLock lock(mutex_);
  return hit_count_;
}

std::uint64_t ModelZoo::eviction_count() const {
  const sync::MutexLock lock(mutex_);
  return eviction_count_;
}

}  // namespace sparsenn
