#include "core/model_zoo.hpp"

#include "common/check.hpp"
#include "common/fault.hpp"

namespace sparsenn {

ModelZoo::ModelZoo(const ArchParams& params, std::size_t capacity)
    : params_(params), capacity_(capacity) {
  params_.validate();
  expects(capacity_ > 0, "ModelZoo capacity must be at least 1");
}

std::shared_ptr<const CompiledNetwork> ModelZoo::get(
    const QuantizedNetwork& network, bool use_predictor) {
  const std::uint64_t uid = network.uid();
  const std::uint64_t epoch = network.epoch();

  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->uid != uid) {
      ++it;
      continue;
    }
    if (it->epoch != epoch) {
      // The network mutated since this image was compiled: the image
      // is stale and can never be served again. Only this network's
      // entries are touched — other networks stay warm.
      it = entries_.erase(it);
      continue;
    }
    if (it->use_predictor == use_predictor) {
      // Hit: refresh recency (MRU first) and serve.
      ++hit_count_;
      entries_.splice(entries_.begin(), entries_, it);
      return entries_.front().image;
    }
    ++it;
  }

  // Chaos hook on the miss path only: an injected compile failure is
  // transient by construction — the retrying caller re-enters here and
  // may succeed on the next attempt. Fires before eviction so a failed
  // compile never costs a warm image.
  (void)fault::point("zoo.compile");

  // Miss: evict down to capacity - 1 before compiling, so the zoo
  // never holds more than `capacity_` images even transiently.
  while (entries_.size() >= capacity_) {
    entries_.pop_back();
    ++eviction_count_;
  }
  ++compile_count_;
  entries_.push_front(Entry{
      uid, epoch, use_predictor,
      std::make_shared<const CompiledNetwork>(network, params_,
                                              use_predictor)});
  return entries_.front().image;
}

bool ModelZoo::contains(const QuantizedNetwork& network,
                        bool use_predictor) const noexcept {
  for (const Entry& e : entries_) {
    if (e.uid == network.uid() && e.epoch == network.epoch() &&
        e.use_predictor == use_predictor) {
      return true;
    }
  }
  return false;
}

std::size_t ModelZoo::invalidate(std::uint64_t uid) noexcept {
  std::size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->uid == uid) {
      it = entries_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

}  // namespace sparsenn
