#include "serve/health.hpp"

#include "common/check.hpp"
#include "common/fault.hpp"

namespace sparsenn {

namespace {

/// splitmix64 finalizer — the same stateless mix the fault framework
/// uses for its probability coins, so probe admission is a pure
/// function of (seed, model, half-open submission index).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// EWMA weight for the primary-path execution-time estimate: heavy
/// enough on history to ride out one outlier, light enough to track a
/// model whose cost drifts.
constexpr double kExecEwmaAlpha = 0.2;

}  // namespace

const char* to_string(BreakerState state) noexcept {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

ModelHealth::ModelHealth(const BreakerOptions& breaker,
                         std::size_t pressure_window, bool track)
    : breaker_(breaker), tracking_(track), pressure_(pressure_window) {
  if (breaker_.window > 0) {
    expects(breaker_.min_samples > 0, "breaker min_samples must be >= 1");
    expects(breaker_.failure_threshold > 0.0 &&
                breaker_.failure_threshold <= 1.0,
            "breaker failure_threshold must be in (0, 1]");
    expects(breaker_.probe_interval > 0, "breaker probe_interval must be >= 1");
    expects(breaker_.probe_successes > 0,
            "breaker probe_successes must be >= 1");
  }
}

void ModelHealth::Window::push(bool hit) {
  if (slots_.empty()) return;
  // Evict the slot being overwritten from the running hit count.
  if (filled_ == slots_.size() && slots_[next_]) --hits_;
  slots_[next_] = hit;
  next_ = (next_ + 1) % slots_.size();
  if (filled_ < slots_.size()) ++filled_;
  if (hit) ++hits_;
}

void ModelHealth::Window::clear() {
  slots_.assign(slots_.size(), false);
  next_ = 0;
  filled_ = 0;
  hits_ = 0;
}

ModelHealth::Model& ModelHealth::model_slot(std::size_t model) {
  if (model >= models_.size())
    models_.resize(model + 1, Model{.failures = Window(breaker_.window)});
  return models_[model];
}

void ModelHealth::transition(std::size_t model, Model& m, BreakerState to) {
  transitions_.push_back(Transition{model, m.state, to, m.events});
  if (to == BreakerState::kOpen) ++opens_;
  if (m.state == BreakerState::kHalfOpen && to == BreakerState::kClosed)
    ++closes_;
  m.state = to;
}

ModelHealth::Admission ModelHealth::admit(std::size_t model) {
  if (!breakers_enabled()) return Admission::kAdmit;
  Admission admission = Admission::kAdmit;
  {
    const sync::MutexLock lock(mutex_);
    Model& m = model_slot(model);
    ++m.events;
    if (m.state == BreakerState::kOpen) {
      if (m.open_sheds_left > 0) {
        --m.open_sheds_left;
        return Admission::kShed;
      }
      // The open budget is spent: start probing.
      transition(model, m, BreakerState::kHalfOpen);
      m.half_open_seen = 0;
      m.probe_streak = 0;
    }
    if (m.state == BreakerState::kHalfOpen) {
      ++m.half_open_seen;
      // The first half-open submission always probes (guaranteed
      // progress); later ones probe on the seeded hash so the rate is
      // ~1/probe_interval but the exact indices are a pure function
      // of the seed.
      const bool probe =
          m.half_open_seen == 1 || breaker_.probe_interval == 1 ||
          mix64(breaker_.seed ^ mix64(static_cast<std::uint64_t>(model) + 1) ^
                m.half_open_seen) %
                  breaker_.probe_interval ==
              0;
      if (!probe) return Admission::kShed;
      ++probes_;
      admission = Admission::kProbe;
    }
  }
  if (admission == Admission::kProbe) {
    // Outside the lock: an armed delay models a slow health check; an
    // armed throw is contained by submit()'s admission containment.
    (void)fault::point("serve.breaker.probe");
  }
  return admission;
}

void ModelHealth::record(std::size_t model, const BatchOutcome& outcome) {
  if (!tracking_) return;
  const sync::MutexLock lock(mutex_);
  Model& m = model_slot(model);
  m.events += outcome.ok + outcome.failed + outcome.deadline_shed;

  if (outcome.exec_samples > 0) {
    const double sample =
        outcome.exec_us_sum / static_cast<double>(outcome.exec_samples);
    m.exec_ewma_us = m.exec_ewma_us == 0.0
                         ? sample
                         : (1.0 - kExecEwmaAlpha) * m.exec_ewma_us +
                               kExecEwmaAlpha * sample;
  }

  for (std::uint64_t i = 0; i < outcome.ok + outcome.failed; ++i)
    pressure_.push(false);
  for (std::uint64_t i = 0; i < outcome.deadline_shed; ++i)
    pressure_.push(true);

  if (!breakers_enabled()) return;
  switch (m.state) {
    case BreakerState::kClosed: {
      for (std::uint64_t i = 0; i < outcome.ok; ++i) m.failures.push(false);
      for (std::uint64_t i = 0; i < outcome.failed; ++i) m.failures.push(true);
      for (std::uint64_t i = 0; i < outcome.deadline_shed; ++i)
        m.failures.push(false);
      if (m.failures.filled() >= breaker_.min_samples &&
          static_cast<double>(m.failures.hits()) >=
              breaker_.failure_threshold *
                  static_cast<double>(m.failures.filled())) {
        transition(model, m, BreakerState::kOpen);
        m.open_sheds_left = breaker_.open_sheds;
      }
      break;
    }
    case BreakerState::kHalfOpen: {
      // Only probe outcomes drive the breaker from here; stragglers
      // admitted before the open are informational only.
      if (outcome.probe_failed > 0) {
        transition(model, m, BreakerState::kOpen);
        m.open_sheds_left = breaker_.open_sheds;
        m.probe_streak = 0;
      } else if (outcome.probe_ok > 0) {
        m.probe_streak += outcome.probe_ok;
        if (m.probe_streak >= breaker_.probe_successes) {
          transition(model, m, BreakerState::kClosed);
          // Clean slate: the failures that opened the breaker must not
          // re-open it on the next recorded outcome.
          m.failures.clear();
        }
      }
      break;
    }
    case BreakerState::kOpen:
      break;  // stragglers while open change nothing
  }
}

BreakerState ModelHealth::state(std::size_t model) const {
  const sync::MutexLock lock(mutex_);
  return model < models_.size() ? models_[model].state
                                : BreakerState::kClosed;
}

double ModelHealth::estimated_exec_us(std::size_t model) const {
  const sync::MutexLock lock(mutex_);
  return model < models_.size() ? models_[model].exec_ewma_us : 0.0;
}

std::uint64_t ModelHealth::recent_deadline_sheds() const {
  const sync::MutexLock lock(mutex_);
  return pressure_.hits();
}

std::uint64_t ModelHealth::opens() const {
  const sync::MutexLock lock(mutex_);
  return opens_;
}

std::uint64_t ModelHealth::probes() const {
  const sync::MutexLock lock(mutex_);
  return probes_;
}

std::uint64_t ModelHealth::closes() const {
  const sync::MutexLock lock(mutex_);
  return closes_;
}

std::vector<ModelHealth::Transition> ModelHealth::transitions() const {
  const sync::MutexLock lock(mutex_);
  return transitions_;
}

}  // namespace sparsenn
