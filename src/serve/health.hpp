#pragma once
// ModelHealth — per-model health tracking and circuit breaking for
// the serving tier.
//
// The frontend reports every request outcome (ok / engine failure /
// deadline shed) here, per model handle, and asks back two questions:
//
//   admit()  — should a new submission for this model enter the queue
//              at all? This is the circuit breaker: a model whose
//              sliding-window failure rate crosses
//              BreakerOptions::failure_threshold transitions
//              closed → open, and while open every new submission is
//              shed immediately (ServeStatus::kShedCircuitOpen) so a
//              persistently failing model stops burning queue slots,
//              compile retries and worker time. After
//              BreakerOptions::open_sheds sheds the breaker goes
//              half-open and lets *probe* requests through: the first
//              half-open submission always probes, later ones probe on
//              a seeded hash (below), and probe_successes consecutive
//              successful probes close the breaker again. A failed
//              (or deadline-shed) probe re-opens it.
//
//   estimated_exec_us() / recent_deadline_sheds() — the signals the
//              degraded-mode fallback reads: a running estimate of the
//              primary path's per-request execution time (EWMA over
//              completed primary-path requests) proves a deadline
//              budget too small for the cycle engine, and the count of
//              deadline sheds inside the recent global outcome window
//              feeds the frontend's brownout signal.
//
// Determinism: half-open probe admission is a pure function of
// (BreakerOptions::seed, model handle, half-open submission index) —
// the same splitmix64 mix the fault framework uses for its stateless
// probability coins — so a single-worker schedule with a fixed seed
// produces an identical open/half-open/close transition sequence
// every run. transitions() returns that sequence for tests to pin
// (tests/overload_test.cpp).
//
// Probe admissions fire the "serve.breaker.probe" fault point (after
// the decision, outside the lock): an injected throw there is
// contained by submit()'s admission-path containment, and an injected
// delay models a slow health check.
//
// Thread-safety: one mutex over all state, annotated per the
// sync.hpp recipe; admit()/record() are called concurrently by client
// threads and workers. Disabled (default-constructed frontends with
// breakers off and degraded mode off) every call is a lock-free
// no-op.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/sync.hpp"

namespace sparsenn {

/// Circuit-breaker state of one model (closed = healthy).
enum class BreakerState {
  kClosed,    ///< healthy: submissions admitted normally
  kOpen,      ///< failing: submissions shed as kShedCircuitOpen
  kHalfOpen,  ///< probing: seeded probe submissions admitted
};

const char* to_string(BreakerState state) noexcept;

/// Per-model circuit-breaker knobs (ServingOptions::breaker).
struct BreakerOptions {
  /// Sliding outcome window per model. 0 disables circuit breaking
  /// entirely (every admit() is kAdmit).
  std::size_t window = 0;
  /// Outcomes required in the window before the failure rate is
  /// considered meaningful (prevents one early failure from opening).
  std::size_t min_samples = 8;
  /// Open when window failures / window outcomes reaches this.
  double failure_threshold = 0.5;
  /// Submissions shed while open before transitioning to half-open
  /// (a count, not a timer, so transitions are schedule-deterministic).
  std::uint64_t open_sheds = 16;
  /// Half-open: roughly one submission in `probe_interval` probes
  /// (seeded hash; the first half-open submission always probes).
  std::uint64_t probe_interval = 4;
  /// Consecutive successful probes required to close the breaker.
  std::uint64_t probe_successes = 2;
  /// Seeds the probe-admission hash (chaos tests pin transitions).
  std::uint64_t seed = 0;
};

class ModelHealth {
 public:
  /// Outcome of the submission-time health check.
  enum class Admission {
    kAdmit,  ///< breaker closed (or disabled): enqueue normally
    kProbe,  ///< half-open probe: enqueue, outcome drives the breaker
    kShed,   ///< breaker open: shed as kShedCircuitOpen, no queue time
  };

  /// One breaker state change, in occurrence order. `event` is the
  /// per-model health-event index (admissions + recorded outcomes) at
  /// the moment of the transition — a schedule-stable stamp used by
  /// the determinism tests instead of wall-clock time.
  struct Transition {
    std::size_t model = 0;
    BreakerState from = BreakerState::kClosed;
    BreakerState to = BreakerState::kClosed;
    std::uint64_t event = 0;
    friend bool operator==(const Transition&, const Transition&) = default;
  };

  /// One micro-batch's worth of outcomes for one model (the worker
  /// aggregates per batch so the health lock is taken once per batch,
  /// not once per request).
  struct BatchOutcome {
    std::uint64_t ok = 0;             ///< completed kOk
    std::uint64_t failed = 0;         ///< resolved kEngineError
    std::uint64_t deadline_shed = 0;  ///< shed kDeadlineExceeded
    std::uint64_t probe_ok = 0;       ///< subset of ok that were probes
    /// Probes that failed — or were deadline-shed (a probe that never
    /// executed proves nothing; it conservatively re-opens).
    std::uint64_t probe_failed = 0;
    /// Sum / count of per-request primary-path execution time, for the
    /// degraded-mode budget estimate (degraded runs excluded so the
    /// fallback never pollutes the cycle-path estimate).
    double exec_us_sum = 0.0;
    std::uint64_t exec_samples = 0;
  };

  /// `pressure_window`: size of the global outcome window behind
  /// recent_deadline_sheds() (the brownout signal). `track` gates all
  /// bookkeeping: false makes every method a no-op (the disarmed-cost
  /// path for frontends with breakers and degraded mode both off).
  ModelHealth(const BreakerOptions& breaker, std::size_t pressure_window,
              bool track);

  /// Submission-time check; fires "serve.breaker.probe" on probe
  /// admissions (outside the lock — an armed throw propagates to the
  /// caller's containment). Unknown handles grow the table.
  Admission admit(std::size_t model) SPARSENN_EXCLUDES(mutex_);

  /// Worker-side outcome report (once per micro-batch).
  void record(std::size_t model, const BatchOutcome& outcome)
      SPARSENN_EXCLUDES(mutex_);

  BreakerState state(std::size_t model) const SPARSENN_EXCLUDES(mutex_);
  /// EWMA of primary-path per-request execution time for the model;
  /// 0 until the first completed primary-path request.
  double estimated_exec_us(std::size_t model) const
      SPARSENN_EXCLUDES(mutex_);
  /// Deadline sheds inside the last `pressure_window` outcomes across
  /// all models (the brownout input).
  std::uint64_t recent_deadline_sheds() const SPARSENN_EXCLUDES(mutex_);

  // Monotone transition counters (surfaced through ServingStats).
  std::uint64_t opens() const SPARSENN_EXCLUDES(mutex_);
  std::uint64_t probes() const SPARSENN_EXCLUDES(mutex_);
  std::uint64_t closes() const SPARSENN_EXCLUDES(mutex_);

  /// Full transition sequence in occurrence order (determinism tests).
  std::vector<Transition> transitions() const SPARSENN_EXCLUDES(mutex_);

  bool breakers_enabled() const noexcept {
    return tracking_ && breaker_.window > 0;
  }
  bool enabled() const noexcept { return tracking_; }

 private:
  /// Sliding window over the last `size` boolean outcomes with a
  /// running count of the true ones. A zero-size window ignores pushes.
  class Window {
   public:
    explicit Window(std::size_t size = 0) : slots_(size, false) {}
    void push(bool hit);
    void clear();
    std::size_t filled() const noexcept { return filled_; }
    std::uint64_t hits() const noexcept { return hits_; }

   private:
    std::vector<bool> slots_;
    std::size_t next_ = 0;
    std::size_t filled_ = 0;
    std::uint64_t hits_ = 0;
  };

  struct Model {
    BreakerState state = BreakerState::kClosed;
    Window failures;  ///< last `window` outcomes; hit = engine failure
    std::uint64_t open_sheds_left = 0;
    std::uint64_t half_open_seen = 0;  ///< submissions since half-open
    std::uint64_t probe_streak = 0;    ///< consecutive ok probes
    std::uint64_t events = 0;          ///< transition stamp counter
    double exec_ewma_us = 0.0;
  };

  Model& model_slot(std::size_t model) SPARSENN_REQUIRES(mutex_);
  void transition(std::size_t model, Model& m, BreakerState to)
      SPARSENN_REQUIRES(mutex_);

  const BreakerOptions breaker_;  ///< immutable — no guard
  const bool tracking_;           ///< immutable — no guard

  mutable sync::Mutex mutex_;
  std::vector<Model> models_ SPARSENN_GUARDED_BY(mutex_);
  /// Last `pressure_window` outcomes across all models; hit = deadline
  /// shed (the brownout input).
  Window pressure_ SPARSENN_GUARDED_BY(mutex_);
  std::uint64_t opens_ SPARSENN_GUARDED_BY(mutex_) = 0;
  std::uint64_t probes_ SPARSENN_GUARDED_BY(mutex_) = 0;
  std::uint64_t closes_ SPARSENN_GUARDED_BY(mutex_) = 0;
  std::vector<Transition> transitions_ SPARSENN_GUARDED_BY(mutex_);
};

}  // namespace sparsenn
