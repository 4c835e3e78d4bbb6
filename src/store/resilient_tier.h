// ResilientTier: a decorator that makes any Tier survive flaky backends.
//
// The paper's flexibility demo (§5.3, Fig. 17) rides out an EBS outage by
// reconfiguring onto Ephemeral+S3 — but between failure injection and the
// policy engine nothing recovered: a flaky tier op surfaced straight to the
// client. This layer closes that gap with the standard cloud-storage
// resilience toolkit:
//   * bounded retries with exponential backoff + jitter,
//   * a per-op deadline budget spanning all attempts,
//   * a per-tier circuit breaker (closed -> open -> half-open, probe on
//     recovery) that fails fast while the backend is down and reports its
//     state to threshold rules (`tierX.breaker == open`),
//   * a hedge-delay signal (a latency quantile of recent GETs) the instance
//     uses to race a second object location when this tier is slow.
// All of it is observable: `tiera_tier_retries_total`,
// `tiera_tier_breaker_state`, `tiera_tier_retry_latency_ms`, plus retry
// spans in the causal tracer.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>

#include "common/histogram.h"
#include "store/tier.h"

namespace tiera {

struct RetryPolicy {
  // Extra attempts after the first (0 = no retries).
  int max_retries = 0;
  Duration initial_backoff = from_ms(2);
  double multiplier = 2.0;
  Duration max_backoff = from_ms(100);
  // Each backoff is scaled by a uniform factor in [1-jitter, 1+jitter].
  double jitter = 0.5;
};

struct BreakerPolicy {
  bool enabled = false;
  // Consecutive retryable failures that trip the breaker open.
  int failure_threshold = 5;
  // Modelled cool-down before a half-open probe is allowed.
  Duration open_for = from_ms(500);
  // Consecutive probe successes that close it again.
  int success_to_close = 2;
};

struct HedgePolicy {
  // Latency quantile of recent GETs used as the hedge delay (0 = hedging
  // off). `hedge: 95%` in specs sets 0.95.
  double quantile = 0.0;
  Duration min_delay = from_ms(1);
  // Upper bound; also the delay used before enough latency history exists.
  Duration max_delay = from_ms(200);
};

struct ResiliencePolicy {
  RetryPolicy retry;
  // Total modelled-time budget per op across all attempts (0 = none).
  Duration deadline = Duration::zero();
  BreakerPolicy breaker;
  HedgePolicy hedge;

  bool any() const {
    return retry.max_retries > 0 || deadline > Duration::zero() ||
           breaker.enabled || hedge.quantile > 0;
  }
};

// The kth backoff pause (k = 0 before the first retry): exponential in k,
// capped, jittered by `rng`. Factored out so tests can pin the schedule.
Duration nth_backoff(const RetryPolicy& policy, int k, Rng& rng);

// Closed/open/half-open state machine counting consecutive retryable
// failures. Thread-safe; transitions are reported through an optional
// listener (invoked outside the breaker lock).
class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerPolicy policy);

  // False when the caller must fail fast (breaker open and the cool-down
  // has not elapsed, or a half-open probe is already in flight). A true
  // return in half-open claims the probe slot.
  bool allow();
  void record_success();
  void record_failure();

  BreakerState state() const;
  void set_listener(std::function<void(BreakerState)> listener);

 private:
  // Returns the new state when a transition happened, so the caller can
  // notify outside the lock.
  template <typename Fn>
  void transition(Fn&& fn);

  const BreakerPolicy policy_;
  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  bool probe_in_flight_ = false;
  TimePoint open_until_{};
  std::function<void(BreakerState)> listener_;
};

class ResilientTier final : public Tier {
 public:
  ResilientTier(TierPtr inner, ResiliencePolicy policy);

  Tier& inner() { return *inner_; }
  const ResiliencePolicy& policy() const { return policy_; }

  // --- Wrapped data path ----------------------------------------------------
  Status put(std::string_view key, ByteView value) override;
  Result<Bytes> get(std::string_view key) override;
  Status remove(std::string_view key) override;
  bool contains(std::string_view key) const override;

  // --- Delegated management / introspection ---------------------------------
  std::uint64_t capacity() const override { return inner_->capacity(); }
  std::uint64_t used() const override { return inner_->used(); }
  std::size_t object_count() const override { return inner_->object_count(); }
  Status grow(double percent_increase) override;
  Status shrink(double percent_decrease) override;
  void set_io_slots(std::size_t slots) override;
  std::size_t io_slots() const override { return inner_->io_slots(); }
  void inject_failure(FailureMode mode,
                      Duration timeout = from_ms(250)) override;
  void heal() override { inner_->heal(); }
  FailureMode failure_mode() const override { return inner_->failure_mode(); }
  void reboot() override { inner_->reboot(); }
  const TierStats& stats() const override { return inner_->stats(); }
  void for_each_key(
      const std::function<void(std::string_view)>& fn) const override;

  // --- Resilience introspection ---------------------------------------------
  bool has_breaker() const override { return policy_.breaker.enabled; }
  BreakerState breaker_state() const override { return breaker_.state(); }
  Duration hedge_delay() const override;

  // Invoked (outside the breaker lock) whenever the breaker changes state;
  // the instance uses it to schedule a threshold-rule evaluation so
  // failover rules fire on `tierX.breaker == open`.
  void set_breaker_listener(std::function<void(BreakerState)> listener);

  // Hedge accounting, driven by the instance (hedging is a routing decision
  // made where the object's location set is visible).
  void note_hedge_issued();
  void note_hedge_win();

 protected:
  // Unreachable: every public entry point above forwards to `inner_`
  // before the base class would consult these hooks.
  Status store_raw(std::string_view, ByteView) override;
  Result<Bytes> load_raw(std::string_view) const override;
  Status erase_raw(std::string_view) override;
  bool contains_raw(std::string_view key) const override;
  std::optional<std::uint64_t> size_raw(std::string_view) const override;
  std::size_t count_raw() const override;
  void keys_raw(const std::function<void(std::string_view)>&) const override;

 private:
  // Retry loop shared by put/get/remove. `attempt` returns the status of
  // one try against the inner tier; retryable failures (kUnavailable /
  // kTimedOut) are re-tried within the policy's attempt and deadline
  // budgets and feed the breaker.
  Status run_op(const char* what, const std::function<Status()>& attempt);

  void on_breaker_change(BreakerState state);

  TierPtr inner_;
  const ResiliencePolicy policy_;
  CircuitBreaker breaker_;
  std::function<void(BreakerState)> breaker_listener_;
  mutable std::mutex listener_mu_;
  // Previous state for the flight-recorder breaker transition (from -> to).
  std::atomic<int> last_breaker_state_{0};

  // Recent inner-GET service times (successful attempts only); the hedge
  // delay is a quantile of this.
  LatencyHistogram get_latency_;

  // Registry series (`tiera_tier_*{tier=<label>}`); push-model — resilience
  // events are rare enough that counting them inline is cheaper than a
  // collector.
  struct Metrics {
    Counter* retries = nullptr;
    Counter* breaker_fastfails = nullptr;
    Counter* breaker_opens = nullptr;
    Counter* deadline_exceeded = nullptr;
    Counter* hedges_issued = nullptr;
    Counter* hedge_wins = nullptr;
    Gauge* breaker_state = nullptr;
    LatencyHistogram* retry_latency = nullptr;
  };
  Metrics metrics_;
};

}  // namespace tiera
