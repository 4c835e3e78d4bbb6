#include "store/resilient_tier.h"

#include <algorithm>
#include <optional>
#include <thread>

#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace tiera {

namespace {
thread_local Rng t_backoff_rng{0xBACC0FFull ^
                               std::hash<std::thread::id>{}(
                                   std::this_thread::get_id())};

bool retryable(const Status& s) {
  return s.is_unavailable() || s.is_timed_out();
}
}  // namespace

Duration nth_backoff(const RetryPolicy& policy, int k, Rng& rng) {
  double ms = to_ms(policy.initial_backoff);
  for (int i = 0; i < k && ms < to_ms(policy.max_backoff); ++i) {
    ms *= policy.multiplier;
  }
  ms = std::min(ms, to_ms(policy.max_backoff));
  const double jitter = std::clamp(policy.jitter, 0.0, 1.0);
  const double factor = 1.0 - jitter + 2.0 * jitter * rng.next_double();
  return from_ms(ms * factor);
}

// --- CircuitBreaker ----------------------------------------------------------

CircuitBreaker::CircuitBreaker(BreakerPolicy policy) : policy_(policy) {}

void CircuitBreaker::set_listener(std::function<void(BreakerState)> listener) {
  std::lock_guard lock(mu_);
  listener_ = std::move(listener);
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard lock(mu_);
  return state_;
}

// Runs `fn` under the lock; when the state changed, notifies the listener
// outside the lock (a listener may call back into state()).
template <typename Fn>
void CircuitBreaker::transition(Fn&& fn) {
  BreakerState before;
  BreakerState after;
  std::function<void(BreakerState)> listener;
  {
    std::lock_guard lock(mu_);
    before = state_;
    fn();
    after = state_;
    listener = listener_;
  }
  if (after != before && listener) listener(after);
}

bool CircuitBreaker::allow() {
  if (!policy_.enabled) return true;
  bool allowed = false;
  transition([&] {
    switch (state_) {
      case BreakerState::kClosed:
        allowed = true;
        break;
      case BreakerState::kOpen:
        if (now() >= open_until_) {
          state_ = BreakerState::kHalfOpen;
          half_open_successes_ = 0;
          probe_in_flight_ = true;
          allowed = true;
        }
        break;
      case BreakerState::kHalfOpen:
        // One probe at a time; concurrent callers fail fast until it lands.
        if (!probe_in_flight_) {
          probe_in_flight_ = true;
          allowed = true;
        }
        break;
    }
  });
  return allowed;
}

void CircuitBreaker::record_success() {
  if (!policy_.enabled) return;
  transition([&] {
    consecutive_failures_ = 0;
    if (state_ == BreakerState::kHalfOpen) {
      probe_in_flight_ = false;
      if (++half_open_successes_ >= policy_.success_to_close) {
        state_ = BreakerState::kClosed;
      }
    }
  });
}

void CircuitBreaker::record_failure() {
  if (!policy_.enabled) return;
  transition([&] {
    const double scale = time_scale();
    const auto cooldown = std::chrono::duration_cast<Duration>(
        policy_.open_for * (scale > 0 ? scale : 1.0));
    switch (state_) {
      case BreakerState::kClosed:
        if (++consecutive_failures_ >= policy_.failure_threshold) {
          state_ = BreakerState::kOpen;
          open_until_ = now() + cooldown;
        }
        break;
      case BreakerState::kHalfOpen:
        // The probe failed: back to a full cool-down.
        probe_in_flight_ = false;
        state_ = BreakerState::kOpen;
        open_until_ = now() + cooldown;
        break;
      case BreakerState::kOpen:
        open_until_ = now() + cooldown;
        break;
    }
  });
}

// --- ResilientTier -----------------------------------------------------------

ResilientTier::ResilientTier(TierPtr inner, ResiliencePolicy policy)
    : Tier(DecoratorTag{}, *inner),
      inner_(std::move(inner)),
      policy_(policy),
      breaker_(policy.breaker) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const std::string label_part = name().substr(0, name().find(':'));
  const MetricsRegistry::Labels labels = {{"tier", label_part}};
  metrics_.retries = &reg.counter("tiera_tier_retries_total", labels);
  metrics_.breaker_fastfails =
      &reg.counter("tiera_tier_breaker_fastfail_total", labels);
  metrics_.breaker_opens =
      &reg.counter("tiera_tier_breaker_open_total", labels);
  metrics_.deadline_exceeded =
      &reg.counter("tiera_tier_deadline_exceeded_total", labels);
  metrics_.hedges_issued =
      &reg.counter("tiera_tier_hedge_issued_total", labels);
  metrics_.hedge_wins = &reg.counter("tiera_tier_hedge_wins_total", labels);
  metrics_.breaker_state = &reg.gauge("tiera_tier_breaker_state", labels);
  metrics_.breaker_state->set(0);
  metrics_.retry_latency =
      &reg.histogram("tiera_tier_retry_latency_ms", labels);
  breaker_.set_listener([this](BreakerState state) {
    on_breaker_change(state);
  });
}

void ResilientTier::set_breaker_listener(
    std::function<void(BreakerState)> listener) {
  std::lock_guard lock(listener_mu_);
  breaker_listener_ = std::move(listener);
}

void ResilientTier::on_breaker_change(BreakerState state) {
  FlightRecorder::global().record_transition(
      "breaker:" + name().substr(0, name().find(':')),
      static_cast<std::uint64_t>(last_breaker_state_.exchange(
          static_cast<int>(state), std::memory_order_acq_rel)),
      static_cast<std::uint64_t>(static_cast<int>(state)));
  metrics_.breaker_state->set(static_cast<double>(static_cast<int>(state)));
  if (state == BreakerState::kOpen) {
    metrics_.breaker_opens->inc();
    TIERA_LOG(kWarn, "store") << name() << " circuit breaker opened";
  } else {
    TIERA_LOG(kInfo, "store")
        << name() << " circuit breaker " << to_string(state);
  }
  std::function<void(BreakerState)> listener;
  {
    std::lock_guard lock(listener_mu_);
    listener = breaker_listener_;
  }
  if (listener) listener(state);
}

Status ResilientTier::run_op(const char* what,
                             const std::function<Status()>& attempt) {
  const TimePoint start = now();
  const double scale = time_scale();
  // The deadline is modelled time, like every latency in the system; a zero
  // scale runs no modelled delays, so the budget is moot there too.
  const Duration budget =
      scale > 0 ? std::chrono::duration_cast<Duration>(policy_.deadline * scale)
                : Duration::zero();

  int retries = 0;
  bool fast_failed = false;
  Status result = Status::Ok();
  for (int k = 0;; ++k) {
    if (!breaker_.allow()) {
      metrics_.breaker_fastfails->inc();
      fast_failed = true;
      result = Status::Unavailable(name() + " breaker open");
      break;
    }
    result = attempt();
    if (result.ok()) {
      breaker_.record_success();
      break;
    }
    if (!retryable(result)) {
      // NotFound etc: not a failure-count signal, but the tier did answer, so
      // it is reachable. Recording a success also releases the half-open
      // probe slot this attempt may hold — without it the breaker would be
      // stuck failing fast forever after a non-retryable probe result.
      breaker_.record_success();
      break;
    }
    breaker_.record_failure();
    if (k >= policy_.retry.max_retries) break;
    if (budget > Duration::zero() && now() - start >= budget) {
      metrics_.deadline_exceeded->inc();
      result = Status::TimedOut(name() + ": op deadline exceeded (" +
                                result.message() + ")");
      break;
    }
    apply_model_delay(nth_backoff(policy_.retry, k, t_backoff_rng));
    ++retries;
    metrics_.retries->inc();
  }

  if (retries > 0 || fast_failed) {
    if (retries > 0) metrics_.retry_latency->record(now() - start);
    // A leaf span under the request that needed the resilience layer.
    record_leaf_span(FlightOp::kRetry, start,
                     fast_failed ? std::string(what) + ":fastfail"
                                 : std::string(what) + ":x" +
                                       std::to_string(retries + 1),
                     "", name(), result.code());
  }
  return result;
}

Status ResilientTier::put(std::string_view key, ByteView value) {
  return run_op("put", [&] { return inner_->put(key, value); });
}

Result<Bytes> ResilientTier::get(std::string_view key) {
  std::optional<Result<Bytes>> out;
  const Status s = run_op("get", [&] {
    const TimePoint attempt_start = now();
    out.emplace(inner_->get(key));
    if (out->ok()) {
      // Feed the hedge-delay quantile with successful service times only
      // (failed attempts would teach the hedger to wait out outages).
      get_latency_.record(now() - attempt_start);
    }
    return out->ok() ? Status::Ok() : out->status();
  });
  if (!s.ok()) return s;
  return *std::move(out);
}

Status ResilientTier::remove(std::string_view key) {
  return run_op("remove", [&] { return inner_->remove(key); });
}

bool ResilientTier::contains(std::string_view key) const {
  return inner_->contains(key);
}

Status ResilientTier::grow(double percent_increase) {
  return inner_->grow(percent_increase);
}

Status ResilientTier::shrink(double percent_decrease) {
  return inner_->shrink(percent_decrease);
}

void ResilientTier::set_io_slots(std::size_t slots) {
  inner_->set_io_slots(slots);
}

void ResilientTier::inject_failure(FailureMode mode, Duration timeout) {
  inner_->inject_failure(mode, timeout);
}

void ResilientTier::for_each_key(
    const std::function<void(std::string_view)>& fn) const {
  inner_->for_each_key(fn);
}

Duration ResilientTier::hedge_delay() const {
  if (policy_.hedge.quantile <= 0) return Duration::zero();
  // Until enough history exists, hedge conservatively at the cap.
  if (get_latency_.count() < 16) return policy_.hedge.max_delay;
  const Duration q = from_ms(get_latency_.percentile_ms(
      std::min(policy_.hedge.quantile, 0.999)));
  return std::clamp(q, policy_.hedge.min_delay, policy_.hedge.max_delay);
}

void ResilientTier::note_hedge_issued() { metrics_.hedges_issued->inc(); }

void ResilientTier::note_hedge_win() { metrics_.hedge_wins->inc(); }

// --- Unreachable raw hooks ---------------------------------------------------
// Every public entry point forwards to inner_ before the base class would
// consult these; they exist only to satisfy the pure-virtual interface.

Status ResilientTier::store_raw(std::string_view, ByteView) {
  return Status::Internal("ResilientTier::store_raw unreachable");
}

Result<Bytes> ResilientTier::load_raw(std::string_view) const {
  return Status::Internal("ResilientTier::load_raw unreachable");
}

Status ResilientTier::erase_raw(std::string_view) {
  return Status::Internal("ResilientTier::erase_raw unreachable");
}

bool ResilientTier::contains_raw(std::string_view key) const {
  return inner_->contains(key);
}

std::optional<std::uint64_t> ResilientTier::size_raw(std::string_view) const {
  return std::nullopt;
}

std::size_t ResilientTier::count_raw() const {
  return inner_->object_count();
}

void ResilientTier::keys_raw(
    const std::function<void(std::string_view)>& fn) const {
  inner_->for_each_key(fn);
}

}  // namespace tiera
