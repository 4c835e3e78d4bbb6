#include "store/tier.h"

#include <optional>
#include <thread>

#include "common/logging.h"

namespace tiera {

namespace {
thread_local Rng t_jitter_rng{0xD1CEBA5Eull ^
                              std::hash<std::thread::id>{}(
                                  std::this_thread::get_id())};
}  // namespace

std::string_view to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kHalfOpen: return "half-open";
    case BreakerState::kOpen: return "open";
  }
  return "?";
}

std::string_view to_string(TierKind kind) {
  switch (kind) {
    case TierKind::kMemory: return "memory";
    case TierKind::kBlock: return "block";
    case TierKind::kEphemeral: return "ephemeral";
    case TierKind::kObject: return "object";
  }
  return "?";
}

Tier::Tier(std::string name, TierKind kind, std::uint64_t capacity_bytes,
           LatencyModel latency, TierPricing pricing)
    : name_(std::move(name)),
      kind_(kind),
      latency_(latency),
      pricing_(pricing),
      capacity_(capacity_bytes) {
  MetricsRegistry& reg = MetricsRegistry::global();
  // Factory-built tiers are named "<label>:<service>"; label the series with
  // just the instance-level label so they join with tiera_instance_* series.
  const std::string label_part = name_.substr(0, name_.find(':'));
  const MetricsRegistry::Labels labels = {{"tier", label_part}};
  metrics_.puts = &reg.counter("tiera_tier_puts_total", labels);
  metrics_.gets = &reg.counter("tiera_tier_gets_total", labels);
  metrics_.removes = &reg.counter("tiera_tier_removes_total", labels);
  metrics_.failed_ops = &reg.counter("tiera_tier_failed_ops_total", labels);
  metrics_.bytes_written = &reg.counter("tiera_tier_bytes_written_total", labels);
  metrics_.bytes_read = &reg.counter("tiera_tier_bytes_read_total", labels);
  metrics_.put_latency = &reg.histogram("tiera_tier_put_latency_ms", labels);
  metrics_.get_latency = &reg.histogram("tiera_tier_get_latency_ms", labels);
  metrics_.used_bytes = &reg.gauge("tiera_tier_used_bytes", labels);
  metrics_.capacity_bytes = &reg.gauge("tiera_tier_capacity_bytes", labels);
  metrics_.capacity_bytes->set(static_cast<double>(capacity_bytes));
  collector_id_ = reg.add_collector([this] { collect_metrics(); });
}

Tier::Tier(DecoratorTag, const Tier& inner)
    : name_(inner.name_),
      kind_(inner.kind_),
      latency_(inner.latency_),
      pricing_(inner.pricing_),
      capacity_(0) {}

Tier::~Tier() {
  // The collector reads this tier; drop it before any state dies.
  // Decorators never registered one (collector_id_ stays 0).
  if (collector_id_ != 0) {
    MetricsRegistry::global().remove_collector(collector_id_);
  }
}

void Tier::collect_metrics() {
  const auto sync = [](Counter* counter,
                       const std::atomic<std::uint64_t>& source,
                       std::uint64_t& seen) {
    const std::uint64_t v = source.load(std::memory_order_relaxed);
    if (v > seen) {
      counter->inc(v - seen);
      seen = v;
    }
  };
  sync(metrics_.puts, stats_.puts, synced_.puts);
  sync(metrics_.gets, stats_.gets, synced_.gets);
  sync(metrics_.removes, stats_.removes, synced_.removes);
  sync(metrics_.failed_ops, stats_.failed_ops, synced_.failed_ops);
  sync(metrics_.bytes_written, stats_.bytes_written, synced_.bytes_written);
  sync(metrics_.bytes_read, stats_.bytes_read, synced_.bytes_read);
  metrics_.used_bytes->set(static_cast<double>(used()));
  metrics_.capacity_bytes->set(static_cast<double>(capacity()));
}

Status Tier::check_failure() const {
  switch (failure_mode_.load(std::memory_order_acquire)) {
    case FailureMode::kNone:
      return Status::Ok();
    case FailureMode::kFailStop:
      stats_.failed_ops.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(name_ + " is down");
    case FailureMode::kTimeout: {
      apply_model_delay(
          Duration(failure_timeout_ns_.load(std::memory_order_relaxed)));
      stats_.failed_ops.fetch_add(1, std::memory_order_relaxed);
      return Status::TimedOut(name_ + " timed out");
    }
  }
  return Status::Internal("bad failure mode");
}

Duration Tier::sample_read_delay(std::string_view /*key*/,
                                 std::uint64_t bytes, Rng& rng) {
  return latency_.sample_read(bytes, rng);
}

Duration Tier::sample_write_delay(std::string_view /*key*/,
                                  std::uint64_t bytes, Rng& rng) {
  return latency_.sample_write(bytes, rng);
}

// Holds one of the tier's I/O slots for the duration of a modelled service
// time; queues when the service is saturated.
class Tier::IoSlotGuard {
 public:
  explicit IoSlotGuard(const Tier& tier) : tier_(tier) {
    std::unique_lock lock(tier_.io_mu_);
    if (tier_.io_slots_ == 0) return;
    tier_.io_cv_.wait(lock,
                      [&] { return tier_.io_in_flight_ < tier_.io_slots_; });
    ++tier_.io_in_flight_;
    held_ = true;
  }
  ~IoSlotGuard() {
    if (!held_) return;
    {
      std::lock_guard lock(tier_.io_mu_);
      --tier_.io_in_flight_;
    }
    tier_.io_cv_.notify_one();
  }

 private:
  const Tier& tier_;
  bool held_ = false;
};

void Tier::set_io_slots(std::size_t slots) {
  {
    std::lock_guard lock(io_mu_);
    io_slots_ = slots;
  }
  io_cv_.notify_all();
}

std::size_t Tier::io_slots() const {
  std::lock_guard lock(io_mu_);
  return io_slots_;
}

Status Tier::put(std::string_view key, ByteView value) {
  // Latency is sampled (1 in kLatencySampleEvery); counters stay exact.
  const bool timed =
      latency_sample_hit(stats_.puts.load(std::memory_order_relaxed));
  const TimePoint start = timed ? now() : TimePoint{};
  TIERA_RETURN_IF_ERROR(check_failure());
  {
    IoSlotGuard slot(*this);
    apply_model_delay(sample_write_delay(key, value.size(), t_jitter_rng));
  }

  // Capacity accounting: replace-aware. The growth is claimed with a CAS
  // before the bytes land, so concurrent puts of distinct keys never push
  // used_ past the capacity, and given back if the store fails. A shrinking
  // replace frees its bytes only once they are gone. Concurrent puts of
  // one key can still each count it as new.
  const std::uint64_t old_size = size_raw(key).value_or(0);
  const std::uint64_t new_size = value.size();
  const std::uint64_t claim = new_size > old_size ? new_size - old_size : 0;
  const std::uint64_t cap = capacity();
  std::uint64_t in_use = used_.load(std::memory_order_relaxed);
  do {
    if (cap > 0 && claim > 0 && in_use + claim > cap) {
      stats_.failed_ops.fetch_add(1, std::memory_order_relaxed);
      return Status::CapacityExceeded(name_ + " full");
    }
  } while (!used_.compare_exchange_weak(in_use, in_use + claim,
                                        std::memory_order_relaxed));
  if (Status stored = store_raw(key, value); !stored.ok()) {
    used_.fetch_sub(claim, std::memory_order_relaxed);
    return stored;
  }
  if (old_size > new_size) {
    used_.fetch_sub(old_size - new_size, std::memory_order_relaxed);
  }
  stats_.puts.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_written.fetch_add(value.size(), std::memory_order_relaxed);
  if (timed) metrics_.put_latency->record(now() - start);
  return Status::Ok();
}

Result<Bytes> Tier::get(std::string_view key) {
  const bool timed =
      latency_sample_hit(stats_.gets.load(std::memory_order_relaxed));
  const TimePoint start = timed ? now() : TimePoint{};
  TIERA_RETURN_IF_ERROR(check_failure());
  Result<Bytes> result = load_raw(key);
  // Charge the modelled read time for the bytes actually moved (a miss costs
  // a base round trip).
  {
    IoSlotGuard slot(*this);
    apply_model_delay(sample_read_delay(
        key, result.ok() ? result->size() : 0, t_jitter_rng));
  }
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  if (result.ok()) {
    stats_.bytes_read.fetch_add(result->size(), std::memory_order_relaxed);
  }
  if (timed) metrics_.get_latency->record(now() - start);
  return result;
}

Status Tier::remove(std::string_view key) {
  TIERA_RETURN_IF_ERROR(check_failure());
  {
    IoSlotGuard slot(*this);
    apply_model_delay(sample_write_delay(key, 0, t_jitter_rng));
  }
  const std::optional<std::uint64_t> old_size = size_raw(key);
  if (!old_size) return Status::NotFound(name_ + ": no such object");
  TIERA_RETURN_IF_ERROR(erase_raw(key));
  used_.fetch_sub(*old_size, std::memory_order_relaxed);
  stats_.removes.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

bool Tier::contains(std::string_view key) const {
  return contains_raw(key);
}

std::size_t Tier::object_count() const { return count_raw(); }

Status Tier::grow(double percent_increase) {
  if (percent_increase <= 0) {
    return Status::InvalidArgument("grow percent must be positive");
  }
  std::lock_guard lock(resize_mu_);
  const auto cap = capacity_.load();
  const auto add = static_cast<std::uint64_t>(
      static_cast<double>(cap) * percent_increase / 100.0);
  capacity_.store(cap + add);
  TIERA_LOG(kInfo, "store") << name_ << " grown by " << percent_increase
                            << "% to " << capacity_.load() << " bytes";
  return Status::Ok();
}

Status Tier::shrink(double percent_decrease) {
  if (percent_decrease <= 0 || percent_decrease >= 100) {
    return Status::InvalidArgument("shrink percent must be in (0,100)");
  }
  std::lock_guard lock(resize_mu_);
  const auto cap = capacity_.load();
  const auto sub = static_cast<std::uint64_t>(
      static_cast<double>(cap) * percent_decrease / 100.0);
  const auto next = cap - sub;
  if (next < used()) {
    return Status::CapacityExceeded(
        name_ + ": cannot shrink below current usage");
  }
  capacity_.store(next);
  return Status::Ok();
}

void Tier::inject_failure(FailureMode mode, Duration timeout) {
  failure_timeout_ns_.store(timeout.count(), std::memory_order_relaxed);
  failure_mode_.store(mode, std::memory_order_release);
  TIERA_LOG(kWarn, "store") << name_ << " failure injected";
}

void Tier::heal() {
  failure_mode_.store(FailureMode::kNone, std::memory_order_release);
}

void Tier::for_each_key(
    const std::function<void(std::string_view)>& fn) const {
  keys_raw(fn);
}

}  // namespace tiera
