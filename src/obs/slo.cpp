#include "obs/slo.h"

#include <algorithm>
#include <cmath>

#include "obs/flight_recorder.h"
#include "obs/incident.h"

namespace tiera {

namespace {

// Geometric bucket growth: 256 buckets spanning 1us .. 1e8us (~100s).
constexpr double kRangeUs = 1e8;
const double kLogGrowth = std::log(kRangeUs) / (SloWindowRing::kBucketCount - 1);

// Modelled seconds rendered for the burn-window label ("300s", "3600s").
std::string window_label(Duration d) {
  return std::to_string(
             static_cast<long long>(std::llround(to_seconds(d)))) +
         "s";
}

}  // namespace

std::string_view to_string(SloSignal signal) {
  switch (signal) {
    case SloSignal::kGetP50: return "get_p50";
    case SloSignal::kGetP95: return "get_p95";
    case SloSignal::kGetP99: return "get_p99";
    case SloSignal::kPutP50: return "put_p50";
    case SloSignal::kPutP95: return "put_p95";
    case SloSignal::kPutP99: return "put_p99";
    case SloSignal::kErrorRate: return "error_rate";
  }
  return "?";
}

bool slo_signal_from_name(std::string_view name, SloSignal* out) {
  static constexpr SloSignal kAll[] = {
      SloSignal::kGetP50, SloSignal::kGetP95, SloSignal::kGetP99,
      SloSignal::kPutP50, SloSignal::kPutP95, SloSignal::kPutP99,
      SloSignal::kErrorRate,
  };
  for (const SloSignal s : kAll) {
    if (name == to_string(s)) {
      if (out) *out = s;
      return true;
    }
  }
  return false;
}

double slo_quantile(SloSignal signal) {
  switch (signal) {
    case SloSignal::kGetP50:
    case SloSignal::kPutP50: return 0.50;
    case SloSignal::kGetP95:
    case SloSignal::kPutP95: return 0.95;
    case SloSignal::kGetP99:
    case SloSignal::kPutP99: return 0.99;
    case SloSignal::kErrorRate: return 0;
  }
  return 0;
}

bool slo_is_latency(SloSignal signal) {
  return signal != SloSignal::kErrorRate;
}

bool slo_is_get(SloSignal signal) {
  return signal == SloSignal::kGetP50 || signal == SloSignal::kGetP95 ||
         signal == SloSignal::kGetP99;
}

// --- SloWindowRing -----------------------------------------------------------

SloWindowRing::SloWindowRing(int slices, Duration slice_len)
    : slice_count_(std::max(slices, 1)),
      slice_len_(std::max<Duration>(slice_len, Duration(1))),
      slices_(new Slice[static_cast<std::size_t>(slice_count_)]) {
  for (int i = 0; i < slice_count_; ++i) {
    for (auto& bucket : slices_[i].buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
  }
}

int SloWindowRing::bucket_for(double latency_ms) {
  const double us = latency_ms * 1000.0;
  if (us <= 1.0) return 0;
  const int b = static_cast<int>(std::log(us) / kLogGrowth) + 1;
  return std::min(b, kBucketCount - 1);
}

double SloWindowRing::bucket_upper_ms(int bucket) {
  return std::exp(bucket * kLogGrowth) / 1000.0;
}

std::int64_t SloWindowRing::epoch_of(TimePoint t) const {
  return t.time_since_epoch().count() / slice_len_.count();
}

SloWindowRing::Slice& SloWindowRing::refresh(std::int64_t epoch) {
  Slice& slice =
      slices_[static_cast<std::size_t>(epoch % slice_count_)];
  std::int64_t seen = slice.epoch.load(std::memory_order_acquire);
  if (seen != epoch) {
    // One writer wins the rotation and zeroes; samples racing the zeroing
    // may be lost (documented sampling loss). Losers fall through and
    // record into the freshly claimed slice.
    if (slice.epoch.compare_exchange_strong(seen, epoch,
                                            std::memory_order_acq_rel)) {
      slice.total.store(0, std::memory_order_relaxed);
      slice.bad.store(0, std::memory_order_relaxed);
      for (auto& bucket : slice.buckets) {
        bucket.store(0, std::memory_order_relaxed);
      }
    }
  }
  return slice;
}

void SloWindowRing::record(TimePoint t, double latency_ms, bool bad) {
  Slice& slice = refresh(epoch_of(t));
  slice.buckets[bucket_for(latency_ms)].fetch_add(1,
                                                  std::memory_order_relaxed);
  slice.total.fetch_add(1, std::memory_order_relaxed);
  if (bad) slice.bad.fetch_add(1, std::memory_order_relaxed);
}

void SloWindowRing::record_counts(TimePoint t, bool bad) {
  Slice& slice = refresh(epoch_of(t));
  slice.total.fetch_add(1, std::memory_order_relaxed);
  if (bad) slice.bad.fetch_add(1, std::memory_order_relaxed);
}

template <typename Fn>
void SloWindowRing::for_valid(TimePoint t, Fn&& fn) const {
  // A slice participates only when its epoch is one of the `slice_count_`
  // epochs ending at epoch(t). Slices stranded by a clock jump (either
  // direction) carry an out-of-range epoch and are skipped until the ring
  // naturally reclaims their slot.
  const std::int64_t cur = epoch_of(t);
  for (int i = 0; i < slice_count_; ++i) {
    const Slice& slice = slices_[i];
    const std::int64_t e = slice.epoch.load(std::memory_order_acquire);
    if (e > cur || e <= cur - slice_count_) continue;
    fn(slice);
  }
}

std::uint64_t SloWindowRing::total(TimePoint t) const {
  std::uint64_t n = 0;
  for_valid(t, [&](const Slice& s) {
    n += s.total.load(std::memory_order_relaxed);
  });
  return n;
}

std::uint64_t SloWindowRing::bad(TimePoint t) const {
  std::uint64_t n = 0;
  for_valid(t, [&](const Slice& s) {
    n += s.bad.load(std::memory_order_relaxed);
  });
  return n;
}

double SloWindowRing::percentile_ms(TimePoint t, double q) const {
  std::uint64_t counts[kBucketCount] = {};
  std::uint64_t total = 0;
  for_valid(t, [&](const Slice& s) {
    for (int b = 0; b < kBucketCount; ++b) {
      const std::uint32_t n = s.buckets[b].load(std::memory_order_relaxed);
      counts[b] += n;
      total += n;
    }
  });
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBucketCount; ++b) {
    seen += counts[b];
    if (seen >= target && counts[b] > 0) return bucket_upper_ms(b);
  }
  return bucket_upper_ms(kBucketCount - 1);
}

double SloWindowRing::bad_fraction(TimePoint t) const {
  std::uint64_t total = 0;
  std::uint64_t bad = 0;
  for_valid(t, [&](const Slice& s) {
    total += s.total.load(std::memory_order_relaxed);
    bad += s.bad.load(std::memory_order_relaxed);
  });
  return total ? static_cast<double>(bad) / static_cast<double>(total) : 0.0;
}

// --- SloEngine ---------------------------------------------------------------

namespace {
constexpr int kSlicesPerWindow = 60;

Duration slice_for(Duration window, double scale) {
  const auto scaled = std::chrono::duration_cast<Duration>(window * scale);
  return std::max<Duration>(scaled / kSlicesPerWindow, from_ms(1));
}
}  // namespace

SloEngine::Tracker::Tracker(SloSpec s, double scale, int slices,
                            Duration window_slice, Duration short_slice,
                            Duration long_slice)
    : spec(std::move(s)),
      is_get(slo_is_get(spec.signal)),
      quantile(slo_quantile(spec.signal)),
      budget(slo_is_latency(spec.signal) ? 1.0 - slo_quantile(spec.signal)
                                         : spec.target_fraction),
      wall_to_model(1.0 / scale),
      window(slices, window_slice),
      burn_short(slices, short_slice),
      burn_long(slices, long_slice) {}

double SloEngine::Tracker::current_value(TimePoint t) const {
  if (slo_is_latency(spec.signal)) return window.percentile_ms(t, quantile);
  return window.bad_fraction(t);
}

bool SloEngine::Tracker::over_target(double current) const {
  const double target =
      slo_is_latency(spec.signal) ? spec.target_ms : spec.target_fraction;
  return current > target;
}

SloEngine::SloEngine(std::string instance_name)
    : instance_name_(std::move(instance_name)) {}

Status SloEngine::add(const SloSpec& spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("slo needs a name");
  }
  if (slo_is_latency(spec.signal)) {
    if (spec.target_ms <= 0) {
      return Status::InvalidArgument("slo '" + spec.name +
                                     "' needs a positive latency target");
    }
  } else if (spec.target_fraction <= 0 || spec.target_fraction >= 1) {
    return Status::InvalidArgument("slo '" + spec.name +
                                   "' error-rate target must be in (0,1)");
  }
  if (spec.window <= Duration::zero() ||
      spec.burn_short <= Duration::zero() ||
      spec.burn_long <= Duration::zero()) {
    return Status::InvalidArgument("slo '" + spec.name +
                                   "' windows must be positive");
  }

  // Freeze the effective time scale, exactly like timer rules scale their
  // periods (control.cpp): window geometry shrinks to wall time, recorded
  // wall latencies are scaled back up to modelled ms (see record()).
  const double raw_scale = time_scale();
  const double scale = raw_scale > 0 ? raw_scale : 1.0;

  std::lock_guard lock(mu_);
  const TrackerList* cur = trackers_.load(std::memory_order_acquire);
  // Reject duplicates before touching the registry: a rejected add must not
  // clobber the live objective's published target/violated gauges.
  if (cur) {
    for (const auto& existing : *cur) {
      if (existing->spec.name == spec.name) {
        return Status::AlreadyExists("slo '" + spec.name + "'");
      }
    }
  }

  auto tracker = std::make_shared<Tracker>(
      spec, scale, kSlicesPerWindow, slice_for(spec.window, scale),
      slice_for(spec.burn_short, scale), slice_for(spec.burn_long, scale));

  MetricsRegistry& reg = MetricsRegistry::global();
  const MetricsRegistry::Labels labels = {
      {"slo", spec.name}, {"instance", instance_name_}, {"tier", spec.tier}};
  tracker->current_gauge = &reg.gauge("tiera_slo_current", labels);
  tracker->target_gauge = &reg.gauge("tiera_slo_target", labels);
  tracker->violated_gauge = &reg.gauge("tiera_slo_violated", labels);
  tracker->violations_counter =
      &reg.counter("tiera_slo_violations_total", labels);
  MetricsRegistry::Labels burn_labels = labels;
  burn_labels.emplace_back("window", window_label(spec.burn_short));
  tracker->burn_short_gauge = &reg.gauge("tiera_slo_burn_rate", burn_labels);
  burn_labels.back().second = window_label(spec.burn_long);
  tracker->burn_long_gauge = &reg.gauge("tiera_slo_burn_rate", burn_labels);
  tracker->target_gauge->set(slo_is_latency(spec.signal)
                                 ? spec.target_ms
                                 : spec.target_fraction);
  tracker->violated_gauge->set(0);

  auto next = std::make_unique<TrackerList>();
  if (cur) *next = *cur;
  next->push_back(std::move(tracker));
  trackers_.store(next.get(), std::memory_order_release);
  retired_.push_back(std::move(next));
  return Status::Ok();
}

std::size_t SloEngine::size() const {
  const TrackerList* list = trackers_.load(std::memory_order_acquire);
  return list ? list->size() : 0;
}

void SloEngine::record(Verb verb, Duration latency, std::string_view tier,
                       bool ok) {
  const TrackerList* list = trackers_.load(std::memory_order_acquire);
  if (!list) return;
  const TimePoint t = now();
  const double wall_ms = to_ms(latency);
  for (const auto& tracker : *list) {
    if (!tracker->spec.tier.empty() && tracker->spec.tier != tier) continue;
    // Modelled ms, so comparisons against target_ms (and the published
    // quantiles) are scale-invariant.
    const double latency_ms = wall_ms * tracker->wall_to_model;
    bool bad = false;
    if (slo_is_latency(tracker->spec.signal)) {
      if (verb == Verb::kDelete || tracker->is_get != (verb == Verb::kGet)) {
        continue;
      }
      bad = !ok || latency_ms > tracker->spec.target_ms;
    } else {
      bad = !ok;
    }
    tracker->window.record(t, latency_ms, bad);
    // Burn windows are only ever read through bad_fraction(); skip the
    // quantile bucket work for them.
    tracker->burn_short.record_counts(t, bad);
    tracker->burn_long.record_counts(t, bad);
  }
}

bool SloEngine::evaluate(TimePoint t) {
  const TrackerList* list = trackers_.load(std::memory_order_acquire);
  if (!list) return false;
  bool any_flipped = false;
  for (const auto& tracker : *list) {
    const double current = tracker->current_value(t);
    const bool violated = tracker->over_target(current);
    const bool was = tracker->violated.exchange(violated,
                                                std::memory_order_acq_rel);
    if (violated && !was) {
      tracker->violations.fetch_add(1, std::memory_order_relaxed);
      tracker->violations_counter->inc();
      // The violation edge is an incident trigger: the report captures the
      // ops that led into the breach while they are still in the rings.
      auto incident = IncidentHub::global().trigger_auto(
          "slo-violation", "objective: " + tracker->spec.name);
      (void)incident;  // disabled hub / rate limit are expected outcomes
    }
    if (violated != was) {
      any_flipped = true;
      FlightRecorder::global().record_transition("slo:" + tracker->spec.name,
                                                 was ? 1 : 0,
                                                 violated ? 1 : 0);
    }
    tracker->current_gauge->set(current);
    tracker->violated_gauge->set(violated ? 1.0 : 0.0);
    const double budget = tracker->budget > 0 ? tracker->budget : 1.0;
    tracker->burn_short_gauge->set(tracker->burn_short.bad_fraction(t) /
                                   budget);
    tracker->burn_long_gauge->set(tracker->burn_long.bad_fraction(t) /
                                  budget);
  }
  return any_flipped;
}

double SloEngine::violated_value(std::string_view name) const {
  const TrackerList* list = trackers_.load(std::memory_order_acquire);
  if (!list) return 0;
  for (const auto& tracker : *list) {
    if (tracker->spec.name == name) {
      return tracker->violated.load(std::memory_order_acquire) ? 1.0 : 0.0;
    }
  }
  return 0;
}

std::vector<SloStatus> SloEngine::status(TimePoint t) const {
  std::vector<SloStatus> out;
  const TrackerList* list = trackers_.load(std::memory_order_acquire);
  if (!list) return out;
  out.reserve(list->size());
  for (const auto& tracker : *list) {
    SloStatus row;
    row.name = tracker->spec.name;
    row.tier = tracker->spec.tier;
    row.signal = std::string(to_string(tracker->spec.signal));
    row.is_latency = slo_is_latency(tracker->spec.signal);
    row.target = row.is_latency ? tracker->spec.target_ms
                                : tracker->spec.target_fraction;
    row.current = tracker->current_value(t);
    row.window_s = to_seconds(tracker->spec.window);
    row.samples = tracker->window.total(t);
    const double budget = tracker->budget > 0 ? tracker->budget : 1.0;
    row.burn_short = tracker->burn_short.bad_fraction(t) / budget;
    row.burn_long = tracker->burn_long.bad_fraction(t) / budget;
    row.violated = tracker->violated.load(std::memory_order_acquire);
    row.violations = tracker->violations.load(std::memory_order_relaxed);
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace tiera
