// SLO engine: windowed latency/error objectives as first-class signals.
//
// The paper frames every evaluation in latency goals per workload (MySQL,
// TPC-W, YCSB — §4), yet its prototype never lets an instance *see* its own
// latency. This module closes that loop: objectives declared in the spec
// grammar (`slo get_p99 < 2ms window 60s burn 5m/1h`) are measured here over
// sliding windows and surfaced three ways — Prometheus series
// (`tiera_slo_{current,target,violated,burn_rate}`), threshold events
// (`slo.get_p99 == violated`) that existing rules react to with grow/move/
// copy responses, and the `kSlo` RPC behind `tiera_cli slo`.
//
// Window mechanics: each objective keeps time-sliced log-bucketed histogram
// rings (60 slices per window). A slice is claimed for the current epoch
// (epoch = time / slice_length) with a CAS and zeroed by the winner, so
// rotation is O(1) and the hot path takes no locks — samples racing a
// rotation may land in a slice being zeroed and get dropped, which is
// acceptable sampling loss for statistics (same stance as LatencyHistogram).
// Readers only trust a slice whose epoch matches the one expected for its
// ring slot, which also makes simulated clock jumps (forwards or backwards)
// self-healing instead of corrupting quantiles.
//
// Burn rates follow the SRE-workbook multiwindow scheme: a sample is "bad"
// at record time (latency over target, or a failed op), and two longer
// count-only rings (default 5m/1h) report bad-fraction divided by the error
// budget — burn rate 1.0 means the budget exactly runs out over the window.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace tiera {

// What an objective measures. Latency signals target a quantile of the
// instance's PUT or GET latency; kErrorRate targets the failed fraction of
// all recorded PUTs, GETs and DELETEs.
enum class SloSignal {
  kGetP50,
  kGetP95,
  kGetP99,
  kPutP50,
  kPutP95,
  kPutP99,
  kErrorRate,
};

std::string_view to_string(SloSignal signal);
// "get_p99" -> kGetP99 etc.; false when the name is not a known signal.
bool slo_signal_from_name(std::string_view name, SloSignal* out);
// The quantile a latency signal targets (0.99 for kGetP99); 0 for
// kErrorRate.
double slo_quantile(SloSignal signal);
bool slo_is_latency(SloSignal signal);
bool slo_is_get(SloSignal signal);

// One declared objective. `name` is the spec text of the metric
// ("get_p99", or "tier2.get_p99" for a per-tier objective) and doubles as
// the identity used by `slo.<name> == violated` events and the {slo=...}
// metric label.
struct SloSpec {
  std::string name;
  SloSignal signal = SloSignal::kGetP99;
  // Restrict to operations served by this tier (empty = whole instance).
  std::string tier;
  // Latency signals: target in milliseconds of modelled time.
  double target_ms = 0;
  // kErrorRate: target failed fraction in (0,1).
  double target_fraction = 0;
  // Evaluation window (modelled time; scaled like timer periods).
  Duration window = std::chrono::seconds(60);
  // Burn-rate windows (short/long), modelled time.
  Duration burn_short = std::chrono::minutes(5);
  Duration burn_long = std::chrono::hours(1);
};

// A lock-free ring of time slices, each an independent coarse log-bucketed
// histogram plus total/bad counters. All methods take explicit time points
// so tests can replay rotations and clock jumps deterministically.
class SloWindowRing {
 public:
  // ~7.5% relative bucket width covering 1us .. ~100s; coarse on purpose —
  // a slice is 256 * 4 bytes of buckets, and 60 of them per objective.
  static constexpr int kBucketCount = 256;

  SloWindowRing(int slices, Duration slice_len);

  void record(TimePoint t, double latency_ms, bool bad);
  // Counters only, no latency bucket — for rings that are read exclusively
  // through bad_fraction() (the burn-rate windows). Skips the log() bucket
  // math and the bucket cache line on the hot path.
  void record_counts(TimePoint t, bool bad);

  // Aggregates over the slices still valid at `t`.
  std::uint64_t total(TimePoint t) const;
  std::uint64_t bad(TimePoint t) const;
  // Latency quantile across the window; 0 when the window holds no samples.
  double percentile_ms(TimePoint t, double q) const;
  // bad/total; 0 when empty.
  double bad_fraction(TimePoint t) const;

  Duration slice_len() const { return slice_len_; }
  int slices() const { return slice_count_; }

 private:
  struct Slice {
    std::atomic<std::int64_t> epoch{-1};
    std::atomic<std::uint64_t> total{0};
    std::atomic<std::uint64_t> bad{0};
    std::atomic<std::uint32_t> buckets[kBucketCount];
  };

  static int bucket_for(double latency_ms);
  static double bucket_upper_ms(int bucket);

  std::int64_t epoch_of(TimePoint t) const;
  // Claims the slot for `epoch` (zeroing stale contents); returns the slice.
  Slice& refresh(std::int64_t epoch);
  // Visits every slice whose epoch lies in (epoch(t) - slices, epoch(t)].
  template <typename Fn>
  void for_valid(TimePoint t, Fn&& fn) const;

  const int slice_count_;
  const Duration slice_len_;
  std::unique_ptr<Slice[]> slices_;
};

// Point-in-time view of one objective, for `top`, the kSlo RPC and tests.
struct SloStatus {
  std::string name;
  std::string tier;       // empty = instance-wide
  std::string signal;     // to_string(SloSignal)
  bool is_latency = true;
  double target = 0;      // ms (latency) or fraction (error rate)
  double current = 0;     // same unit as target
  double window_s = 0;    // modelled window length
  std::uint64_t samples = 0;
  double burn_short = 0;  // error-budget burn rate over the short window
  double burn_long = 0;   // ... and the long window
  bool violated = false;
  std::uint64_t violations = 0;  // compliant -> violated transitions
};

// All objectives of one instance. The record path is wait-free: a single
// acquire load of the objective list (copy-on-write, like the instance's
// per-tier hit counters) and, per matching objective, three relaxed
// fetch_adds. Evaluation runs on the control layer's timer tick and
// publishes gauges into the global MetricsRegistry.
class SloEngine {
 public:
  explicit SloEngine(std::string instance_name);

  // Registers an objective (and its `tiera_slo_*` series). Rejects
  // duplicate names and non-positive targets/windows. The effective time
  // scale is frozen at add time (mirroring how timer rules scale their
  // periods): window geometry is scaled down to wall time, and recorded
  // wall-clock latencies are scaled back up to modelled time, so
  // `target_ms` and every published latency stay in modelled milliseconds
  // regardless of the scale.
  Status add(const SloSpec& spec);

  std::size_t size() const;

  // --- Hot path --------------------------------------------------------------
  // `latency` is measured wall-clock time; each objective converts it to
  // modelled time with its frozen scale before bucketing and bad-sample
  // classification.
  void record_put(Duration latency, std::string_view tier, bool ok) {
    record(Verb::kPut, latency, tier, ok);
  }
  void record_get(Duration latency, std::string_view tier, bool ok) {
    record(Verb::kGet, latency, tier, ok);
  }
  // DELETEs have no latency signal; they count toward error-rate
  // objectives only (instance-wide ones: a delete is served by no tier).
  void record_delete(Duration latency, bool ok) {
    record(Verb::kDelete, latency, "", ok);
  }

  // --- Evaluation ------------------------------------------------------------
  // Recomputes every objective at `t`, refreshes the published gauges, and
  // returns true when any objective's violated state flipped (the caller
  // then re-evaluates threshold rules so `slo.* == violated` events fire
  // edge-accurately).
  bool evaluate(TimePoint t);
  bool evaluate() { return evaluate(now()); }

  // 1.0 when the named objective is currently violated, else 0 (unknown
  // names read as 0). This is the value threshold rules compare against.
  double violated_value(std::string_view name) const;

  std::vector<SloStatus> status(TimePoint t) const;
  std::vector<SloStatus> status() const { return status(now()); }

 private:
  struct Tracker {
    SloSpec spec;
    bool is_get = false;
    double quantile = 0;      // 0 for error-rate objectives
    double budget = 0;        // error budget: 1-q (latency) or target
    // Converts recorded wall-clock latency into modelled ms: 1/time_scale,
    // frozen at add() alongside the window geometry.
    double wall_to_model = 1.0;
    SloWindowRing window;
    SloWindowRing burn_short;
    SloWindowRing burn_long;
    std::atomic<bool> violated{false};
    std::atomic<std::uint64_t> violations{0};

    // Published series ({slo,instance,tier} labels).
    Gauge* current_gauge = nullptr;
    Gauge* target_gauge = nullptr;
    Gauge* violated_gauge = nullptr;
    Gauge* burn_short_gauge = nullptr;  // extra label window="<short>"
    Gauge* burn_long_gauge = nullptr;   // extra label window="<long>"
    Counter* violations_counter = nullptr;

    Tracker(SloSpec s, double scale, int slices, Duration window_slice,
            Duration short_slice, Duration long_slice);
    double current_value(TimePoint t) const;
    bool over_target(double current) const;
  };
  using TrackerList = std::vector<std::shared_ptr<Tracker>>;

  enum class Verb { kPut, kGet, kDelete };
  void record(Verb verb, Duration latency, std::string_view tier, bool ok);

  const std::string instance_name_;
  // Copy-on-write list: readers load once, writers swap under the mutex.
  // Retired lists are kept until the engine dies so a racing reader never
  // chases a freed vector.
  std::atomic<const TrackerList*> trackers_{nullptr};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<const TrackerList>> retired_;
};

}  // namespace tiera
