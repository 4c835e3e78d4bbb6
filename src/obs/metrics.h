// MetricsRegistry: the instance-wide observability surface.
//
// The paper evaluates Tiera entirely through measurements (per-tier hit
// rates, tail latencies, cost counters — Figs. 7-18). This registry gives
// every layer one place to publish those numbers: named counters, gauges,
// and log-bucketed latency histograms, each optionally carrying labels
// (e.g. {tier="m1"}). A process-wide default registry backs the `kStats`
// RPC verb and the `tiera_cli stats` command, which render it in
// Prometheus text-exposition format.
//
// Naming convention: `tiera_<layer>_<name>` with `_total` for counters
// and `_ms` for latency histograms (see DESIGN.md "Observability").
//
// Concurrency: registration takes a registry mutex; the returned metric
// references are stable for the life of the registry, so hot paths look up
// once (at construction) and then mutate relaxed atomics only (histograms
// are lock-free too).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.h"

namespace tiera {

// Tier-level ops finish in a few hundred nanoseconds when latency modelling
// is off, so timing every one of them (two clock reads plus a histogram
// update) would cost more than the op itself. Latency histograms on those
// paths sample 1 op in kLatencySampleEvery (a power of two, so the check is
// a mask); counters stay exact. The per-op `tier.io` stage covers the
// unsampled view.
inline constexpr std::uint64_t kLatencySampleEvery = 8;

// True when an op with this (pre-increment) counter value should be timed.
inline bool latency_sample_hit(std::uint64_t counter) {
  return (counter & (kLatencySampleEvery - 1)) == 0;
}

// Monotonic event count (Prometheus "counter").
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Point-in-time value that can move both ways (Prometheus "gauge").
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class MetricsRegistry {
 public:
  // Label set attached to one series of a metric family, e.g.
  // {{"tier", "m1"}}. Order does not matter; series are keyed by the
  // canonical (sorted) rendering.
  using Labels = std::vector<std::pair<std::string, std::string>>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. References stay valid for the registry's lifetime.
  // Requesting an existing family with a conflicting metric kind logs an
  // error and returns a detached metric (never crashes a serving path).
  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  LatencyHistogram& histogram(std::string_view name, const Labels& labels = {});

  // Collectors: pull-model instrumentation for hot paths that already keep
  // their own atomics (TierStats, InstanceStats). Instead of double-counting
  // every op into the registry, the owner registers a collector that
  // delta-syncs its source-of-truth atomics into registry series; collectors
  // run at the start of every render. Owners MUST remove their collector
  // before the state it captures dies.
  using CollectorId = std::uint64_t;
  CollectorId add_collector(std::function<void()> fn);
  void remove_collector(CollectorId id);
  // Runs all collectors; render_prometheus/render_text call this first.
  void collect() const;

  // Prometheus text exposition format, version 0.0.4. Histograms render as
  // summaries (quantile series + _sum/_count).
  std::string render_prometheus() const;
  // Human-readable one-line-per-series rendering for logs and `stats` text.
  std::string render_text() const;

  std::size_t series_count() const;

  // The process-wide default registry all built-in instrumentation uses.
  static MetricsRegistry& global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };
  struct Family {
    Kind kind = Kind::kCounter;
    // Keyed by the canonical label rendering (`tier="m1"`), so exposition
    // output is deterministic.
    std::map<std::string, Series> series;
  };

  Series& get_or_create(Kind kind, std::string_view name,
                        const Labels& labels);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;

  // Collectors are serialized by their own mutex (never held together with
  // mu_, so a collector may safely call counter()/gauge()/histogram()).
  mutable std::mutex collectors_mu_;
  CollectorId next_collector_id_ = 1;
  std::map<CollectorId, std::function<void()>> collectors_;
};

}  // namespace tiera
