// Tier: the storage-interface-layer abstraction.
//
// "A tier can be any source or sink for data with a prescribed interface"
// (paper §2.2). A Tier stores uninterpreted byte objects under string keys
// and reports capacity/usage so the control layer can evaluate threshold
// events like `tier1.filled == 75%`. The base class centralises:
//   * modelled service-time charging (LatencyModel + global time scale),
//   * capacity accounting and grow/shrink,
//   * failure injection (fail-stop / timeout outages, as in Fig. 17),
//   * operation statistics (including billable request counts for S3).
// Subclasses provide the raw storage (RAM, files).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <optional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "store/latency_model.h"

namespace tiera {

enum class TierKind {
  kMemory,     // Memcached/ElastiCache-like: volatile RAM
  kBlock,      // EBS-like: durable block store
  kEphemeral,  // EC2 instance store: fast but lost on reboot
  kObject,     // S3-like: durable, cheap, per-request billed
};

std::string_view to_string(TierKind kind);

enum class FailureMode {
  kNone,
  kFailStop,  // operations fail immediately with kUnavailable
  kTimeout,   // operations hang for the injected delay, then fail kTimedOut
};

// Circuit-breaker position of a tier, surfaced so threshold rules can react
// to `tierX.breaker == open` (ResilientTier overrides; plain tiers are
// always closed). Numeric values are the threshold-event encoding.
enum class BreakerState : int {
  kClosed = 0,
  kHalfOpen = 1,
  kOpen = 2,
};

std::string_view to_string(BreakerState state);

struct TierStats {
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> removes{0};
  std::atomic<std::uint64_t> bytes_written{0};
  std::atomic<std::uint64_t> bytes_read{0};
  std::atomic<std::uint64_t> failed_ops{0};

  std::uint64_t total_requests() const {
    return puts.load() + gets.load() + removes.load();
  }
};

// Per-GB-month and per-request pricing used by CostModel and the live
// CostMeter.
struct TierPricing {
  double dollars_per_gb_month = 0.0;
  double dollars_per_put = 0.0;      // billable mutating request
  double dollars_per_get = 0.0;      // billable read request
  double dollars_per_io = 0.0;       // EBS-style I/O charge (any op)
  // (Simulated) data-transfer-out charge on bytes leaving the tier: client
  // reads and policy moves/copies sourced from it. Zero for tiers whose
  // service bills transfer separately or not at all (EBS, local memory).
  double dollars_per_gb_egress = 0.0;
  // Capacity-billed services (EBS volumes, cache nodes) charge for the
  // provisioned size; usage-billed (S3) charge for stored bytes.
  bool bill_by_capacity = true;
};

class Tier {
 public:
  Tier(std::string name, TierKind kind, std::uint64_t capacity_bytes,
       LatencyModel latency, TierPricing pricing);
  virtual ~Tier();

  Tier(const Tier&) = delete;
  Tier& operator=(const Tier&) = delete;

  const std::string& name() const { return name_; }
  TierKind kind() const { return kind_; }
  bool durable() const {
    return kind_ == TierKind::kBlock || kind_ == TierKind::kObject;
  }

  // --- Data path -----------------------------------------------------------
  // Stores (or overwrites) `key`. Fails with kCapacityExceeded when the
  // object does not fit. Virtual so decorators (ResilientTier) can interpose
  // retry/deadline/breaker logic around the base implementation.
  virtual Status put(std::string_view key, ByteView value);
  virtual Result<Bytes> get(std::string_view key);
  virtual Status remove(std::string_view key);
  virtual bool contains(std::string_view key) const;

  // --- Capacity ------------------------------------------------------------
  virtual std::uint64_t capacity() const { return capacity_.load(); }
  virtual std::uint64_t used() const { return used_.load(); }
  double fill_fraction() const {
    const auto cap = capacity();
    return cap ? static_cast<double>(used()) / static_cast<double>(cap) : 1.0;
  }
  virtual std::size_t object_count() const;

  // grow/shrink responses (Table 1): resize by a percentage of current
  // capacity. Shrinking below current usage is refused.
  virtual Status grow(double percent_increase);
  virtual Status shrink(double percent_decrease);

  // --- Service concurrency ---------------------------------------------------
  // Maximum in-flight operations the backing service processes at once
  // (0 = unlimited). A block volume has a small effective queue depth, so
  // background replication contends with foreground I/O — the effect behind
  // the paper's bandwidth-cap experiment (Fig. 14). Ops beyond the limit
  // queue for a slot before their service time runs.
  virtual void set_io_slots(std::size_t slots);
  virtual std::size_t io_slots() const;

  // --- Failure injection ---------------------------------------------------
  virtual void inject_failure(FailureMode mode, Duration timeout = from_ms(250));
  virtual void heal();
  virtual FailureMode failure_mode() const { return failure_mode_.load(); }

  // Ephemeral semantics: drop contents (no-op for durable tiers).
  virtual void reboot() {}

  // --- Resilience introspection --------------------------------------------
  // Plain tiers have no breaker and never suggest hedging; ResilientTier
  // overrides these. `has_breaker` lets views print "n/a" instead of a
  // misleading "closed" for tiers without one.
  virtual bool has_breaker() const { return false; }
  virtual BreakerState breaker_state() const { return BreakerState::kClosed; }
  // Non-zero: the instance should hedge a GET to another location when this
  // tier has not answered within the returned delay.
  virtual Duration hedge_delay() const { return Duration::zero(); }

  // --- Introspection -------------------------------------------------------
  virtual const TierStats& stats() const { return stats_; }
  const TierPricing& pricing() const { return pricing_; }
  const LatencyModel& latency_model() const { return latency_; }
  virtual void for_each_key(
      const std::function<void(std::string_view)>& fn) const;

 protected:
  // Decorator constructor: copies the inner tier's identity (name, kind,
  // pricing, latency model) but registers no metrics series and no registry
  // collector — the wrapper forwards every op to the inner tier, which
  // already owns the `tiera_tier_*{tier=<label>}` series; a second collector
  // under the same labels would clobber the gauges.
  struct DecoratorTag {};
  Tier(DecoratorTag, const Tier& inner);

  // Service-time sampling; overridable so tiers can model caching effects
  // (BlockTier's OS-buffer-cache model discounts cached reads).
  virtual Duration sample_read_delay(std::string_view key,
                                     std::uint64_t bytes, Rng& rng);
  virtual Duration sample_write_delay(std::string_view key,
                                      std::uint64_t bytes, Rng& rng);

  // Raw storage hooks; no latency/failure/stat logic inside.
  virtual Status store_raw(std::string_view key, ByteView value) = 0;
  virtual Result<Bytes> load_raw(std::string_view key) const = 0;
  virtual Status erase_raw(std::string_view key) = 0;
  virtual bool contains_raw(std::string_view key) const = 0;
  // Size of the stored object, or nullopt when absent.
  virtual std::optional<std::uint64_t> size_raw(std::string_view key) const = 0;
  virtual std::size_t count_raw() const = 0;
  virtual void keys_raw(
      const std::function<void(std::string_view)>& fn) const = 0;

  void reset_usage() { used_.store(0); }
  // For tiers that reload persisted objects at construction time.
  void add_reloaded_usage(std::uint64_t bytes) { used_.fetch_add(bytes); }
  // For tiers that lose an object outside remove() (a damaged value).
  void release_usage(std::uint64_t bytes) { used_.fetch_sub(bytes); }

 private:
  Status check_failure() const;

  // Registry-owned series (`tiera_tier_*{tier=<label>}`), looked up once at
  // construction; the pointers outlive the tier (the registry never deletes
  // series). Counters and gauges are pull-model: a registered collector
  // delta-syncs them from `stats_` at render time, so the data path pays
  // nothing for them. Only the sampled latency histograms are pushed.
  struct Metrics {
    Counter* puts = nullptr;
    Counter* gets = nullptr;
    Counter* removes = nullptr;
    Counter* failed_ops = nullptr;
    Counter* bytes_written = nullptr;
    Counter* bytes_read = nullptr;
    LatencyHistogram* put_latency = nullptr;
    LatencyHistogram* get_latency = nullptr;
    Gauge* used_bytes = nullptr;
    Gauge* capacity_bytes = nullptr;
  };
  // Last stats_ values the collector already pushed into the registry
  // counters; only the collector touches these (serialized by the registry).
  struct SyncedStats {
    std::uint64_t puts = 0;
    std::uint64_t gets = 0;
    std::uint64_t removes = 0;
    std::uint64_t failed_ops = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t bytes_read = 0;
  };
  void collect_metrics();

  const std::string name_;
  const TierKind kind_;
  LatencyModel latency_;
  TierPricing pricing_;

  class IoSlotGuard;
  std::atomic<std::uint64_t> capacity_;
  std::atomic<std::uint64_t> used_{0};
  std::atomic<FailureMode> failure_mode_{FailureMode::kNone};
  std::atomic<std::int64_t> failure_timeout_ns_{0};

  mutable std::mutex io_mu_;
  mutable std::condition_variable io_cv_;
  std::size_t io_slots_ = 0;  // 0 = unlimited
  mutable std::size_t io_in_flight_ = 0;

  mutable TierStats stats_;
  Metrics metrics_;
  SyncedStats synced_;
  std::uint64_t collector_id_ = 0;
  mutable std::mutex resize_mu_;
};

using TierPtr = std::shared_ptr<Tier>;

}  // namespace tiera
