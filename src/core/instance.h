// TieraInstance: an encapsulated multi-tiered storage instance.
//
// This is the paper's central abstraction: a set of storage tiers plus a
// policy (event : response rules) behind a simple PUT/GET application
// interface (§2). The class also exposes the "engine" operations that
// responses are built from (store, storeOnce, copy, move, delete, encrypt,
// compress, grow, ...), so applications and policies share one data path and
// metadata stays consistent with tier contents.
//
// Tiers and rules can be added, removed, or replaced while the instance is
// serving requests — the dynamic reconfiguration the paper demonstrates in
// the failover experiment (Fig. 17).
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/crypto.h"
#include "common/histogram.h"
#include "common/rate_limiter.h"
#include "common/thread_pool.h"
#include "core/control.h"
#include "obs/pool_metrics.h"
#include "core/metadata_store.h"
#include "core/policy.h"
#include "obs/cost_meter.h"
#include "obs/heat.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "store/cost_model.h"
#include "store/tier_factory.h"

namespace tiera {

class AdmissionController;

struct InstanceConfig {
  std::string name = "tiera";
  // Root for file-backed tiers and (optionally) persisted metadata.
  std::string data_dir = "/tmp/tiera-instance";
  std::vector<TierSpec> tiers;
  // Control-layer pool servicing background events and responses (§3).
  std::size_t response_threads = 4;
  // Persist object metadata through metadb (BerkeleyDB's role in the paper).
  bool persist_metadata = false;
  // fsync the metadata journal on every acknowledged write. With group
  // commit, concurrent writers staging into the same batch share one fsync.
  bool journal_sync = false;
  // Group-commit batch bound: flush once this many bytes are staged...
  std::uint64_t journal_batch_bytes = 256 << 10;
  // ...or once the batch leader has lingered this long for followers
  // (only meaningful when journal_sync is on).
  Duration journal_batch_wait = std::chrono::microseconds(200);
  // When no placement rule stores an inserted object, fall back to the first
  // tier (the paper's specs always include a placement rule; this keeps
  // partially configured instances usable).
  bool default_placement = true;
  // Granularity of the timer-event thread, in modelled time. The paper's
  // prototype supports seconds granularity; we default finer so scaled
  // benches stay accurate.
  Duration timer_tick = from_ms(50);
  // Request tracing: keep a ring of the last `trace_capacity` PUT/GET/DELETE
  // spans (op, object, tier, duration, outcome). Opt-in: recording costs a
  // slot mutex and two copies per request, which embedded benches don't want
  // to pay. tierad enables it for every served instance.
  bool trace_requests = false;
  // Ring size; the TIERA_TRACE_CAPACITY environment variable overrides it
  // (overflow shows up in `tiera_trace_dropped_total`).
  std::size_t trace_capacity = 512;
  // Heat & spend telemetry: per-object access-frequency sketches
  // (tiera_heat_*) and the live cost meter (tiera_cost_*,
  // tiera_tier_{read,write}_bytes_total). On by default — the combined
  // hot-path cost is a sketch add plus a few relaxed counter bumps; benches
  // that want the bare data path set this false.
  bool track_heat = true;
  // Heat decay half-life in modelled time (counts halve this often).
  Duration heat_half_life = std::chrono::seconds(60);
  // Sketch/top-K geometry; defaults suit ~100k+ distinct keys per tier.
  HeatOptions heat_options;
};

struct InstanceStats {
  // Each verb's histogram times the ops its counter below counts.
  LatencyHistogram put_latency;
  LatencyHistogram get_latency;
  LatencyHistogram delete_latency;
  ThroughputMeter ops;
  std::atomic<std::uint64_t> puts{0};     // every attempt
  std::atomic<std::uint64_t> gets{0};     // OK results
  std::atomic<std::uint64_t> removes{0};  // OK results
  std::atomic<std::uint64_t> get_misses{0};  // NotFound GETs
  // Every non-OK result except NotFound, all verbs.
  std::atomic<std::uint64_t> failures{0};
  // Policy/engine data movement (placement, migration, write-back,
  // eviction): bytes written into tiers and objects mutated while a
  // response ran. Background responses update these through the same engine
  // accounting as foreground ones, so instance totals reconcile with
  // per-tier sums.
  std::atomic<std::uint64_t> policy_bytes{0};
  std::atomic<std::uint64_t> policy_objects{0};
};

class TieraInstance;
using InstancePtr = std::unique_ptr<TieraInstance>;

class TieraInstance {
 public:
  static Result<std::unique_ptr<TieraInstance>> create(InstanceConfig config);
  ~TieraInstance();

  TieraInstance(const TieraInstance&) = delete;
  TieraInstance& operator=(const TieraInstance&) = delete;

  const std::string& name() const { return config_.name; }

  // --- Application interface layer (PUT/GET API) ---------------------------
  Status put(std::string_view id, ByteView data,
             const std::vector<std::string>& tags = {});
  Result<Bytes> get(std::string_view id);
  Status remove(std::string_view id);

  bool contains(std::string_view id) const;
  Result<ObjectMeta> stat(std::string_view id) const;
  Status add_tags(std::string_view id, const std::vector<std::string>& tags);
  std::size_t object_count() const { return meta_.size(); }

  // --- Tier management -------------------------------------------------------
  Status add_tier(const TierSpec& spec);
  // Detach a tier; object metadata forgets it (bytes in other tiers remain).
  Status remove_tier(std::string_view label);
  TierPtr tier(std::string_view label) const;
  std::vector<TierPtr> tiers() const;
  std::vector<std::string> tier_labels() const;

  // --- Policy management -----------------------------------------------------
  std::uint64_t add_rule(Rule rule) { return control_->add_rule(std::move(rule)); }
  Status remove_rule(std::uint64_t rule_id) {
    return control_->remove_rule(rule_id);
  }
  void clear_rules() { control_->clear_rules(); }
  ControlLayer& control() { return *control_; }

  // --- Service-level objectives ----------------------------------------------
  // Declared via `slo get_p99 < 2ms ...` in specs or directly here. The
  // engine measures PUT/GET latency and error rate over sliding windows;
  // the control layer evaluates objectives on its timer tick and fires
  // `slo.<name> == violated` threshold rules on compliance flips.
  Status add_slo(const SloSpec& spec) { return slo_.add(spec); }
  SloEngine& slo() { return slo_; }
  const SloEngine& slo() const { return slo_; }

  // --- Heat & spend telemetry ------------------------------------------------
  // Null when config.track_heat is false. The heat tracker sees every
  // client-facing access (GETs against the serving tier, PUT payloads
  // against every tier they land in); the cost meter accrues storage /
  // request / egress dollars on the control tick and attributes policy
  // movement per rule.
  HeatTracker* heat() { return heat_.get(); }
  const HeatTracker* heat() const { return heat_.get(); }
  CostMeter* cost_meter() { return cost_.get(); }
  const CostMeter* cost_meter() const { return cost_.get(); }
  // Control-tick hook (modelled elapsed time): advances heat decay and
  // accrues spend from current tier occupancy and op-count deltas.
  void tick_observability(Duration modelled_elapsed);

  // --- Engine operations (the verbs of Table 1) ------------------------------
  // These keep metadata and tier contents consistent; responses are thin
  // wrappers over them and applications may call them directly.
  Status engine_store(std::string_view id,
                      std::shared_ptr<const Bytes> payload,
                      const std::vector<std::string>& tier_labels,
                      bool dedup, EventContext* ctx = nullptr);
  Status engine_copy(const std::vector<std::string>& ids,
                     const std::vector<std::string>& dest_tiers,
                     RateLimiter* limiter = nullptr,
                     EventContext* ctx = nullptr);
  Status engine_move(const std::vector<std::string>& ids,
                     const std::vector<std::string>& dest_tiers,
                     const std::vector<std::string>& from_tiers,
                     RateLimiter* limiter = nullptr,
                     EventContext* ctx = nullptr);
  Status engine_delete(const std::vector<std::string>& ids,
                       const std::vector<std::string>& tier_labels,
                       EventContext* ctx = nullptr);
  Status engine_retrieve(const std::vector<std::string>& ids);
  Status engine_encrypt(const std::vector<std::string>& ids,
                        const ChaChaKey& key);
  Status engine_decrypt(const std::vector<std::string>& ids,
                        const ChaChaKey& key);
  Status engine_compress(const std::vector<std::string>& ids);
  Status engine_uncompress(const std::vector<std::string>& ids);
  Status engine_grow(std::string_view tier_label, double percent,
                     Duration provisioning_delay = Duration::zero());
  Status engine_shrink(std::string_view tier_label, double percent);
  Status engine_set_dirty(const std::vector<std::string>& ids, bool dirty);

  // Snapshotting (one of the responses the paper plans beyond Table 1).
  // A snapshot is an immutable copy stored as `<id>@snap/<name>`, tagged
  // "snapshot", placed in `dest_tiers` (or the object's current locations
  // when empty). Snapshots survive overwrites and deletes of the original.
  Status engine_snapshot(const std::vector<std::string>& ids,
                         std::string_view name,
                         const std::vector<std::string>& dest_tiers = {});
  // Overwrites `id` with the content of its snapshot (normal PUT path, so
  // the placement policy runs).
  Status restore_snapshot(std::string_view id, std::string_view name);
  std::vector<std::string> list_snapshots(std::string_view id) const;

  // Key used to transparently decrypt at-rest-encrypted objects on GET.
  void set_encryption_key(const ChaChaKey& key);

  // Consistent-hash remap after a memory-tier resize: a `fraction` of the
  // objects in `tier_label` that also live elsewhere are dropped from that
  // tier (they re-warm via subsequent policy/promotion). Returns the number
  // of invalidated objects. Drives the cache-miss spike of Fig. 16.
  std::size_t remap_invalidate(std::string_view tier_label, double fraction,
                               std::uint64_t seed = 42);

  // --- Introspection ----------------------------------------------------------
  MetadataStore& metadata() { return meta_; }
  const MetadataStore& metadata() const { return meta_; }
  InstanceStats& stats() { return stats_; }
  RequestTracer& tracer() { return tracer_; }
  const RequestTracer& tracer() const { return tracer_; }
  // Live per-tier / per-rule activity tables (the `tiera_cli top` view).
  // `sections` filters which tables print: a comma-separated subset of
  // {header,tiers,slo,rules,pool,heat,cost,admission}; empty renders
  // everything. Unknown section names are ignored.
  std::string render_top(std::string_view sections = {}) const;

  // Lets `top` render the ADMISSION table when a server-side admission
  // controller fronts this instance (net/tiera_service.cpp wires it). The
  // controller must outlive the instance or be cleared with nullptr first.
  void set_admission_view(const AdmissionController* admission) {
    admission_view_.store(admission, std::memory_order_release);
  }
  double monthly_cost(double observed_seconds = 0) const;
  std::vector<TierCost> cost_breakdown(double observed_seconds = 0) const;

 private:
  explicit TieraInstance(InstanceConfig config);
  Status init();

  struct TierEntry {
    std::string label;
    TierPtr tier;
  };

  // Tier lookup helpers (shared lock).
  Result<TierPtr> find_tier(std::string_view label) const;
  std::vector<TierEntry> tier_snapshot() const;

  // Shared implementation of copy/move for one object, under its stripe.
  Status replicate_locked(const std::string& id,
                          const std::vector<std::string>& dest_tiers,
                          const std::vector<std::string>& from_tiers,
                          bool remove_sources, EventContext* ctx);

  // True when another object still references this (dedup'd) content in the
  // given tier, so the bytes must stay although `meta.id` is leaving.
  bool content_needed_in_tier(const ObjectMeta& meta,
                              const std::string& label);

  // Per-tier GET-hit counter (`tiera_instance_tier_hits_total{tier=..}`),
  // cached so the GET path avoids a registry lookup per request.
  Counter& tier_hit_counter(const std::string& tier_label);

  // Reads the at-rest bytes of `meta` from the fastest live location.
  Result<Bytes> read_at_rest(const ObjectMeta& meta, std::string* served_tier);
  // Races `primary` against `secondary` for `key`: the hedge launches after
  // `delay` if the primary has not answered. Returns the winning result, or
  // nullopt when no raced location succeeded; `*next_location` is the index
  // into the location list where a sequential fallback should resume.
  std::optional<Result<Bytes>> read_hedged(const TierEntry& primary,
                                           const TierEntry& secondary,
                                           const std::string& object_id,
                                           const std::string& key,
                                           Duration delay,
                                           std::string* served_tier,
                                           std::size_t* next_location);
  // Rewrites at-rest bytes in every location tier (used by the transform
  // engine ops).
  Status rewrite_at_rest(const ObjectMeta& meta, ByteView bytes);

  // Per-object mutation lock: every engine operation that reads an
  // object's bytes and rewrites tier contents/metadata holds the object's
  // stripe for its whole read-modify-write, so a background migration
  // (promotion, eviction, write-back copy) can never interleave with a
  // foreground overwrite and resurrect stale bytes. Exactly one stripe is
  // ever held at a time (engine ops do not nest under a lock), so the
  // scheme is deadlock-free.
  static constexpr std::size_t kObjectStripes = 256;
  std::mutex& object_lock(std::string_view id) const;

  // Each stripe gets its own cache line: with requests sharded per-core by
  // object id, neighbouring stripes are owned by different cores, and
  // packed mutexes (40 bytes on glibc) would false-share.
  struct alignas(64) PaddedStripe {
    std::mutex mu;
  };

  InstanceConfig config_;
  TierFactory factory_;
  mutable std::array<PaddedStripe, kObjectStripes> object_stripes_;

  mutable std::shared_mutex tiers_mu_;
  std::vector<TierEntry> tiers_;

  MetadataStore meta_;
  std::unique_ptr<ControlLayer> control_;
  InstanceStats stats_;
  SloEngine slo_{config_.name};
  // Server-owned admission controller, observed (not owned) for `top`.
  std::atomic<const AdmissionController*> admission_view_{nullptr};
  RequestTracer tracer_;
  // Heat & spend telemetry (null when config_.track_heat is false).
  std::unique_ptr<HeatTracker> heat_;
  std::unique_ptr<CostMeter> cost_;

  // Hedged reads race two tier GETs on this small reusable pool instead of
  // creating a thread per hedge-eligible read; a losing read occupies a
  // worker only until the inner tier returns. Tasks capture the race state
  // and the tier by shared_ptr, never the instance.
  ThreadPool hedge_pool_{4, "hedge"};
  // Declared after the pool it watches so it is destroyed first.
  PoolMetrics hedge_pool_metrics_{hedge_pool_};

  // Records one PUT/GET/DELETE on every exit; defined in instance.cpp.
  class OpRecord;

  // End-to-end series in the global registry (`tiera_instance_*`).
  // Pull-model: a registered collector delta-syncs counters from `stats_`
  // and mirrors the per-instance latency histograms at render time, so the
  // request path pays only for `stats_`.
  struct Metrics {
    Counter* puts;
    Counter* gets;
    Counter* removes;
    Counter* get_misses;
    Counter* failures;
    Counter* policy_bytes;
    Counter* policy_objects;
    LatencyHistogram* put_latency;
    LatencyHistogram* get_latency;
    LatencyHistogram* delete_latency;
  };
  Metrics metrics_;
  // Collector state: last stats_ values already pushed into the registry,
  // plus merge cursors for the histogram mirrors. Only the collector touches
  // these (serialized by the registry's collector lock).
  struct SyncedStats {
    std::uint64_t puts = 0;
    std::uint64_t gets = 0;
    std::uint64_t removes = 0;
    std::uint64_t get_misses = 0;
    std::uint64_t failures = 0;
    std::uint64_t policy_bytes = 0;
    std::uint64_t policy_objects = 0;
  };
  SyncedStats synced_;
  LatencyHistogram put_latency_cursor_;
  LatencyHistogram get_latency_cursor_;
  LatencyHistogram delete_latency_cursor_;
  std::uint64_t collector_id_ = 0;
  void collect_metrics();
  // Per-served-tier GET hit counters. The read path does a lock-free scan of
  // an immutable snapshot (a handful of tiers at most); a miss swaps in a
  // bigger snapshot under the mutex. Retired snapshots are kept until the
  // instance dies so readers never chase a freed pointer.
  struct HitCounters {
    std::vector<std::pair<std::string, Counter*>> entries;
  };
  std::atomic<const HitCounters*> hit_counters_{nullptr};
  mutable std::mutex hit_counters_mu_;
  std::vector<std::unique_ptr<const HitCounters>> hit_counter_snapshots_;

  mutable std::mutex key_mu_;
  std::optional<ChaChaKey> encryption_key_;
};

}  // namespace tiera
