// Built-in instance templates: programmatic equivalents of every instance
// specification appearing in the paper.
//
//   LowLatencyInstance        Fig. 3  (Memcached + EBS, write-back on timer)
//   PersistentInstance        Fig. 4  (write-through + throttled S3 backup)
//   GrowingInstance           Fig. 6  (grow Memcached at 75% fill)
//   MemcachedReplicated       §4.1.1  (two AZ-separated Memcached tiers)
//   MemcachedEBS              §4.1.1  (write-through Memcached + EBS)
//   MemcachedS3               §4.1.1  (LRU Memcached cache over S3)
//   TI:1 / TI:2 / TI:3        Table 2 (exclusive LRU chain Mem->EBS->S3)
//   HighDurability            Table 3 (immediate EBS backup, S3 every 2 min)
//   LowDurability             Table 3 (Memcached only, S3 every 2 min)
//   ReplicatedEBS             §4.2.2  (two EBS volumes, copy per 50 MB)
//
// Each builder returns a running instance with its policy installed; the
// corresponding textual spec files live under examples/specs/ and parse to
// the same configuration (tests assert the equivalence).
#pragma once

#include <memory>

#include "core/instance.h"
#include "core/responses.h"

namespace tiera {

struct TemplateOptions {
  std::string data_dir = "/tmp/tiera-instance";
  std::size_t response_threads = 4;
  bool persist_metadata = false;
  // Metadata-journal durability (InstanceConfig::journal_*): fsync every
  // acknowledged write, with group commit amortizing the fsyncs across
  // concurrent writers (tierad's --journal-sync/--journal-batch flags).
  // The batch wait only caps the leader's linger for PUTs/DELETEs already
  // in flight; a lone writer flushes at once.
  bool journal_sync = false;
  std::uint64_t journal_batch_bytes = 256 << 10;
  Duration journal_batch_wait = std::chrono::microseconds(200);
  // Heat & spend telemetry (InstanceConfig::track_heat). Benches that want
  // the bare data path turn it off.
  bool track_heat = true;
  // Applied to spec-file tiers that declare no resilience knobs of their own
  // (tierad's --retries/--deadline/--breaker/--hedge flags land here).
  ResiliencePolicy default_resilience = {};
};

// Fig. 3: store into Memcached on insert; every `writeback_period`, copy
// dirty Memcached objects to EBS. A zero period means write-through.
Result<InstancePtr> make_low_latency_instance(
    const TemplateOptions& opts, std::uint64_t mem_bytes,
    std::uint64_t ebs_bytes, Duration writeback_period);

// Fig. 4: write-through Memcached -> EBS; back EBS up to S3 (40 KB/s) when
// the EBS tier reaches half full.
Result<InstancePtr> make_persistent_instance(const TemplateOptions& opts,
                                             std::uint64_t mem_bytes,
                                             std::uint64_t ebs_bytes,
                                             std::uint64_t s3_bytes);

// Fig. 6 / Fig. 16: placement into Memcached, write-back to EBS on a timer,
// promote on EBS reads, and grow Memcached by 100% when 75% full
// (provisioning takes `provisioning_delay`; `remap_fraction` of replicated
// cached objects are invalidated by the resize).
Result<InstancePtr> make_growing_instance(
    const TemplateOptions& opts, std::uint64_t mem_bytes,
    std::uint64_t ebs_bytes, Duration writeback_period,
    Duration provisioning_delay, double remap_fraction);

// §4.1.1 MemcachedReplicated: PUT replicates across two availability zones
// before acknowledging; GET served from the local AZ.
Result<InstancePtr> make_memcached_replicated_instance(
    const TemplateOptions& opts, std::uint64_t mem_bytes_per_az);

// §4.1.1 MemcachedEBS: PUT written through to Memcached and EBS; GET from
// Memcached.
Result<InstancePtr> make_memcached_ebs_instance(const TemplateOptions& opts,
                                                std::uint64_t mem_bytes,
                                                std::uint64_t ebs_bytes);

// §4.1.1 cost instance MemcachedS3: small LRU Memcached cache in front of
// S3; evicted and missed objects live in S3, reads promote. `dedup` turns on
// storeOnce placement (the Fig. 12 S3FS configuration).
Result<InstancePtr> make_memcached_s3_instance(const TemplateOptions& opts,
                                               std::uint64_t mem_bytes,
                                               std::uint64_t s3_bytes,
                                               bool dedup = false);

// Table 2: exclusive tiering Mem -> EBS -> S3 with LRU demotion and
// promote-on-read, sized by fractions of `dataset_bytes`.
Result<InstancePtr> make_tiered_lru_instance(const TemplateOptions& opts,
                                             std::uint64_t dataset_bytes,
                                             double mem_fraction,
                                             double ebs_fraction,
                                             double s3_fraction);

// Table 3 High Durability: Memcached + immediate EBS copy + S3 push timer.
Result<InstancePtr> make_high_durability_instance(const TemplateOptions& opts,
                                                  std::uint64_t bytes_per_tier,
                                                  Duration s3_push_period);

// Table 3 Low Durability: Memcached only + S3 backup timer.
Result<InstancePtr> make_low_durability_instance(const TemplateOptions& opts,
                                                 std::uint64_t mem_bytes,
                                                 std::uint64_t s3_bytes,
                                                 Duration s3_push_period);

// §4.2.2 replication experiment: two EBS volumes; after every
// `bytes_between_syncs` of new data in volume 1, copy it to volume 2 at
// `bandwidth_bps` (0 = unthrottled). `replicate` false gives the baseline.
Result<InstancePtr> make_replicated_ebs_instance(
    const TemplateOptions& opts, std::uint64_t bytes_per_volume,
    bool replicate, std::uint64_t bytes_between_syncs, double bandwidth_bps);

// SLO-driven autoscaling (examples/specs/slo_autoscale.tiera): Memcached +
// EBS write-back instance with a `get_p99 < target_ms` objective over a
// 60 s window; while the objective is violated, a background rule grows the
// Memcached tier by 100% and promotes everything from EBS into it.
Result<InstancePtr> make_slo_autoscale_instance(const TemplateOptions& opts,
                                                std::uint64_t mem_bytes,
                                                std::uint64_t ebs_bytes,
                                                Duration writeback_period,
                                                double target_ms = 2.0);

// §4.2.3 failover target configuration: reconfigure `instance` from
// (Memcached, EBS write-through) to (Memcached, Ephemeral + S3 backup timer).
// Used by the monitoring application after it detects the EBS outage.
Status reconfigure_for_ebs_failure(TieraInstance& instance,
                                   std::uint64_t ephemeral_bytes,
                                   std::uint64_t s3_bytes,
                                   Duration s3_backup_period);

}  // namespace tiera
