#include "core/instance.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "common/compress.h"
#include "common/hash.h"
#include "core/admission.h"
#include "common/logging.h"
#include "common/random.h"
#include "obs/flight_recorder.h"
#include "obs/pool_metrics.h"
#include "obs/stage.h"
#include "obs/trace.h"

namespace tiera {

TieraInstance::TieraInstance(InstanceConfig config)
    : config_(std::move(config)),
      factory_(config_.data_dir) {
  MetricsRegistry& reg = MetricsRegistry::global();
  metrics_.puts = &reg.counter("tiera_instance_puts_total");
  metrics_.gets = &reg.counter("tiera_instance_gets_total");
  metrics_.removes = &reg.counter("tiera_instance_removes_total");
  metrics_.get_misses = &reg.counter("tiera_instance_get_misses_total");
  metrics_.failures = &reg.counter("tiera_instance_failures_total");
  metrics_.policy_bytes = &reg.counter("tiera_instance_policy_bytes_total");
  metrics_.policy_objects =
      &reg.counter("tiera_instance_policy_objects_total");
  metrics_.put_latency = &reg.histogram("tiera_instance_put_latency_ms");
  metrics_.get_latency = &reg.histogram("tiera_instance_get_latency_ms");
  metrics_.delete_latency = &reg.histogram("tiera_instance_delete_latency_ms");
  collector_id_ = reg.add_collector([this] { collect_metrics(); });
}

void TieraInstance::collect_metrics() {
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
  sync(metrics_.get_misses, stats_.get_misses, synced_.get_misses);
  sync(metrics_.failures, stats_.failures, synced_.failures);
  sync(metrics_.policy_bytes, stats_.policy_bytes, synced_.policy_bytes);
  sync(metrics_.policy_objects, stats_.policy_objects,
       synced_.policy_objects);
  metrics_.put_latency->merge_new_since(stats_.put_latency,
                                        put_latency_cursor_);
  metrics_.get_latency->merge_new_since(stats_.get_latency,
                                        get_latency_cursor_);
  metrics_.delete_latency->merge_new_since(stats_.delete_latency,
                                           delete_latency_cursor_);
}

Counter& TieraInstance::tier_hit_counter(const std::string& tier_label) {
  const HitCounters* snapshot =
      hit_counters_.load(std::memory_order_acquire);
  if (snapshot) {
    for (const auto& [label, counter] : snapshot->entries) {
      if (label == tier_label) return *counter;
    }
  }
  // First GET served by this tier: publish a snapshot that includes it.
  std::lock_guard lock(hit_counters_mu_);
  snapshot = hit_counters_.load(std::memory_order_acquire);
  if (snapshot) {
    for (const auto& [label, counter] : snapshot->entries) {
      if (label == tier_label) return *counter;
    }
  }
  auto next = std::make_unique<HitCounters>();
  if (snapshot) next->entries = snapshot->entries;
  Counter& counter = MetricsRegistry::global().counter(
      "tiera_instance_tier_hits_total", {{"tier", tier_label}});
  next->entries.emplace_back(tier_label, &counter);
  hit_counters_.store(next.get(), std::memory_order_release);
  hit_counter_snapshots_.push_back(std::move(next));
  return counter;
}

TieraInstance::~TieraInstance() {
  MetricsRegistry::global().remove_collector(collector_id_);
  if (control_) control_->stop();
}

Result<std::unique_ptr<TieraInstance>> TieraInstance::create(
    InstanceConfig config) {
  std::unique_ptr<TieraInstance> instance(new TieraInstance(std::move(config)));
  TIERA_RETURN_IF_ERROR(instance->init());
  return instance;
}

Status TieraInstance::init() {
  std::error_code ec;
  std::filesystem::create_directories(config_.data_dir, ec);
  if (config_.track_heat) {
    // Created before the tiers so every add_tier (initial and dynamic)
    // registers its cost account.
    HeatOptions heat_options = config_.heat_options;
    heat_options.half_life = config_.heat_half_life;
    heat_ = std::make_unique<HeatTracker>(config_.name, heat_options);
    cost_ = std::make_unique<CostMeter>(config_.name);
  }
  for (const auto& spec : config_.tiers) {
    TIERA_RETURN_IF_ERROR(add_tier(spec));
  }
  if (config_.persist_metadata) {
    MetaDbOptions db_options;
    db_options.sync_every_write = config_.journal_sync;
    db_options.journal_batch_bytes = config_.journal_batch_bytes;
    db_options.journal_batch_wait = config_.journal_batch_wait;
    std::vector<std::string> volatile_tiers;
    for (const auto& entry : tiers_) {
      if (!entry.tier->durable()) volatile_tiers.push_back(entry.label);
    }
    TIERA_RETURN_IF_ERROR(meta_.open(config_.data_dir + "/metadata.db",
                                     db_options, volatile_tiers));
  }
  control_ = std::make_unique<ControlLayer>(*this, config_.response_threads,
                                            config_.timer_tick);
  control_->start();
  TIERA_LOG(kInfo, "core") << "instance '" << config_.name << "' up with "
                           << tiers_.size() << " tiers";
  return Status::Ok();
}

// --- Tier management ---------------------------------------------------------

Status TieraInstance::add_tier(const TierSpec& spec) {
  if (spec.label.empty()) {
    return Status::InvalidArgument("tier label required");
  }
  Result<TierPtr> tier = factory_.create(spec);
  if (!tier.ok()) return tier.status();
  if (auto* resilient = dynamic_cast<ResilientTier*>(tier->get())) {
    // Breaker transitions schedule a threshold pass so failover rules
    // (`tierX.breaker == open`) fire without waiting for the next mutation.
    // The evaluation runs on the control layer's timer thread: a breaker can
    // flip inside a tier op that a response is running under an object
    // stripe, where firing rules inline could deadlock.
    resilient->set_breaker_listener([this](BreakerState) {
      if (control_) control_->request_threshold_evaluation();
    });
  }
  TierPtr created = std::move(tier).value();
  {
    std::unique_lock lock(tiers_mu_);
    for (const auto& entry : tiers_) {
      if (entry.label == spec.label) {
        return Status::AlreadyExists("tier " + spec.label);
      }
    }
    tiers_.push_back({spec.label, created});
  }
  if (cost_) {
    const TierPricing& p = created->pricing();
    cost_->add_tier(spec.label, {.dollars_per_gb_month = p.dollars_per_gb_month,
                                 .dollars_per_put = p.dollars_per_put,
                                 .dollars_per_get = p.dollars_per_get,
                                 .dollars_per_io = p.dollars_per_io,
                                 .dollars_per_gb_egress = p.dollars_per_gb_egress,
                                 .bill_by_capacity = p.bill_by_capacity});
  }
  return Status::Ok();
}

Status TieraInstance::remove_tier(std::string_view label) {
  {
    std::unique_lock lock(tiers_mu_);
    auto it = std::find_if(
        tiers_.begin(), tiers_.end(),
        [&](const TierEntry& entry) { return entry.label == label; });
    if (it == tiers_.end()) return Status::NotFound("no such tier");
    tiers_.erase(it);
  }
  // Metadata forgets the tier; objects whose only copy lived there become
  // unreachable (exactly what a real service outage looks like).
  const std::string tier_name(label);
  meta_.for_each([&](const ObjectMeta& m) {
    if (m.in_tier(tier_name)) {
      (void)meta_.update(m.id, [&](ObjectMeta& cur) {
        cur.locations.erase(tier_name);
        return true;
      });
    }
  });
  meta_.drop_tier(tier_name);
  return Status::Ok();
}

TierPtr TieraInstance::tier(std::string_view label) const {
  std::shared_lock lock(tiers_mu_);
  for (const auto& entry : tiers_) {
    if (entry.label == label) return entry.tier;
  }
  return nullptr;
}

Result<TierPtr> TieraInstance::find_tier(std::string_view label) const {
  TierPtr t = tier(label);
  if (!t) return Status::NotFound("no tier " + std::string(label));
  return t;
}

std::vector<TieraInstance::TierEntry> TieraInstance::tier_snapshot() const {
  std::shared_lock lock(tiers_mu_);
  return tiers_;
}

std::vector<TierPtr> TieraInstance::tiers() const {
  std::shared_lock lock(tiers_mu_);
  std::vector<TierPtr> out;
  out.reserve(tiers_.size());
  for (const auto& entry : tiers_) out.push_back(entry.tier);
  return out;
}

std::vector<std::string> TieraInstance::tier_labels() const {
  std::shared_lock lock(tiers_mu_);
  std::vector<std::string> out;
  out.reserve(tiers_.size());
  for (const auto& entry : tiers_) out.push_back(entry.label);
  return out;
}

// --- Application interface ---------------------------------------------------

// The completion record of one PUT/GET/DELETE (the rule: DESIGN.md §6).
// Opened at the API entry, it owns the op's root trace span, whose start is
// the op's start, and its stage books. On every exit it records the op once,
// with one elapsed value, into stats, SLO and its flight-recorder span, and
// on a GET hit into tier hits, heat and cost. An exit that never calls
// finish() records kInternal, so a forgotten path shows as a failure.
class TieraInstance::OpRecord {
 public:
  OpRecord(TieraInstance& instance, StageOp op, std::string_view object_id)
      : instance_(instance), op_(op), object_id_(object_id), stage_(op) {}
  ~OpRecord();

  OpRecord(const OpRecord&) = delete;
  OpRecord& operator=(const OpRecord&) = delete;

  // Sets the op's result and hands it back: `return op.finish(status);`.
  Status finish(Status result) {
    status_ = result.code();
    return result;
  }

  std::string tier;                // placed in / served from ("" = none)
  std::uint64_t served_bytes = 0;  // GET hit: at-rest bytes that left `tier`

 private:
  TieraInstance& instance_;
  const StageOp op_;
  const std::string_view object_id_;
  TraceScope span_;  // rules the op fires record child spans under it
  OpStageScope stage_;
  StatusCode status_ = StatusCode::kInternal;
};

TieraInstance::OpRecord::~OpRecord() {
  const Duration elapsed = now() - span_.start();
  const bool ok = status_ == StatusCode::kOk;
  // A miss is a correct answer: not a failure, and kept out of the SLO so a
  // miss-heavy client cannot burn the error budget that admission reads.
  const bool miss = status_ == StatusCode::kNotFound;
  InstanceStats& stats = instance_.stats_;
  if (!ok && !miss) stats.failures.fetch_add(1, std::memory_order_relaxed);
  // puts count every attempt; gets and removes count OK results.
  if (ok || op_ == StageOp::kPut) stats.ops.add();
  FlightOp flight_op = FlightOp::kPut;
  if (op_ == StageOp::kPut) {
    stats.puts.fetch_add(1, std::memory_order_relaxed);
    stats.put_latency.record(elapsed);
    if (!miss) instance_.slo_.record_put(elapsed, tier, ok);
  } else if (op_ == StageOp::kGet) {
    flight_op = FlightOp::kGet;
    if (miss) stats.get_misses.fetch_add(1, std::memory_order_relaxed);
    if (!miss) instance_.slo_.record_get(elapsed, tier, ok);
    if (ok) {
      stats.gets.fetch_add(1, std::memory_order_relaxed);
      stats.get_latency.record(elapsed);
      instance_.tier_hit_counter(tier).inc();
      if (HeatTracker* heat = instance_.heat()) {
        heat->record(tier, object_id_, served_bytes);
      }
      if (CostMeter* cost = instance_.cost_meter()) {
        cost->record_client_read(tier, served_bytes);
      }
    }
  } else {
    flight_op = FlightOp::kDelete;
    if (!miss) instance_.slo_.record_delete(elapsed, ok);
    if (ok) {
      stats.removes.fetch_add(1, std::memory_order_relaxed);
      stats.delete_latency.record(elapsed);
    }
  }
  // Not sampled: one flight slot of relaxed atomic stores, measured under
  // the BM_InstancePut4K overhead gate.
  record_span(span_, flight_op, flight_tenant(), object_id_, tier, status_,
              elapsed, 0, current_stage_digest());
}

Status TieraInstance::put(std::string_view id, ByteView data,
                          const std::vector<std::string>& tags) {
  OpRecord op(*this, StageOp::kPut, id);
  // Every metadata write below, the rules' included, stages its journal
  // record and the PUT waits for one group commit at the end.
  MetadataStore::CommitScope journal(meta_);
  const std::string object_id(id);

  // Objects are immutable but may be overwritten. Overwrite happens in
  // place: the new bytes land under the same storage key, so concurrent
  // readers always observe either the old or the new version (never a
  // missing object). Content-addressed (storeOnce) objects cannot be
  // overwritten in place — their storage key derives from the content —
  // so those drop the old incarnation first (no delete event: this is a
  // replacement, not an application delete).
  std::set<std::string> stale_locations;
  auto old = meta_.get(object_id);
  if (old && !old->content_hash.empty()) {
    (void)engine_delete({object_id}, {}, nullptr);
    old.reset();
  }
  Status staged;
  if (old) {
    stale_locations = old->locations;
    staged = meta_.update(object_id, [&](ObjectMeta& cur) {
      cur.size = data.size();
      cur.dirty = true;
      cur.last_access = now();
      cur.compressed = false;
      cur.encrypted = false;
      cur.tags.insert(tags.begin(), tags.end());
      return true;
    });
  } else {
    ObjectMeta meta;
    meta.id = object_id;
    meta.size = data.size();
    meta.dirty = true;
    meta.created = meta.last_access = now();
    meta.tags.insert(tags.begin(), tags.end());
    staged = meta_.put(meta);
  }
  if (!staged.ok()) return op.finish(std::move(staged));

  EventContext ctx;
  ctx.instance = this;
  ctx.object_id = object_id;
  ctx.payload = std::make_shared<const Bytes>(data.begin(), data.end());

  {
    // Both rule passes plus the threshold sweep are "policy" time; the
    // engine_store they trigger re-charges its tier writes to tier.io.
    StageTimer policy_stage(Stage::kPolicyEval);
    // Pass 1: placement logic (`event(insert.into)` rules).
    control_->on_action(ActionType::kInsert, ctx, {},
                        ControlLayer::MatchScope::kUnfilteredOnly);
    if (!ctx.stored && config_.default_placement) {
      const auto snapshot = tier_snapshot();
      if (!snapshot.empty()) {
        (void)engine_store(object_id, ctx.payload, {snapshot.front().label},
                           /*dedup=*/false, &ctx);
      }
    }
    // Pass 2: reactions to where it landed (`insert.into == tierX`).
    control_->on_action(ActionType::kInsert, ctx, ctx.stored_tiers,
                        ControlLayer::MatchScope::kFilteredOnly);

    control_->evaluate_thresholds();
  }

  if (!ctx.stored) {
    if (stale_locations.empty()) {
      (void)meta_.erase(object_id);
    } else {
      // A rejected overwrite leaves the old object as it was: its bytes
      // never moved, so neither may the record that describes them.
      (void)meta_.update(object_id, [&](ObjectMeta& cur) {
        cur.size = old->size;
        cur.dirty = old->dirty;
        cur.compressed = old->compressed;
        cur.encrypted = old->encrypted;
        cur.tags = old->tags;
        return true;
      });
    }
  } else {
    op.tier = ctx.stored_tiers.front();
    // Drop stale copies left in tiers the new placement did not touch (the
    // overwrite landed elsewhere); same storage key, so tiers that were
    // re-stored already hold the new bytes. The new locations are committed
    // before any stale copy goes, so a crash never leaves the journal
    // naming only deleted copies.
    std::lock_guard object_guard(object_lock(object_id));
    std::vector<std::string> dropped;
    for (const auto& label : stale_locations) {
      if (std::find(ctx.stored_tiers.begin(), ctx.stored_tiers.end(),
                    label) != ctx.stored_tiers.end()) {
        continue;
      }
      (void)meta_.update(object_id, [&](ObjectMeta& cur) {
        cur.locations.erase(label);
        return true;
      });
      meta_.remove_from_tier(label, object_id);
      dropped.push_back(label);
    }
    if (!dropped.empty() && meta_.commit_staged().ok()) {
      for (const auto& label : dropped) {
        if (TierPtr stale_tier = tier(label)) {
          (void)stale_tier->remove(object_id);
        }
      }
    }
  }
  // The PUT's one journal wait, inside its latency and stage books.
  const Status committed = journal.finish();

  if (!ctx.stored) {
    return op.finish(
        Status::Unavailable("no tier accepted object " + object_id));
  }
  // A failed synchronous policy step (a replica or write-through copy) does
  // not acknowledge the write, though any bytes that did land stay readable.
  if (!ctx.placement_error.ok()) return op.finish(ctx.placement_error);
  return op.finish(committed);
}

Result<Bytes> TieraInstance::get(std::string_view id) {
  OpRecord op(*this, StageOp::kGet, id);
  const std::string object_id(id);
  const auto meta = meta_.get(object_id);
  if (!meta) return op.finish(Status::NotFound("no object " + object_id));

  Result<Bytes> at_rest = read_at_rest(*meta, &op.tier);
  if (!at_rest.ok()) return op.finish(at_rest.status());

  // Undo at-rest transforms (applied compress-first, so undo decrypt-first).
  Bytes bytes = std::move(at_rest).value();
  // What left the tier (at-rest size), for heat and egress accounting.
  op.served_bytes = bytes.size();
  {
    StageTimer build_stage(Stage::kResponseBuild);
    if (meta->encrypted) {
      std::optional<ChaChaKey> key;
      {
        std::lock_guard lock(key_mu_);
        key = encryption_key_;
      }
      if (!key) {
        return op.finish(
            Status::Corruption("object encrypted, no key registered"));
      }
      Result<Bytes> plain = chacha_decrypt(as_view(bytes), *key);
      if (!plain.ok()) return op.finish(plain.status());
      bytes = std::move(plain).value();
    }
    if (meta->compressed) {
      Result<Bytes> inflated = lz_decompress(as_view(bytes));
      if (!inflated.ok()) return op.finish(inflated.status());
      bytes = std::move(inflated).value();
    }
  }

  meta_.note_access(object_id, now());
  meta_.touch_in_tier(op.tier, object_id);

  EventContext ctx;
  ctx.instance = this;
  ctx.object_id = object_id;
  ctx.action_tier = op.tier;
  {
    StageTimer policy_stage(Stage::kPolicyEval);
    control_->on_action(ActionType::kGet, ctx, {op.tier});
  }
  (void)op.finish(Status::Ok());
  return bytes;
}

Status TieraInstance::remove(std::string_view id) {
  OpRecord op(*this, StageOp::kDelete, id);
  // One group commit for the whole delete (engine_delete's writes join).
  MetadataStore::CommitScope journal(meta_);
  const std::string object_id(id);
  if (!meta_.contains(object_id)) {
    return op.finish(Status::NotFound("no such object"));
  }

  EventContext ctx;
  ctx.instance = this;
  ctx.object_id = object_id;
  // Delete events fire before the object disappears so responses can still
  // act on it (archive-on-delete policies).
  {
    StageTimer policy_stage(Stage::kPolicyEval);
    control_->on_action(ActionType::kDelete, ctx, {});
  }

  Status deleted = engine_delete({object_id}, {}, &ctx);
  if (!deleted.ok()) return op.finish(std::move(deleted));
  {
    StageTimer policy_stage(Stage::kPolicyEval);
    control_->evaluate_thresholds();
  }
  return op.finish(journal.finish());
}

bool TieraInstance::contains(std::string_view id) const {
  return meta_.contains(id);
}

Result<ObjectMeta> TieraInstance::stat(std::string_view id) const {
  const auto meta = meta_.get(id);
  if (!meta) return Status::NotFound("no such object");
  return *meta;
}

Status TieraInstance::add_tags(std::string_view id,
                               const std::vector<std::string>& tags) {
  return meta_.update(id, [&](ObjectMeta& meta) {
    meta.tags.insert(tags.begin(), tags.end());
    return true;
  });
}

// --- Data-path helpers -------------------------------------------------------

Result<Bytes> TieraInstance::read_at_rest(const ObjectMeta& meta,
                                          std::string* served_tier) {
  // Whole-body tier.io: covers fallback chains and hedge waits alike.
  StageTimer io_stage(Stage::kTierIo);
  const std::string key = meta.storage_key();
  std::vector<TierEntry> locations;
  for (const auto& entry : tier_snapshot()) {
    if (meta.in_tier(entry.label)) locations.push_back(entry);
  }

  Status last = Status::NotFound("object has no live location");
  std::size_t next = 0;
  // Hedged path: when the first location advertises a hedge delay (a
  // ResilientTier tracking its GET latency quantile) and the object has a
  // second copy, race the two instead of waiting out a slow primary.
  if (locations.size() >= 2) {
    const Duration delay = locations[0].tier->hedge_delay();
    if (delay > Duration::zero()) {
      std::optional<Result<Bytes>> raced = read_hedged(
          locations[0], locations[1], meta.id, key, delay, served_tier, &next);
      if (raced) return *std::move(raced);
      last = Status::Unavailable("hedged locations failed");
    }
  }
  for (std::size_t i = next; i < locations.size(); ++i) {
    Result<Bytes> bytes = locations[i].tier->get(key);
    if (bytes.ok()) {
      if (served_tier) *served_tier = locations[i].label;
      return bytes;
    }
    last = bytes.status();
  }
  return last;
}

std::optional<Result<Bytes>> TieraInstance::read_hedged(
    const TierEntry& primary, const TierEntry& secondary,
    const std::string& object_id, const std::string& key, Duration delay,
    std::string* served_tier, std::size_t* next_location) {
  struct Race {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<Result<Bytes>> results[2];
  };
  auto race = std::make_shared<Race>();
  const auto launch = [this, &race, &key](int slot, TierPtr tier) {
    // Pool task: the losing read may outlive this call, holding its worker
    // only until the inner tier returns. The task touches only the race
    // state and the tier, both kept alive by the captured shared_ptrs —
    // never the instance.
    return hedge_pool_.submit([race, slot, tier, k = key] {
      Result<Bytes> r = tier->get(k);
      {
        std::lock_guard lock(race->mu);
        race->results[slot].emplace(std::move(r));
      }
      race->cv.notify_all();
    });
  };

  if (!launch(0, primary.tier)) {
    // Pool shutting down (instance teardown): degrade to a plain read.
    Result<Bytes> r = primary.tier->get(key);
    if (r.ok()) {
      if (served_tier) *served_tier = primary.label;
      return r;
    }
    *next_location = 1;
    return std::nullopt;
  }
  std::unique_lock lock(race->mu);
  if (!race->cv.wait_for(lock, delay,
                         [&] { return race->results[0].has_value(); })) {
    // Primary exceeded its latency quantile: issue the hedge and take
    // whichever location answers first.
    auto* resilient = dynamic_cast<ResilientTier*>(primary.tier.get());
    const TimePoint hedge_start = now();
    const bool hedged = launch(1, secondary.tier);
    if (hedged && resilient) resilient->note_hedge_issued();
    race->cv.wait(lock, [&] {
      if (!hedged) return race->results[0].has_value();
      return (race->results[0] && race->results[1]) ||
             (race->results[0] && race->results[0]->ok()) ||
             (race->results[1] && race->results[1]->ok());
    });
    const bool hedge_won =
        !(race->results[0] && race->results[0]->ok()) &&
        race->results[1] && race->results[1]->ok();
    if (hedged) {
      record_leaf_span(FlightOp::kHedge, hedge_start, "hedge", object_id,
                       secondary.label,
                       hedge_won ? StatusCode::kOk : StatusCode::kInternal);
    }
    if (race->results[0] && race->results[0]->ok()) {
      if (served_tier) *served_tier = primary.label;
      return *std::move(race->results[0]);
    }
    if (hedge_won) {
      if (resilient) resilient->note_hedge_win();
      if (served_tier) *served_tier = secondary.label;
      return *std::move(race->results[1]);
    }
    // Resume the sequential fallback past every location actually raced.
    *next_location = hedged ? 2 : 1;
    return std::nullopt;
  }
  if (race->results[0]->ok()) {
    if (served_tier) *served_tier = primary.label;
    return *std::move(race->results[0]);
  }
  *next_location = 1;  // primary failed fast; the fallback starts at the hedge
  return std::nullopt;
}

Status TieraInstance::rewrite_at_rest(const ObjectMeta& meta, ByteView bytes) {
  const std::string key = meta.storage_key();
  Status last = Status::Ok();
  for (const auto& entry : tier_snapshot()) {
    if (!meta.in_tier(entry.label)) continue;
    const Status s = entry.tier->put(key, bytes);
    if (!s.ok()) last = s;
  }
  return last;
}

std::mutex& TieraInstance::object_lock(std::string_view id) const {
  return object_stripes_[fnv1a64(id) % kObjectStripes].mu;
}

bool TieraInstance::content_needed_in_tier(const ObjectMeta& meta,
                                           const std::string& label) {
  if (meta.content_hash.empty()) return false;
  for (const auto& id : meta_.content_ref_ids(meta.content_hash)) {
    if (id == meta.id) continue;
    const auto other = meta_.get(id);
    if (other && other->in_tier(label)) return true;
  }
  return false;
}

// --- Engine operations -------------------------------------------------------

Status TieraInstance::engine_store(std::string_view id,
                                   std::shared_ptr<const Bytes> payload,
                                   const std::vector<std::string>& tier_labels,
                                   bool dedup, EventContext* ctx) {
  const std::string object_id(id);
  std::lock_guard object_guard(object_lock(object_id));
  auto meta = meta_.get(object_id);
  if (!meta) {
    if (!payload) return Status::NotFound("no metadata and no payload");
    ObjectMeta fresh;
    fresh.id = object_id;
    fresh.size = payload->size();
    fresh.dirty = true;
    fresh.created = fresh.last_access = now();
    TIERA_RETURN_IF_ERROR(meta_.put(fresh));
    meta = fresh;
  }

  // Bytes to place: the insert payload, or the current at-rest bytes.
  Bytes at_rest_storage;
  ByteView at_rest;
  // Tier the bytes were read out of (empty for insert payloads) — the
  // egress source for per-rule cost attribution.
  std::string source_tier;
  if (payload) {
    at_rest = as_view(*payload);
  } else {
    Result<Bytes> current = read_at_rest(*meta, &source_tier);
    if (!current.ok()) return current.status();
    at_rest_storage = std::move(current).value();
    at_rest = as_view(at_rest_storage);
  }

  bool maybe_resident = false;
  std::string storage_key = meta->storage_key();
  if (dedup) {
    if (meta->content_hash.empty()) {
      const std::string hash = Sha256::hex_digest(at_rest);
      maybe_resident = !meta_.add_content_ref(hash, object_id);
      TIERA_RETURN_IF_ERROR(meta_.update(object_id, [&](ObjectMeta& cur) {
        cur.content_hash = hash;
        return true;
      }));
      storage_key = "cas:" + hash;
    } else {
      // Hash already assigned (e.g. an earlier storeOnce on another tier):
      // the content-addressed bytes may already be where we're headed.
      maybe_resident = true;
    }
  }

  Status last = Status::Ok();
  bool durable_dest = false;
  std::uint64_t bytes_written = 0;
  bool touched = false;
  for (const auto& label : tier_labels) {
    Result<TierPtr> t = find_tier(label);
    if (!t.ok()) {
      last = t.status();
      continue;
    }
    // storeOnce: when the content is already resident in this tier (another
    // object carries it), only metadata changes — no billable tier request.
    const bool bytes_present = maybe_resident && (*t)->contains(storage_key);
    if (!bytes_present) {
      StageTimer io_stage(Stage::kTierIo);
      const Status s = (*t)->put(storage_key, at_rest);
      if (!s.ok()) {
        last = s;
        continue;
      }
      bytes_written += at_rest.size();
      if (cost_) {
        // Rule attribution mirrors the policy_bytes accounting below, so
        // per-rule byte totals reconcile with tiera_instance_policy_bytes.
        cost_->record_rule_move(ctx ? ctx->rule_id : 0,
                                ctx ? ctx->rule_name : std::string_view{},
                                source_tier, label, at_rest.size());
        // Client-facing ingress: only bytes that arrived with the request.
        if (payload) cost_->record_client_write(label, at_rest.size());
      }
      if (heat_ && payload) heat_->record(label, object_id, at_rest.size());
    }
    touched = true;
    durable_dest = durable_dest || (*t)->durable();
    (void)meta_.update(object_id, [&](ObjectMeta& cur) {
      cur.locations.insert(label);
      return true;
    });
    meta_.touch_in_tier(label, object_id);
    if (ctx) {
      ctx->stored = true;
      ctx->stored_tiers.push_back(label);
      ++ctx->mutations;
    }
  }
  // Attribution: foreground and background stores alike feed the instance
  // policy counters, so `tiera_instance_policy_*` reconciles with per-tier
  // sums no matter which thread ran the response.
  if (bytes_written) {
    stats_.policy_bytes.fetch_add(bytes_written, std::memory_order_relaxed);
    if (ctx) ctx->bytes_moved += bytes_written;
  }
  if (touched) {
    stats_.policy_objects.fetch_add(1, std::memory_order_relaxed);
    if (ctx) ++ctx->objects_touched;
  }
  if (durable_dest) {
    (void)meta_.update(object_id, [&](ObjectMeta& cur) {
      cur.dirty = false;
      return true;
    });
  }
  return last;
}

// Copies one object into `dest_tiers`; when `remove_sources` is set, also
// drops it from `from_tiers` (or every non-destination location when that is
// empty). Runs entirely under the object's stripe so concurrent overwrites,
// evictions and promotions of the same object serialize.
Status TieraInstance::replicate_locked(const std::string& id,
                                       const std::vector<std::string>& dest_tiers,
                                       const std::vector<std::string>& from_tiers,
                                       bool remove_sources,
                                       EventContext* ctx) {
  std::lock_guard object_guard(object_lock(id));
  const auto meta = meta_.get(id);
  if (!meta) return Status::Ok();  // deleted since selection

  Status last = Status::Ok();
  std::uint64_t bytes_written = 0;
  bool touched = false;
  bool all_present = true;
  for (const auto& label : dest_tiers) {
    if (!meta->in_tier(label)) {
      all_present = false;
      break;
    }
  }
  if (!all_present) {
    std::string source_tier;
    Result<Bytes> bytes = read_at_rest(*meta, &source_tier);
    if (!bytes.ok()) return bytes.status();
    const std::string storage_key = meta->storage_key();
    for (const auto& label : dest_tiers) {
      if (meta->in_tier(label)) continue;
      Result<TierPtr> t = find_tier(label);
      if (!t.ok()) {
        last = t.status();
        continue;
      }
      const Status s = (*t)->put(storage_key, as_view(*bytes));
      if (!s.ok()) {
        last = s;
        continue;
      }
      bytes_written += bytes->size();
      touched = true;
      if (cost_) {
        cost_->record_rule_move(ctx ? ctx->rule_id : 0,
                                ctx ? ctx->rule_name : std::string_view{},
                                source_tier, label, bytes->size());
      }
      const bool durable_dest = (*t)->durable();
      (void)meta_.update(id, [&](ObjectMeta& cur) {
        cur.locations.insert(label);
        if (durable_dest) cur.dirty = false;
        return true;
      });
      meta_.touch_in_tier(label, id);
      if (ctx) ++ctx->mutations;
    }
  }
  const auto account = [&] {
    if (bytes_written) {
      stats_.policy_bytes.fetch_add(bytes_written, std::memory_order_relaxed);
      if (ctx) ctx->bytes_moved += bytes_written;
    }
    if (touched) {
      stats_.policy_objects.fetch_add(1, std::memory_order_relaxed);
      if (ctx) ++ctx->objects_touched;
    }
  };
  if (!remove_sources) {
    account();
    return last;
  }

  const auto fresh = meta_.get(id);
  if (!fresh) {
    account();
    return last;
  }
  // A move only gives up its sources once the object actually resides in a
  // destination — a failed copy (e.g. the destination was full) must never
  // drop the last remaining replica.
  bool in_dest = false;
  for (const auto& label : dest_tiers) {
    in_dest = in_dest || fresh->in_tier(label);
  }
  if (!in_dest) {
    account();
    return last.ok() ? Status::CapacityExceeded(
                           "move aborted: no destination holds " + id)
                     : last;
  }
  // The destination's location must be durable before any source copy
  // goes (a no-op unless this runs inside a foreground commit scope).
  if (const Status committed = meta_.commit_staged(); !committed.ok()) {
    account();
    return committed;
  }
  std::vector<std::string> sources;
  if (from_tiers.empty()) {
    for (const auto& loc : fresh->locations) {
      if (std::find(dest_tiers.begin(), dest_tiers.end(), loc) ==
          dest_tiers.end()) {
        sources.push_back(loc);
      }
    }
  } else {
    sources = from_tiers;
  }
  for (const auto& label : sources) {
    if (std::find(dest_tiers.begin(), dest_tiers.end(), label) !=
        dest_tiers.end()) {
      continue;  // never remove from a destination
    }
    if (!fresh->in_tier(label)) continue;
    Result<TierPtr> t = find_tier(label);
    if (t.ok()) {
      // Shared (dedup'd) bytes stay physically present while another
      // object in this tier still references the content.
      if (!content_needed_in_tier(*fresh, label)) {
        const Status s = (*t)->remove(fresh->storage_key());
        if (!s.ok() && !s.is_not_found()) last = s;
      }
    }
    (void)meta_.update(id, [&](ObjectMeta& cur) {
      cur.locations.erase(label);
      return true;
    });
    meta_.remove_from_tier(label, id);
    touched = true;
    if (ctx) ++ctx->mutations;
  }
  account();
  return last;
}

Status TieraInstance::engine_copy(const std::vector<std::string>& ids,
                                  const std::vector<std::string>& dest_tiers,
                                  RateLimiter* limiter, EventContext* ctx) {
  Status last = Status::Ok();
  for (const auto& id : ids) {
    // The bandwidth cap throttles the whole replication stream (source
    // reads included), and paces outside the object lock so foreground
    // operations on a colliding stripe never wait behind the throttle.
    if (limiter) {
      const auto meta = meta_.get(id);
      if (!meta) continue;
      bool all_present = true;
      for (const auto& label : dest_tiers) {
        all_present = all_present && meta->in_tier(label);
      }
      if (all_present) continue;
      limiter->acquire(meta->size);
    }
    const Status s = replicate_locked(id, dest_tiers, {},
                                      /*remove_sources=*/false, ctx);
    if (!s.ok()) last = s;
  }
  return last;
}

Status TieraInstance::engine_move(const std::vector<std::string>& ids,
                                  const std::vector<std::string>& dest_tiers,
                                  const std::vector<std::string>& from_tiers,
                                  RateLimiter* limiter, EventContext* ctx) {
  Status last = Status::Ok();
  for (const auto& id : ids) {
    if (limiter) {
      const auto meta = meta_.get(id);
      if (!meta) continue;
      limiter->acquire(meta->size);
    }
    const Status s = replicate_locked(id, dest_tiers, from_tiers,
                                      /*remove_sources=*/true, ctx);
    if (!s.ok()) last = s;
  }
  return last;
}

Status TieraInstance::engine_delete(const std::vector<std::string>& ids,
                                    const std::vector<std::string>& tier_labels,
                                    EventContext* ctx) {
  Status last = Status::Ok();
  for (const auto& id : ids) {
    std::lock_guard object_guard(object_lock(id));
    const auto meta = meta_.get(id);
    if (!meta) {
      last = Status::NotFound("no object " + id);
      continue;
    }
    bool touched = false;
    const std::vector<std::string> targets =
        tier_labels.empty()
            ? std::vector<std::string>(meta->locations.begin(),
                                       meta->locations.end())
            : tier_labels;
    for (const auto& label : targets) {
      if (!meta->in_tier(label)) continue;
      Result<TierPtr> t = find_tier(label);
      if (t.ok() && !content_needed_in_tier(*meta, label)) {
        StageTimer io_stage(Stage::kTierIo);
        const Status s = (*t)->remove(meta->storage_key());
        if (!s.ok() && !s.is_not_found()) {
          // The bytes may still be there: keep the location, so the object
          // stays readable and a retried remove can finish.
          last = s;
          continue;
        }
      }
      (void)meta_.update(id, [&](ObjectMeta& cur) {
        cur.locations.erase(label);
        return true;
      });
      meta_.remove_from_tier(label, id);
      touched = true;
      if (ctx) ++ctx->mutations;
    }
    if (touched) {
      stats_.policy_objects.fetch_add(1, std::memory_order_relaxed);
      if (ctx) ++ctx->objects_touched;
    }
    const auto after = meta_.get(id);
    if (after && after->locations.empty()) {
      if (!after->content_hash.empty()) {
        meta_.drop_content_ref(after->content_hash, id);
      }
      (void)meta_.erase(id);
    }
  }
  return last;
}

Status TieraInstance::engine_retrieve(const std::vector<std::string>& ids) {
  Status last = Status::Ok();
  for (const auto& id : ids) {
    const auto meta = meta_.get(id);
    if (!meta) continue;
    std::string served;
    Result<Bytes> bytes = read_at_rest(*meta, &served);
    if (!bytes.ok()) {
      last = bytes.status();
      continue;
    }
    meta_.note_access(id, now());
    meta_.touch_in_tier(served, id);
  }
  return last;
}

Status TieraInstance::engine_encrypt(const std::vector<std::string>& ids,
                                     const ChaChaKey& key) {
  set_encryption_key(key);
  Status last = Status::Ok();
  for (const auto& id : ids) {
    std::lock_guard object_guard(object_lock(id));
    const auto meta = meta_.get(id);
    if (!meta || meta->encrypted) continue;
    if (!meta->content_hash.empty()) {
      // Content-addressed bytes are shared; transforming them would corrupt
      // other objects' views.
      last = Status::InvalidArgument("cannot encrypt dedup'd object " + id);
      continue;
    }
    Result<Bytes> bytes = read_at_rest(*meta, nullptr);
    if (!bytes.ok()) {
      last = bytes.status();
      continue;
    }
    const Bytes cipher =
        chacha_encrypt(as_view(*bytes), key, fnv1a64(id) ^ bytes->size());
    const Status s = rewrite_at_rest(*meta, as_view(cipher));
    if (!s.ok()) {
      last = s;
      continue;
    }
    (void)meta_.update(id, [&](ObjectMeta& cur) {
      cur.encrypted = true;
      return true;
    });
  }
  return last;
}

Status TieraInstance::engine_decrypt(const std::vector<std::string>& ids,
                                     const ChaChaKey& key) {
  Status last = Status::Ok();
  for (const auto& id : ids) {
    std::lock_guard object_guard(object_lock(id));
    const auto meta = meta_.get(id);
    if (!meta || !meta->encrypted) continue;
    Result<Bytes> bytes = read_at_rest(*meta, nullptr);
    if (!bytes.ok()) {
      last = bytes.status();
      continue;
    }
    Result<Bytes> plain = chacha_decrypt(as_view(*bytes), key);
    if (!plain.ok()) {
      last = plain.status();
      continue;
    }
    const Status s = rewrite_at_rest(*meta, as_view(*plain));
    if (!s.ok()) {
      last = s;
      continue;
    }
    (void)meta_.update(id, [&](ObjectMeta& cur) {
      cur.encrypted = false;
      return true;
    });
  }
  return last;
}

Status TieraInstance::engine_compress(const std::vector<std::string>& ids) {
  Status last = Status::Ok();
  for (const auto& id : ids) {
    std::lock_guard object_guard(object_lock(id));
    const auto meta = meta_.get(id);
    if (!meta || meta->compressed) continue;
    if (meta->encrypted) {
      last = Status::InvalidArgument(
          "compress before encrypt (object already encrypted): " + id);
      continue;
    }
    if (!meta->content_hash.empty()) {
      last = Status::InvalidArgument("cannot compress dedup'd object " + id);
      continue;
    }
    Result<Bytes> bytes = read_at_rest(*meta, nullptr);
    if (!bytes.ok()) {
      last = bytes.status();
      continue;
    }
    const Bytes packed = lz_compress(as_view(*bytes));
    const Status s = rewrite_at_rest(*meta, as_view(packed));
    if (!s.ok()) {
      last = s;
      continue;
    }
    (void)meta_.update(id, [&](ObjectMeta& cur) {
      cur.compressed = true;
      return true;
    });
  }
  return last;
}

Status TieraInstance::engine_uncompress(const std::vector<std::string>& ids) {
  Status last = Status::Ok();
  for (const auto& id : ids) {
    std::lock_guard object_guard(object_lock(id));
    const auto meta = meta_.get(id);
    if (!meta || !meta->compressed) continue;
    if (meta->encrypted) {
      last = Status::InvalidArgument("decrypt before uncompress: " + id);
      continue;
    }
    Result<Bytes> bytes = read_at_rest(*meta, nullptr);
    if (!bytes.ok()) {
      last = bytes.status();
      continue;
    }
    Result<Bytes> inflated = lz_decompress(as_view(*bytes));
    if (!inflated.ok()) {
      last = inflated.status();
      continue;
    }
    const Status s = rewrite_at_rest(*meta, as_view(*inflated));
    if (!s.ok()) {
      last = s;
      continue;
    }
    (void)meta_.update(id, [&](ObjectMeta& cur) {
      cur.compressed = false;
      return true;
    });
  }
  return last;
}

Status TieraInstance::engine_grow(std::string_view tier_label, double percent,
                                  Duration provisioning_delay) {
  Result<TierPtr> t = find_tier(tier_label);
  if (!t.ok()) return t.status();
  // Provisioning a bigger backing node takes real time (≈1 min in Fig. 16).
  apply_model_delay(provisioning_delay);
  return (*t)->grow(percent);
}

Status TieraInstance::engine_shrink(std::string_view tier_label,
                                    double percent) {
  Result<TierPtr> t = find_tier(tier_label);
  if (!t.ok()) return t.status();
  return (*t)->shrink(percent);
}

Status TieraInstance::engine_set_dirty(const std::vector<std::string>& ids,
                                       bool dirty) {
  Status last = Status::Ok();
  for (const auto& id : ids) {
    const Status s = meta_.update(id, [&](ObjectMeta& cur) {
      cur.dirty = dirty;
      return true;
    });
    if (!s.ok()) last = s;
  }
  return last;
}

Status TieraInstance::engine_snapshot(const std::vector<std::string>& ids,
                                      std::string_view name,
                                      const std::vector<std::string>& dest) {
  if (name.empty() || name.find('/') != std::string_view::npos) {
    return Status::InvalidArgument("bad snapshot name");
  }
  Status last = Status::Ok();
  for (const auto& id : ids) {
    if (id.find("@snap/") != std::string::npos) continue;  // no snap-of-snap
    std::lock_guard object_guard(object_lock(id));
    const auto meta = meta_.get(id);
    if (!meta) continue;
    Result<Bytes> at_rest = read_at_rest(*meta, nullptr);
    if (!at_rest.ok()) {
      last = at_rest.status();
      continue;
    }
    const std::string snap_id = id + "@snap/" + std::string(name);
    ObjectMeta snap;
    snap.id = snap_id;
    snap.size = meta->size;
    snap.created = snap.last_access = now();
    snap.tags = meta->tags;
    snap.tags.insert("snapshot");
    snap.compressed = meta->compressed;
    snap.encrypted = meta->encrypted;
    const std::vector<std::string> targets =
        dest.empty() ? std::vector<std::string>(meta->locations.begin(),
                                                meta->locations.end())
                     : dest;
    bool stored = false;
    for (const auto& label : targets) {
      Result<TierPtr> t = find_tier(label);
      if (!t.ok()) {
        last = t.status();
        continue;
      }
      const Status s = (*t)->put(snap_id, as_view(*at_rest));
      if (!s.ok()) {
        last = s;
        continue;
      }
      snap.locations.insert(label);
      stored = true;
    }
    if (!stored) {
      last = Status::Unavailable("no tier accepted snapshot " + snap_id);
      continue;
    }
    const Status s = meta_.put(snap);
    if (!s.ok()) last = s;
    for (const auto& label : snap.locations) {
      meta_.touch_in_tier(label, snap_id);
    }
  }
  return last;
}

Status TieraInstance::restore_snapshot(std::string_view id,
                                       std::string_view name) {
  const std::string snap_id =
      std::string(id) + "@snap/" + std::string(name);
  Result<Bytes> bytes = get(snap_id);
  if (!bytes.ok()) return bytes.status();
  return put(id, as_view(*bytes));
}

std::vector<std::string> TieraInstance::list_snapshots(
    std::string_view id) const {
  const std::string prefix = std::string(id) + "@snap/";
  std::vector<std::string> names;
  meta_.for_each([&](const ObjectMeta& meta) {
    if (meta.id.size() > prefix.size() &&
        meta.id.compare(0, prefix.size(), prefix) == 0) {
      names.push_back(meta.id.substr(prefix.size()));
    }
  });
  std::sort(names.begin(), names.end());
  return names;
}

void TieraInstance::set_encryption_key(const ChaChaKey& key) {
  std::lock_guard lock(key_mu_);
  encryption_key_ = key;
}

std::size_t TieraInstance::remap_invalidate(std::string_view tier_label,
                                            double fraction,
                                            std::uint64_t seed) {
  Result<TierPtr> t = find_tier(tier_label);
  if (!t.ok()) return 0;
  Rng rng(seed);
  const std::string label(tier_label);
  const auto candidates = meta_.select([&](const ObjectMeta& m) {
    return m.in_tier(label) && m.locations.size() > 1;
  });
  std::size_t invalidated = 0;
  for (const auto& id : candidates) {
    if (rng.next_double() >= fraction) continue;
    std::lock_guard object_guard(object_lock(id));
    const auto meta = meta_.get(id);
    if (!meta || meta->locations.size() < 2 || !meta->in_tier(label)) {
      continue;
    }
    if (!content_needed_in_tier(*meta, label)) {
      (void)(*t)->remove(meta->storage_key());
    }
    (void)meta_.update(id, [&](ObjectMeta& cur) {
      cur.locations.erase(label);
      return true;
    });
    meta_.remove_from_tier(label, id);
    ++invalidated;
  }
  TIERA_LOG(kInfo, "core") << "remap invalidated " << invalidated
                           << " objects in " << tier_label;
  return invalidated;
}

namespace {

// Human-readable byte counts for the `top` tables ("1.5MiB", "640B").
std::string human_bytes(std::uint64_t n) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(n);
  std::size_t unit = 0;
  while (v >= 1024.0 && unit + 1 < std::size(kUnits)) {
    v /= 1024.0;
    ++unit;
  }
  char buf[32];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%llu%s",
                  static_cast<unsigned long long>(n), kUnits[unit]);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f%s", v, kUnits[unit]);
  }
  return buf;
}

// True when `name` appears in the comma-separated `sections` list (empty
// list = every section).
bool top_section_wanted(std::string_view sections, std::string_view name) {
  if (sections.empty()) return true;
  std::size_t pos = 0;
  while (pos <= sections.size()) {
    std::size_t comma = sections.find(',', pos);
    if (comma == std::string_view::npos) comma = sections.size();
    std::string_view token = sections.substr(pos, comma - pos);
    while (!token.empty() && token.front() == ' ') token.remove_prefix(1);
    while (!token.empty() && token.back() == ' ') token.remove_suffix(1);
    if (token == name) return true;
    pos = comma + 1;
  }
  return false;
}

}  // namespace

std::string TieraInstance::render_top(std::string_view sections) const {
  std::string out;
  char line[256];
  const auto want = [&](std::string_view name) {
    return top_section_wanted(sections, name);
  };

  if (want("header")) {
    std::snprintf(line, sizeof(line),
                  "instance %-16s objects=%zu ops/s=%.1f\n",
                  config_.name.c_str(), meta_.size(),
                  stats_.ops.ops_per_sec());
    out += line;
    std::snprintf(
        line, sizeof(line),
        "puts=%llu gets=%llu removes=%llu misses=%llu failures=%llu "
        "policy_bytes=%s policy_objects=%llu flight_dropped=%llu\n\n",
        static_cast<unsigned long long>(stats_.puts.load()),
        static_cast<unsigned long long>(stats_.gets.load()),
        static_cast<unsigned long long>(stats_.removes.load()),
        static_cast<unsigned long long>(stats_.get_misses.load()),
        static_cast<unsigned long long>(stats_.failures.load()),
        human_bytes(stats_.policy_bytes.load()).c_str(),
        static_cast<unsigned long long>(stats_.policy_objects.load()),
        static_cast<unsigned long long>(FlightRecorder::global().dropped()));
    out += line;
  }

  if (want("tiers")) {
    std::snprintf(line, sizeof(line), "%-14s %10s %10s %7s %8s %9s\n", "TIER",
                  "USED", "CAP", "FILL", "OBJECTS", "BREAKER");
    out += line;
    for (const auto& entry : tier_snapshot()) {
      // Plain tiers have no breaker to report; "n/a" keeps the column honest
      // (and aligned) instead of claiming a permanently closed breaker.
      const std::string breaker =
          entry.tier->has_breaker()
              ? std::string(to_string(entry.tier->breaker_state()))
              : "n/a";
      std::snprintf(line, sizeof(line), "%-14s %10s %10s %6.1f%% %8zu %9s\n",
                    entry.label.c_str(),
                    human_bytes(entry.tier->used()).c_str(),
                    human_bytes(entry.tier->capacity()).c_str(),
                    entry.tier->fill_fraction() * 100.0,
                    entry.tier->object_count(), breaker.c_str());
      out += line;
    }
  }

  const std::vector<SloStatus> slos =
      want("slo") ? slo_.status() : std::vector<SloStatus>{};
  if (!slos.empty()) {
    out += '\n';
    std::snprintf(line, sizeof(line),
                  "%-18s %-10s %10s %10s %8s %8s %8s %9s %5s\n", "SLO", "TIER",
                  "TARGET", "CURRENT", "WINDOW", "BURN-S", "BURN-L", "STATE",
                  "VIOL");
    out += line;
    for (const auto& s : slos) {
      char target_buf[32];
      char current_buf[32];
      if (s.is_latency) {
        std::snprintf(target_buf, sizeof(target_buf), "%.2fms", s.target);
        std::snprintf(current_buf, sizeof(current_buf), "%.2fms", s.current);
      } else {
        std::snprintf(target_buf, sizeof(target_buf), "%.2f%%",
                      s.target * 100.0);
        std::snprintf(current_buf, sizeof(current_buf), "%.2f%%",
                      s.current * 100.0);
      }
      std::snprintf(line, sizeof(line),
                    "%-18s %-10s %10s %10s %7.0fs %8.2f %8.2f %9s %5llu\n",
                    s.name.c_str(), s.tier.empty() ? "-" : s.tier.c_str(),
                    target_buf, current_buf, s.window_s, s.burn_short,
                    s.burn_long, s.violated ? "VIOLATED" : "ok",
                    static_cast<unsigned long long>(s.violations));
      out += line;
    }
  }

  if (want("rules")) {
    out += '\n';
    std::snprintf(line, sizeof(line),
                  "%4s %-16s %8s %5s %8s %8s %10s %8s  %s\n", "RULE", "NAME",
                  "FIRES", "ERR", "P50ms", "P99ms", "BYTES", "OBJ", "EVENT");
    out += line;
    for (const auto& r : control_->rule_activity()) {
      std::snprintf(line, sizeof(line),
                    "%4llu %-16s %8llu %5llu %8.2f %8.2f %10s %8llu  %s\n",
                    static_cast<unsigned long long>(r.id),
                    (r.name.empty() ? "-" : r.name).c_str(),
                    static_cast<unsigned long long>(r.fires),
                    static_cast<unsigned long long>(r.errors), r.p50_ms,
                    r.p99_ms, human_bytes(r.bytes_moved).c_str(),
                    static_cast<unsigned long long>(r.objects_touched),
                    r.event.c_str());
      out += line;
      if (!r.last_error.empty()) {
        std::snprintf(line, sizeof(line), "     last error: %s\n",
                      r.last_error.c_str());
        out += line;
      }
    }
  }

  if (want("heat") && heat_) {
    const HeatSnapshot snap = heat_->snapshot(/*top_n=*/10);
    out += '\n';
    std::snprintf(line, sizeof(line),
                  "HEAT  half-life=%.0fs epochs=%llu mem=%s\n",
                  snap.half_life_s,
                  static_cast<unsigned long long>(snap.decay_epochs),
                  human_bytes(snap.memory_bytes).c_str());
    out += line;
    std::snprintf(line, sizeof(line), "%-14s %-28s %10s %10s\n", "TIER", "KEY",
                  "EST", "RATE/S");
    out += line;
    for (const auto& tier : snap.tiers) {
      for (const auto& hot : tier.top) {
        std::snprintf(line, sizeof(line), "%-14s %-28s %10llu %10.2f\n",
                      tier.tier.c_str(), hot.key.c_str(),
                      static_cast<unsigned long long>(hot.estimate),
                      hot.rate_per_s);
        out += line;
      }
      std::snprintf(
          line, sizeof(line),
          "%-14s tracked=%llu records=%llu bytes=%s evictions=%llu\n",
          tier.tier.c_str(), static_cast<unsigned long long>(tier.tracked_keys),
          static_cast<unsigned long long>(tier.records),
          human_bytes(tier.bytes).c_str(),
          static_cast<unsigned long long>(tier.evictions));
      out += line;
    }
  }

  if (want("cost") && cost_) {
    const CostSnapshot snap = cost_->snapshot();
    out += '\n';
    std::snprintf(line, sizeof(line),
                  "COST  total=$%.4f burn=$%.2f/mo modelled=%.0fs\n",
                  snap.total_dollars, snap.monthly_burn_dollars,
                  snap.modelled_seconds);
    out += line;
    std::snprintf(line, sizeof(line), "%-14s %10s %10s %10s %10s %10s %10s\n",
                  "TIER", "STORAGE$", "REQUEST$", "EGRESS$", "BURN$/MO",
                  "READ", "WRITE");
    out += line;
    for (const auto& tier : snap.tiers) {
      std::snprintf(line, sizeof(line),
                    "%-14s %10.4f %10.4f %10.4f %10.2f %10s %10s\n",
                    tier.tier.c_str(), tier.storage_dollars,
                    tier.request_dollars, tier.egress_dollars,
                    tier.monthly_burn_dollars,
                    human_bytes(tier.client_read_bytes).c_str(),
                    human_bytes(tier.client_write_bytes).c_str());
      out += line;
    }
    if (!snap.rules.empty()) {
      std::snprintf(line, sizeof(line), "%4s %-16s %10s %8s %10s\n", "RULE",
                    "NAME", "BYTES", "OBJ", "$");
      out += line;
      for (const auto& rule : snap.rules) {
        std::snprintf(line, sizeof(line), "%4llu %-16s %10s %8llu %10.6f\n",
                      static_cast<unsigned long long>(rule.rule_id),
                      (rule.rule_name.empty() ? "-" : rule.rule_name).c_str(),
                      human_bytes(rule.bytes_moved).c_str(),
                      static_cast<unsigned long long>(rule.objects_moved),
                      rule.dollars);
        out += line;
      }
    }
  }

  // Pool saturation (every PoolMetrics-bound pool in the process).
  if (want("pool")) {
    const std::string pools = render_pool_table();
    if (!pools.empty()) {
      out += '\n';
      out += pools;
    }
  }

  // Overload front door: shed level, pressure signals and per-tenant
  // admitted/shed/throttled counts (only when a server wired a controller).
  const AdmissionController* admission =
      admission_view_.load(std::memory_order_acquire);
  if (want("admission") && admission != nullptr) {
    const AdmissionController::Snapshot snap = admission->snapshot();
    static constexpr const char* kLevelNames[] = {
        "?", "shed-reads", "shed-writes", "shed-background", "none"};
    const int level =
        snap.shed_level >= 1 && snap.shed_level <= 4 ? snap.shed_level : 0;
    out += '\n';
    std::snprintf(line, sizeof(line),
                  "ADMISSION  %s shedding=%s burn=%.2f inflight=%.0f%% "
                  "admitted=%llu shed=%llu throttled=%llu\n",
                  snap.enabled ? "enabled" : "disabled", kLevelNames[level],
                  snap.burn_short, snap.inflight_fraction * 100.0,
                  static_cast<unsigned long long>(snap.admitted),
                  static_cast<unsigned long long>(snap.shed),
                  static_cast<unsigned long long>(snap.throttled));
    out += line;
    if (!snap.tenants.empty()) {
      std::snprintf(line, sizeof(line), "%-20s %10s %10s %10s\n", "TENANT",
                    "ADMITTED", "SHED", "THROTTLED");
      out += line;
      for (const auto& tenant : snap.tenants) {
        std::snprintf(line, sizeof(line), "%-20s %10llu %10llu %10llu\n",
                      tenant.tenant.c_str(),
                      static_cast<unsigned long long>(tenant.admitted),
                      static_cast<unsigned long long>(tenant.shed),
                      static_cast<unsigned long long>(tenant.throttled));
        out += line;
      }
    }
  }
  return out;
}

void TieraInstance::tick_observability(Duration modelled_elapsed) {
  if (heat_) heat_->on_tick(modelled_elapsed);
  if (cost_) {
    std::vector<TierUsage> usage;
    const auto snapshot = tier_snapshot();
    usage.reserve(snapshot.size());
    for (const auto& entry : snapshot) {
      const TierStats& s = entry.tier->stats();
      usage.push_back({entry.label, entry.tier->used(),
                       entry.tier->capacity(),
                       s.puts.load(std::memory_order_relaxed),
                       s.gets.load(std::memory_order_relaxed),
                       s.removes.load(std::memory_order_relaxed)});
    }
    cost_->accrue(usage, modelled_elapsed);
  }
}

double TieraInstance::monthly_cost(double observed_seconds) const {
  return CostModel::total_monthly_cost(tiers(), observed_seconds);
}

std::vector<TierCost> TieraInstance::cost_breakdown(
    double observed_seconds) const {
  return CostModel::cost_breakdown(tiers(), observed_seconds);
}

}  // namespace tiera
