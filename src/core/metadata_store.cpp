#include "core/metadata_store.h"

#include <algorithm>
#include <array>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/stage.h"

namespace tiera {

namespace {

// Journal keys are "obj/<id>".
constexpr std::string_view kDbPrefix = "obj/";

std::string db_key(std::string_view id) {
  std::string key;
  key.reserve(kDbPrefix.size() + id.size());
  key.append(kDbPrefix).append(id);
  return key;
}

// Open commit scopes on this thread, innermost first (linked by outer_).
thread_local MetadataStore::CommitScope* t_scopes = nullptr;

}  // namespace

MetadataStore::CommitScope::CommitScope(MetadataStore& store)
    : store_(store), joined_(store.active_scope() != nullptr) {
  if (!joined_) {
    outer_ = t_scopes;
    t_scopes = this;
  }
}

MetadataStore::CommitScope::~CommitScope() { (void)finish(); }

Status MetadataStore::CommitScope::finish() {
  if (joined_ || !open_) return Status::Ok();
  open_ = false;
  t_scopes = outer_;
  return store_.commit_now(max_seq_);
}

MetadataStore::CommitScope* MetadataStore::active_scope() {
  for (CommitScope* scope = t_scopes; scope; scope = scope->outer_) {
    if (&scope->store_ == this) return scope;
  }
  return nullptr;
}

Status MetadataStore::commit_staged() {
  CommitScope* scope = active_scope();
  if (!db_ || !scope || scope->max_seq_ == 0) return Status::Ok();
  return db_->commit(scope->max_seq_);
}

MetadataStore::Shard& MetadataStore::shard_for(std::string_view id) {
  return shards_[fnv1a64(id) % kShards];
}

const MetadataStore::Shard& MetadataStore::shard_for(
    std::string_view id) const {
  return shards_[fnv1a64(id) % kShards];
}

Status MetadataStore::open(std::string path, const MetaDbOptions& options,
                           const std::vector<std::string>& volatile_tiers) {
  // Keep only each id's latest value during replay and decode it once
  // afterwards, not once per superseded record.
  std::unordered_map<std::string, Bytes> latest;
  auto db = MetaDb::open(
      std::move(path), options,
      [&latest](std::string_view key, bool live, ByteView value) {
        if (!key.starts_with(kDbPrefix)) return;
        std::string id(key.substr(kDbPrefix.size()));
        if (live) {
          latest[std::move(id)].assign(value.begin(), value.end());
        } else {
          latest.erase(id);
        }
      });
  if (!db.ok()) return db.status();
  db_ = std::move(db).value();

  std::uint64_t live_bytes = 0;
  for (const auto& [id, value] : latest) {
    Result<ObjectMeta> meta = ObjectMeta::decode(as_view(value));
    if (!meta.ok()) return meta.status();
    const std::uint32_t record_bytes =
        MetaDb::record_bytes(kDbPrefix.size() + id.size(), value.size());
    live_bytes += record_bytes;
    for (const auto& tier : volatile_tiers) meta->locations.erase(tier);
    // Rebuild recency and content indexes (recency order is not restored;
    // good enough after a restart, the lists re-sort themselves with use).
    for (const auto& tier : meta->locations) touch_in_tier(tier, id);
    if (!meta->content_hash.empty()) add_content_ref(meta->content_hash, id);
    Shard& shard = shard_for(id);
    std::lock_guard lock(shard.mu);
    shard.map[id] = Entry{std::move(meta).value(), record_bytes};
  }
  dead_bytes_.store(db_->log_bytes() - live_bytes, std::memory_order_relaxed);
  return Status::Ok();
}

std::uint64_t MetadataStore::stage_put_locked(Entry& entry) {
  if (!db_) return 0;
  const std::string key = db_key(entry.meta.id);
  const Bytes value = entry.meta.encode();
  dead_bytes_.fetch_add(entry.record_bytes, std::memory_order_relaxed);
  entry.record_bytes = MetaDb::record_bytes(key.size(), value.size());
  return db_->stage_put(key, as_view(value));
}

std::uint64_t MetadataStore::stage_erase_locked(const Entry& entry) {
  if (!db_) return 0;
  const std::string key = db_key(entry.meta.id);
  // The erased record and the tombstone itself are both dead.
  dead_bytes_.fetch_add(
      entry.record_bytes + MetaDb::record_bytes(key.size(), 0),
      std::memory_order_relaxed);
  return db_->stage_erase(key);
}

Status MetadataStore::commit(std::uint64_t seq) {
  if (CommitScope* scope = active_scope()) {
    scope->max_seq_ = std::max(scope->max_seq_, seq);
    return Status::Ok();
  }
  return commit_now(seq);
}

Status MetadataStore::commit_now(std::uint64_t seq) {
  if (!db_ || seq == 0) return Status::Ok();
  TIERA_RETURN_IF_ERROR(db_->commit(seq));
  if (db_->wants_compaction(dead_bytes_.load(std::memory_order_relaxed))) {
    return compact();
  }
  return Status::Ok();
}

Status MetadataStore::compact() {
  std::array<std::unique_lock<std::mutex>, kShards> locks;
  for (std::size_t i = 0; i < kShards; ++i) {
    locks[i] = std::unique_lock(shards_[i].mu);
  }
  // Another committer may have compacted while this one waited.
  if (!db_->wants_compaction(dead_bytes_.load(std::memory_order_relaxed))) {
    return Status::Ok();
  }
  TIERA_RETURN_IF_ERROR(db_->compact([this](const MetaDb::LiveVisitor& visit) {
    for (auto& shard : shards_) {
      for (auto& [id, entry] : shard.map) {
        const std::string key = db_key(id);
        const Bytes value = entry.meta.encode();
        entry.record_bytes = MetaDb::record_bytes(key.size(), value.size());
        visit(key, as_view(value));
      }
    }
  }));
  dead_bytes_.store(0, std::memory_order_relaxed);
  return Status::Ok();
}

std::optional<ObjectMeta> MetadataStore::get(std::string_view id) const {
  StageTimer stage(Stage::kMetadataLookup);
  const Shard& shard = shard_for(id);
  std::lock_guard lock(shard.mu);
  auto it = shard.map.find(std::string(id));
  if (it == shard.map.end()) return std::nullopt;
  return it->second.meta;
}

bool MetadataStore::contains(std::string_view id) const {
  StageTimer stage(Stage::kMetadataLookup);
  const Shard& shard = shard_for(id);
  std::lock_guard lock(shard.mu);
  return shard.map.count(std::string(id)) > 0;
}

Status MetadataStore::put(const ObjectMeta& meta) {
  StageTimer stage(Stage::kMetadataLookup);
  Shard& shard = shard_for(meta.id);
  std::uint64_t seq = 0;
  {
    std::lock_guard lock(shard.mu);
    Entry& entry = shard.map[meta.id];
    entry.meta = meta;
    seq = stage_put_locked(entry);
  }
  return commit(seq);
}

Status MetadataStore::update(std::string_view id,
                             const std::function<bool(ObjectMeta&)>& fn) {
  StageTimer stage(Stage::kMetadataLookup);
  Shard& shard = shard_for(id);
  std::uint64_t seq = 0;
  {
    std::lock_guard lock(shard.mu);
    auto it = shard.map.find(std::string(id));
    if (it == shard.map.end()) return Status::NotFound("object metadata");
    if (!fn(it->second.meta)) return Status::Ok();
    seq = stage_put_locked(it->second);
  }
  return commit(seq);
}

Status MetadataStore::erase(std::string_view id) {
  StageTimer stage(Stage::kMetadataLookup);
  Shard& shard = shard_for(id);
  std::uint64_t seq = 0;
  {
    std::lock_guard lock(shard.mu);
    auto it = shard.map.find(std::string(id));
    if (it == shard.map.end()) return Status::NotFound("object metadata");
    seq = stage_erase_locked(it->second);
    shard.map.erase(it);
  }
  return commit(seq);
}

void MetadataStore::note_access(std::string_view id, TimePoint when) {
  StageTimer stage(Stage::kMetadataLookup);
  Shard& shard = shard_for(id);
  std::lock_guard lock(shard.mu);
  auto it = shard.map.find(std::string(id));
  if (it == shard.map.end()) return;
  it->second.meta.access_count += 1;
  it->second.meta.last_access = when;
}

std::size_t MetadataStore::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard.mu);
    n += shard.map.size();
  }
  return n;
}

void MetadataStore::for_each(
    const std::function<void(const ObjectMeta&)>& fn) const {
  StageTimer stage(Stage::kMetadataLookup);
  for (const auto& shard : shards_) {
    std::vector<ObjectMeta> snapshot;
    {
      std::lock_guard lock(shard.mu);
      snapshot.reserve(shard.map.size());
      for (const auto& [id, entry] : shard.map) snapshot.push_back(entry.meta);
    }
    for (const auto& meta : snapshot) fn(meta);
  }
}

std::vector<std::string> MetadataStore::select(
    const std::function<bool(const ObjectMeta&)>& pred) const {
  std::vector<std::string> ids;
  for_each([&](const ObjectMeta& meta) {
    if (pred(meta)) ids.push_back(meta.id);
  });
  return ids;
}

void MetadataStore::touch_in_tier(std::string_view tier, std::string_view id) {
  StageTimer stage(Stage::kMetadataLookup);
  std::lock_guard lock(lru_mu_);
  TierLru& lru = tier_lru_[std::string(tier)];
  auto it = lru.pos.find(std::string(id));
  if (it != lru.pos.end()) {
    lru.order.splice(lru.order.begin(), lru.order, it->second);
  } else {
    lru.order.emplace_front(id);
    lru.pos[std::string(id)] = lru.order.begin();
  }
}

void MetadataStore::remove_from_tier(std::string_view tier,
                                     std::string_view id) {
  StageTimer stage(Stage::kMetadataLookup);
  std::lock_guard lock(lru_mu_);
  auto lit = tier_lru_.find(std::string(tier));
  if (lit == tier_lru_.end()) return;
  auto it = lit->second.pos.find(std::string(id));
  if (it == lit->second.pos.end()) return;
  lit->second.order.erase(it->second);
  lit->second.pos.erase(it);
}

void MetadataStore::drop_tier(std::string_view tier) {
  std::lock_guard lock(lru_mu_);
  tier_lru_.erase(std::string(tier));
}

std::optional<std::string> MetadataStore::oldest_in_tier(
    std::string_view tier, std::string_view excluding) const {
  std::lock_guard lock(lru_mu_);
  auto it = tier_lru_.find(std::string(tier));
  if (it == tier_lru_.end()) return std::nullopt;
  for (auto rit = it->second.order.rbegin(); rit != it->second.order.rend();
       ++rit) {
    if (*rit != excluding) return *rit;
  }
  return std::nullopt;
}

std::optional<std::string> MetadataStore::newest_in_tier(
    std::string_view tier, std::string_view excluding) const {
  std::lock_guard lock(lru_mu_);
  auto it = tier_lru_.find(std::string(tier));
  if (it == tier_lru_.end()) return std::nullopt;
  for (const auto& id : it->second.order) {
    if (id != excluding) return id;
  }
  return std::nullopt;
}

std::size_t MetadataStore::count_in_tier(std::string_view tier) const {
  std::lock_guard lock(lru_mu_);
  auto it = tier_lru_.find(std::string(tier));
  return it == tier_lru_.end() ? 0 : it->second.order.size();
}

bool MetadataStore::add_content_ref(std::string_view hash,
                                    std::string_view id) {
  std::lock_guard lock(content_mu_);
  auto& refs = content_refs_[std::string(hash)];
  const bool first = refs.empty();
  refs.insert(std::string(id));
  return first;
}

bool MetadataStore::drop_content_ref(std::string_view hash,
                                     std::string_view id) {
  std::lock_guard lock(content_mu_);
  auto it = content_refs_.find(std::string(hash));
  if (it == content_refs_.end()) return false;
  it->second.erase(std::string(id));
  if (it->second.empty()) {
    content_refs_.erase(it);
    return true;
  }
  return false;
}

std::size_t MetadataStore::content_ref_count(std::string_view hash) const {
  std::lock_guard lock(content_mu_);
  auto it = content_refs_.find(std::string(hash));
  return it == content_refs_.end() ? 0 : it->second.size();
}

std::vector<std::string> MetadataStore::content_ref_ids(
    std::string_view hash) const {
  std::lock_guard lock(content_mu_);
  auto it = content_refs_.find(std::string(hash));
  if (it == content_refs_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

}  // namespace tiera
