// MetadataStore: the control layer's view of every object.
//
// Mirrors the prototype's BerkeleyDB-backed metadata layer: a sharded
// in-memory map for the hot path plus an optional metadb journal so an
// instance restart recovers object locations. The maps are the only index:
// the journal keeps no copy of any record.
//
// Journal writes: every put/update/erase stages one record; a foreground
// operation wraps its writes in a CommitScope so it waits for one group
// commit in all (a PUT or DELETE), not one per record. access_count and
// last_access are soft state: reads bump them in memory only
// (note_access), they reach the journal with the object's next record or
// the next compaction, and after a crash they may lag. Also maintains:
//   * a per-tier recency list giving O(1) `tierX.oldest` / `tierX.newest`
//     (the selectors behind the paper's LRU/MRU policies, Fig. 5), and
//   * a content-hash reference-count table backing the storeOnce dedup
//     response (Fig. 12).
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/object_meta.h"
#include "metadb/metadb.h"

namespace tiera {

class MetadataStore {
 public:
  // Starts purely in-memory (used by most benches); open() adds the journal.
  MetadataStore() = default;

  // Opens the metadata journal at `path`, replays it straight into the
  // maps and rebuilds the recency and content indexes. Call once, before
  // use. `volatile_tiers` name tiers that restart empty (Memcached): their
  // labels are dropped from every object's locations in memory, so no
  // object lists a copy the restart lost. Nothing is staged for this; the
  // journal sheds the stale label with the object's next record.
  Status open(std::string path, const MetaDbOptions& options,
              const std::vector<std::string>& volatile_tiers = {});

  // Null when metadata is purely in-memory. Exposed so the watchdog can
  // probe journal progress (flushed batches vs staged records).
  MetaDb* db() { return db_.get(); }

  // Folds the journal writes of one operation into a single group commit.
  // While a scope is open on a thread, put/update/erase on that thread for
  // this store stage their records exactly as without one (under the shard
  // lock, so log order = map order) but do not wait; finish() waits once,
  // for the highest sequence number staged, and runs the compaction check
  // once. A scope opened while one for the same store is already open on
  // the thread joins it: its finish() does nothing and the outer scope
  // commits. The destructor finishes a scope the caller did not.
  class CommitScope {
   public:
    explicit CommitScope(MetadataStore& store);
    ~CommitScope();
    CommitScope(const CommitScope&) = delete;
    CommitScope& operator=(const CommitScope&) = delete;

    // Waits for every record staged in the scope and returns the journal
    // error, if any. Later writes on this thread commit per call again.
    Status finish();

   private:
    friend class MetadataStore;
    MetadataStore& store_;
    CommitScope* outer_ = nullptr;  // next open scope on this thread
    bool joined_ = false;
    bool open_ = true;
    std::uint64_t max_seq_ = 0;
  };

  // Waits now for what this thread's open scope has staged so far, leaving
  // the scope open; a no-op outside a scope, where every write already
  // waited. Call before destroying tier bytes that the committed journal
  // may still name as an object's only copy.
  Status commit_staged();

  // --- Object records --------------------------------------------------------
  std::optional<ObjectMeta> get(std::string_view id) const;
  bool contains(std::string_view id) const;

  // Insert or overwrite the full record.
  Status put(const ObjectMeta& meta);

  // Read-modify-write under the shard lock; returns NotFound when absent.
  // `fn` returning false aborts without writing.
  //
  // put/update/erase stage their journal record while still holding the
  // shard lock, so the journal holds each id's records in the order the map
  // changed; they wait for the commit after releasing it.
  Status update(std::string_view id,
                const std::function<bool(ObjectMeta&)>& fn);

  Status erase(std::string_view id);

  // Records a read: bumps access_count and sets last_access in memory under
  // the shard lock, staging nothing (soft state, see the header comment).
  // Absent ids are ignored.
  void note_access(std::string_view id, TimePoint when);

  std::size_t size() const;

  // Snapshot scan (copies records out; cheap at middleware scales).
  void for_each(const std::function<void(const ObjectMeta&)>& fn) const;

  // All ids matching a predicate.
  std::vector<std::string> select(
      const std::function<bool(const ObjectMeta&)>& pred) const;

  // --- Per-tier recency (LRU/MRU selectors) ---------------------------------
  // Record that `id` was inserted into or accessed in `tier` (moves to the
  // most-recent end).
  void touch_in_tier(std::string_view tier, std::string_view id);
  void remove_from_tier(std::string_view tier, std::string_view id);
  void drop_tier(std::string_view tier);

  // `excluding` skips one id (eviction policies must never pick the object
  // whose insertion triggered them — its stale copy may top the LRU list).
  std::optional<std::string> oldest_in_tier(
      std::string_view tier, std::string_view excluding = {}) const;
  std::optional<std::string> newest_in_tier(
      std::string_view tier, std::string_view excluding = {}) const;
  std::size_t count_in_tier(std::string_view tier) const;

  // --- storeOnce content index ----------------------------------------------
  // Registers a reference to `hash` from object `id`. Returns true when this
  // is the first reference (the caller must store the bytes).
  bool add_content_ref(std::string_view hash, std::string_view id);
  // Drops a reference; returns true when it was the last one (the caller
  // should delete the content-addressed bytes).
  bool drop_content_ref(std::string_view hash, std::string_view id);
  std::size_t content_ref_count(std::string_view hash) const;
  std::vector<std::string> content_ref_ids(std::string_view hash) const;

 private:
  static constexpr std::size_t kShards = 16;
  // The map entry: the record itself plus the size of its journal record,
  // which becomes dead log bytes once the entry is overwritten or erased.
  struct Entry {
    ObjectMeta meta;
    std::uint32_t record_bytes = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Entry> map;
  };
  Shard& shard_for(std::string_view id);
  const Shard& shard_for(std::string_view id) const;

  // Journal helpers; the stage_* ones require the entry's shard lock.
  std::uint64_t stage_put_locked(Entry& entry);
  std::uint64_t stage_erase_locked(const Entry& entry);
  // Inside this thread's scope: remembers `seq` for its finish(). Outside:
  // commit_now(seq).
  Status commit(std::uint64_t seq);
  // Waits for `seq`, then compacts if the log is mostly dead.
  Status commit_now(std::uint64_t seq);
  // This thread's innermost open scope for this store, or null.
  CommitScope* active_scope();
  // Rewrites the journal from the maps when it is mostly dead. Takes every
  // shard lock in index order (lock order: shard.mu, then the journal).
  Status compact();

  std::array<Shard, kShards> shards_;

  struct TierLru {
    std::list<std::string> order;  // front = newest
    std::unordered_map<std::string, std::list<std::string>::iterator> pos;
  };
  mutable std::mutex lru_mu_;
  std::unordered_map<std::string, TierLru> tier_lru_;

  mutable std::mutex content_mu_;
  std::unordered_map<std::string, std::set<std::string>> content_refs_;

  std::unique_ptr<MetaDb> db_;
  // Journal bytes no live entry accounts for: superseded records and
  // tombstones. Compared against the log size to trigger compaction.
  std::atomic<std::uint64_t> dead_bytes_{0};
};

}  // namespace tiera
