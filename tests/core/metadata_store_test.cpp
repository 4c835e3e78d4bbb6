#include "core/metadata_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "test_util.h"

namespace tiera {
namespace {

using testing::TempDir;

ObjectMeta make_meta(const std::string& id, std::uint64_t size = 100) {
  ObjectMeta m;
  m.id = id;
  m.size = size;
  m.created = m.last_access = now();
  return m;
}

TEST(ObjectMetaTest, EncodeDecodeRoundTrip) {
  ObjectMeta m = make_meta("object-1", 4096);
  m.access_count = 17;
  m.dirty = true;
  m.locations = {"tier1", "tier3"};
  m.tags = {"tmp", "db"};
  m.compressed = true;
  m.encrypted = true;
  m.content_hash = "abc123";
  auto decoded = ObjectMeta::decode(as_view(m.encode()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->id, m.id);
  EXPECT_EQ(decoded->size, m.size);
  EXPECT_EQ(decoded->access_count, m.access_count);
  EXPECT_EQ(decoded->dirty, m.dirty);
  EXPECT_EQ(decoded->locations, m.locations);
  EXPECT_EQ(decoded->tags, m.tags);
  EXPECT_EQ(decoded->compressed, m.compressed);
  EXPECT_EQ(decoded->encrypted, m.encrypted);
  EXPECT_EQ(decoded->content_hash, m.content_hash);
  EXPECT_EQ(decoded->last_access, m.last_access);
}

TEST(ObjectMetaTest, DecodeRejectsTruncated) {
  const Bytes encoded = make_meta("x").encode();
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                          encoded.size() / 2}) {
    auto r = ObjectMeta::decode(ByteView(encoded.data(), cut));
    EXPECT_FALSE(r.ok()) << cut;
  }
}

TEST(ObjectMetaTest, StorageKeyUsesContentHashWhenSet) {
  ObjectMeta m = make_meta("id");
  EXPECT_EQ(m.storage_key(), "id");
  m.content_hash = "deadbeef";
  EXPECT_EQ(m.storage_key(), "cas:deadbeef");
}

TEST(MetadataStoreTest, CrudAndSelect) {
  MetadataStore store;
  ASSERT_TRUE(store.put(make_meta("a")).ok());
  ASSERT_TRUE(store.put(make_meta("b")).ok());
  EXPECT_TRUE(store.contains("a"));
  EXPECT_EQ(store.size(), 2u);
  ASSERT_TRUE(store.update("a", [](ObjectMeta& m) {
    m.dirty = true;
    return true;
  }).ok());
  EXPECT_TRUE(store.get("a")->dirty);
  const auto dirty =
      store.select([](const ObjectMeta& m) { return m.dirty; });
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], "a");
  ASSERT_TRUE(store.erase("a").ok());
  EXPECT_FALSE(store.contains("a"));
  EXPECT_TRUE(store.erase("a").is_not_found());
  EXPECT_TRUE(store.update("a", [](ObjectMeta&) { return true; })
                  .is_not_found());
}

TEST(MetadataStoreTest, UpdateAbortKeepsOldValue) {
  MetadataStore store;
  ASSERT_TRUE(store.put(make_meta("a", 1)).ok());
  ASSERT_TRUE(store.update("a", [](ObjectMeta& m) {
    m.size = 999;
    return false;  // abort
  }).ok());
  // The mutation ran on the stored record but was not persisted; for the
  // in-memory map the contract is "fn returning false skips persistence".
  EXPECT_TRUE(store.contains("a"));
}

TEST(MetadataStoreTest, TierLruOrdering) {
  MetadataStore store;
  store.touch_in_tier("t", "a");
  store.touch_in_tier("t", "b");
  store.touch_in_tier("t", "c");
  EXPECT_EQ(*store.oldest_in_tier("t"), "a");
  EXPECT_EQ(*store.newest_in_tier("t"), "c");
  store.touch_in_tier("t", "a");  // refresh
  EXPECT_EQ(*store.oldest_in_tier("t"), "b");
  EXPECT_EQ(*store.newest_in_tier("t"), "a");
  store.remove_from_tier("t", "b");
  EXPECT_EQ(*store.oldest_in_tier("t"), "c");
  EXPECT_EQ(store.count_in_tier("t"), 2u);
  store.drop_tier("t");
  EXPECT_FALSE(store.oldest_in_tier("t").has_value());
}

TEST(MetadataStoreTest, EmptyTierHasNoExtremes) {
  MetadataStore store;
  EXPECT_FALSE(store.oldest_in_tier("none").has_value());
  EXPECT_FALSE(store.newest_in_tier("none").has_value());
  EXPECT_EQ(store.count_in_tier("none"), 0u);
}

TEST(MetadataStoreTest, ContentRefCounting) {
  MetadataStore store;
  EXPECT_TRUE(store.add_content_ref("h1", "a"));   // first ref
  EXPECT_FALSE(store.add_content_ref("h1", "b"));  // duplicate content
  EXPECT_EQ(store.content_ref_count("h1"), 2u);
  EXPECT_FALSE(store.drop_content_ref("h1", "a"));  // one ref remains
  EXPECT_TRUE(store.drop_content_ref("h1", "b"));   // last ref
  EXPECT_EQ(store.content_ref_count("h1"), 0u);
  EXPECT_FALSE(store.drop_content_ref("h1", "ghost"));
}

TEST(MetadataStoreTest, PersistsThroughMetaDb) {
  TempDir dir;
  {
    MetadataStore store;
    ASSERT_TRUE(store.open(dir.sub("meta"), {}).ok());
    ObjectMeta m = make_meta("persisted", 512);
    m.locations = {"tier1"};
    m.tags = {"keep"};
    m.content_hash = "h42";
    ASSERT_TRUE(store.put(m).ok());
    ASSERT_TRUE(store.put(make_meta("dropped")).ok());
    ASSERT_TRUE(store.erase("dropped").ok());
  }
  MetadataStore store;
  ASSERT_TRUE(store.open(dir.sub("meta"), {}).ok());
  EXPECT_EQ(store.size(), 1u);
  const auto m = store.get("persisted");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->size, 512u);
  EXPECT_TRUE(m->in_tier("tier1"));
  EXPECT_TRUE(m->has_tag("keep"));
  // Recovery rebuilds the recency and content indexes.
  EXPECT_EQ(*store.oldest_in_tier("tier1"), "persisted");
  EXPECT_EQ(store.content_ref_count("h42"), 1u);
}

// The journal must hold each id's records in the order the map changed:
// two writers updating one id (a GET's access count next to a background
// move's location change, say) must replay to the state in memory.
TEST(MetadataStoreTest, ConcurrentUpdatesReplayToInMemoryState) {
  constexpr int kUpdates = 2000;
  TempDir dir;
  const std::string path = dir.sub("meta");
  Bytes in_memory;
  {
    MetadataStore store;
    ASSERT_TRUE(store.open(path, {}).ok());
    ASSERT_TRUE(store.put(make_meta("hot")).ok());
    std::vector<std::thread> writers;
    for (int t = 0; t < 2; ++t) {
      writers.emplace_back([&store, t] {
        for (int i = 0; i < kUpdates; ++i) {
          ASSERT_TRUE(store.update("hot", [&](ObjectMeta& m) {
            m.access_count += 1;
            // Each writer swaps in a distinct tag or location per update
            // (records stay small, so the journal never compacts here).
            if (t == 0) {
              m.tags.erase("tag" + std::to_string(i - 1));
              m.tags.insert("tag" + std::to_string(i));
            } else {
              m.locations.erase("tier" + std::to_string(i - 1));
              m.locations.insert("tier" + std::to_string(i));
            }
            return true;
          }).ok());
        }
      });
    }
    for (auto& w : writers) w.join();
    const auto meta = store.get("hot");
    ASSERT_TRUE(meta.has_value());
    EXPECT_EQ(meta->access_count, 2u * kUpdates);
    in_memory = meta->encode();
  }
  // Every update bumped access_count under the shard lock, so the journal
  // must hold the counts 0, 1, 2, ... in that order.
  std::vector<std::uint64_t> counts;
  {
    auto db = MetaDb::open(path, {}, [&](std::string_view, bool live,
                                         ByteView value) {
      ASSERT_TRUE(live);
      auto meta = ObjectMeta::decode(value);
      ASSERT_TRUE(meta.ok());
      counts.push_back(meta->access_count);
    });
    ASSERT_TRUE(db.ok());
  }
  ASSERT_EQ(counts.size(), 2u * kUpdates + 1);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    ASSERT_EQ(counts[i], i) << "journal order differs from memory order";
  }
  MetadataStore store;
  ASSERT_TRUE(store.open(path, {}).ok());
  const auto recovered = store.get("hot");
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->encode(), in_memory);
}

// Rewriting the journal from the maps keeps every record, and a store
// reopened on the compacted log sees the same objects.
TEST(MetadataStoreTest, CompactionRewritesJournalFromMaps) {
  TempDir dir;
  const std::string path = dir.sub("meta");
  std::map<std::string, Bytes> in_memory;
  std::uint64_t compactions_before = 0;
  Counter& compactions =
      MetricsRegistry::global().counter("tiera_metadb_compactions_total");
  {
    MetadataStore store;
    ASSERT_TRUE(store.open(path, {}).ok());
    compactions_before = compactions.value();
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(store.put(make_meta("o" + std::to_string(i))).ok());
    }
    // ~3 MB of updates on 100 objects: the journal passes 1 MiB mostly dead.
    for (int round = 0; round < 300; ++round) {
      for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(store.update("o" + std::to_string(i), [&](ObjectMeta& m) {
          m.access_count = static_cast<std::uint64_t>(round);
          m.tags = {std::string(40, 'a' + round % 26)};
          return true;
        }).ok());
      }
    }
    EXPECT_GT(compactions.value(), compactions_before);
    EXPECT_LT(store.db()->log_bytes(), 2u << 20);
    EXPECT_EQ(std::filesystem::file_size(path), store.db()->log_bytes());
    store.for_each([&](const ObjectMeta& m) { in_memory[m.id] = m.encode(); });
  }
  MetadataStore store;
  ASSERT_TRUE(store.open(path, {}).ok());
  std::map<std::string, Bytes> recovered;
  store.for_each([&](const ObjectMeta& m) { recovered[m.id] = m.encode(); });
  EXPECT_EQ(recovered, in_memory);
}

TEST(MetadataStoreTest, ConcurrentTouchAndSelect) {
  MetadataStore store;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.put(make_meta("o" + std::to_string(i))).ok());
  }
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  threads.emplace_back([&] {
    while (!stop.load()) {
      (void)store.select([](const ObjectMeta&) { return true; });
    }
  });
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 5000; ++i) {
        const std::string id = "o" + std::to_string((i * 7 + t) % 100);
        store.touch_in_tier("t", id);
        (void)store.update(id, [](ObjectMeta& m) {
          m.access_count++;
          return true;
        });
      }
    });
  }
  for (std::size_t i = 1; i < threads.size(); ++i) threads[i].join();
  stop.store(true);
  threads[0].join();
  EXPECT_EQ(store.count_in_tier("t"), 100u);
}

// A commit scope stages every write as usual but waits once, at finish();
// a scope opened inside another for the same store joins it.
TEST(MetadataStoreTest, CommitScopeFoldsWritesIntoOneCommit) {
  TempDir dir;
  MetaDbOptions options;
  options.sync_every_write = true;
  MetadataStore store;
  ASSERT_TRUE(store.open(dir.sub("meta"), options).ok());
  {
    MetadataStore::CommitScope outer(store);
    ASSERT_TRUE(store.put(make_meta("a")).ok());
    ASSERT_TRUE(store.update("a", [](ObjectMeta& m) {
      m.locations = {"tier1"};
      return true;
    }).ok());
    {
      MetadataStore::CommitScope inner(store);
      ASSERT_TRUE(store.put(make_meta("b")).ok());
      ASSERT_TRUE(inner.finish().ok());  // joined: the outer scope commits
    }
    // All three are staged and none is flushed yet.
    EXPECT_EQ(store.db()->journal_stats().records, 0u);
    EXPECT_EQ(store.db()->journal_stats().fsyncs, 0u);
    ASSERT_TRUE(outer.finish().ok());
    EXPECT_EQ(store.db()->journal_pending(), 0u);
    EXPECT_EQ(store.db()->journal_stats().records, 3u);
    EXPECT_EQ(store.db()->journal_stats().fsyncs, 1u);
  }
  // Outside a scope every write waits for its own commit again.
  ASSERT_TRUE(store.erase("b").ok());
  EXPECT_EQ(store.db()->journal_pending(), 0u);
  EXPECT_EQ(store.db()->journal_stats().fsyncs, 2u);
}

TEST(MetadataStoreTest, CommitStagedWaitsAndKeepsScopeOpen) {
  TempDir dir;
  MetadataStore store;
  ASSERT_TRUE(store.open(dir.sub("meta"), {}).ok());
  ASSERT_TRUE(store.commit_staged().ok());  // no scope: nothing to do
  MetadataStore::CommitScope scope(store);
  ASSERT_TRUE(store.put(make_meta("a")).ok());
  ASSERT_TRUE(store.commit_staged().ok());
  EXPECT_EQ(store.db()->journal_pending(), 0u);
  EXPECT_EQ(store.db()->journal_stats().records, 1u);
  ASSERT_TRUE(store.put(make_meta("b")).ok());
  EXPECT_EQ(store.db()->journal_stats().records, 1u);  // b is only staged
  ASSERT_TRUE(scope.finish().ok());
  EXPECT_EQ(store.db()->journal_pending(), 0u);
  EXPECT_EQ(store.db()->journal_stats().records, 2u);
}

// Writes outside any scope (background responses) commit one by one, as
// plain journal committers: concurrent ones still share fsyncs, because a
// leader waits for as many of them as shared the last batch.
TEST(MetadataStoreTest, ConcurrentUnscopedWritesShareFsyncs) {
  TempDir dir;
  MetaDbOptions options;
  options.sync_every_write = true;
  options.journal_batch_wait = std::chrono::milliseconds(1);
  MetadataStore store;
  ASSERT_TRUE(store.open(dir.sub("meta"), options).ok());
  constexpr int kThreads = 8;
  constexpr int kWrites = 40;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kWrites; ++i) {
        EXPECT_TRUE(store.put(make_meta(std::to_string(t) + "-" +
                                        std::to_string(i)))
                        .ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto stats = store.db()->journal_stats();
  EXPECT_EQ(stats.records, kThreads * std::uint64_t(kWrites));
  EXPECT_LT(stats.fsyncs, stats.records / 4);
}

// access_count/last_access are soft: note_access stages nothing, and the
// values reach the journal with the object's next record.
TEST(MetadataStoreTest, NoteAccessStagesNothing) {
  TempDir dir;
  const std::string path = dir.sub("meta");
  {
    MetadataStore store;
    ASSERT_TRUE(store.open(path, {}).ok());
    ASSERT_TRUE(store.put(make_meta("read")).ok());
    ASSERT_TRUE(store.put(make_meta("written")).ok());
    const std::uint64_t log_bytes = store.db()->log_bytes();
    for (int i = 0; i < 3; ++i) {
      store.note_access("read", now());
      store.note_access("written", now());
    }
    store.note_access("absent", now());
    EXPECT_EQ(store.db()->log_bytes(), log_bytes);
    EXPECT_EQ(store.get("read")->access_count, 3u);
    EXPECT_FALSE(store.contains("absent"));
    ASSERT_TRUE(store.update("written", [](ObjectMeta& m) {
      m.tags.insert("t");
      return true;
    }).ok());
  }
  MetadataStore store;
  ASSERT_TRUE(store.open(path, {}).ok());
  EXPECT_EQ(store.get("read")->access_count, 0u);
  EXPECT_EQ(store.get("written")->access_count, 3u);
}

}  // namespace
}  // namespace tiera
