#include "metadb/metadb.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <utility>
#include <vector>

#include "test_util.h"

namespace tiera {
namespace {

using testing::TempDir;

// A minimal journal owner: MetaDb keeps no records in memory, so each test
// keeps the index itself, the way MetadataStore does.
struct Owner {
  std::map<std::string, Bytes> index;
  std::unique_ptr<MetaDb> db;

  Status open(const std::string& path, MetaDbOptions options = {}) {
    index.clear();
    auto opened = MetaDb::open(
        path, options, [this](std::string_view key, bool live, ByteView value) {
          if (live) {
            index[std::string(key)].assign(value.begin(), value.end());
          } else {
            index.erase(std::string(key));
          }
        });
    if (!opened.ok()) return opened.status();
    db = std::move(opened).value();
    return Status::Ok();
  }

  Status put(std::string_view key, ByteView value) {
    index[std::string(key)].assign(value.begin(), value.end());
    return db->commit(db->stage_put(key, value));
  }
  Status put(std::string_view key, std::string_view value) {
    return put(key, as_view(value));
  }
  Status erase(std::string_view key) {
    if (index.erase(std::string(key)) == 0) {
      return Status::NotFound("metadb key");
    }
    return db->commit(db->stage_erase(key));
  }

  bool contains(std::string_view key) const {
    return index.count(std::string(key)) > 0;
  }
  std::string value(std::string_view key) const {
    return to_string(as_view(index.at(std::string(key))));
  }

  std::uint64_t dead_bytes() const {
    std::uint64_t live = 0;
    for (const auto& [key, value] : index) {
      live += MetaDb::record_bytes(key.size(), value.size());
    }
    return db->log_bytes() - live;
  }

  Status compact() {
    return db->compact([this](const MetaDb::LiveVisitor& visit) {
      for (const auto& [key, value] : index) visit(key, as_view(value));
    });
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Three records in the journal layout, byte by byte: put k1=abc, erase k1,
// put k2="" (u32 crc | u8 type | u32 key_len | u32 value_len | key | value).
const std::string kHandWrittenLog(
    "\x0b\xe9\xe1\x4e" "\x01" "\x02\x00\x00\x00" "\x03\x00\x00\x00" "k1" "abc"
    "\xa5\x2a\x79\xf9" "\x02" "\x02\x00\x00\x00" "\x00\x00\x00\x00" "k1"
    "\xe3\xb7\x57\x56" "\x01" "\x02\x00\x00\x00" "\x00\x00\x00\x00" "k2",
    18 + 15 + 15);

TEST(MetaDbTest, PutGetErase) {
  TempDir dir;
  const std::string path = dir.sub("db");
  {
    Owner owner;
    ASSERT_TRUE(owner.open(path).ok());
    ASSERT_TRUE(owner.put("key", "value").ok());
    ASSERT_TRUE(owner.put("gone", "soon").ok());
    ASSERT_TRUE(owner.erase("gone").ok());
  }
  Owner owner;
  ASSERT_TRUE(owner.open(path).ok());
  EXPECT_EQ(owner.value("key"), "value");
  EXPECT_FALSE(owner.contains("gone"));
}

TEST(MetaDbTest, OverwriteKeepsLatest) {
  TempDir dir;
  const std::string path = dir.sub("db");
  {
    Owner owner;
    ASSERT_TRUE(owner.open(path).ok());
    ASSERT_TRUE(owner.put("k", "v1").ok());
    ASSERT_TRUE(owner.put("k", "v2").ok());
  }
  Owner owner;
  ASSERT_TRUE(owner.open(path).ok());
  EXPECT_EQ(owner.value("k"), "v2");
  EXPECT_EQ(owner.index.size(), 1u);
}

TEST(MetaDbTest, ReplayHandsEveryRecordOverInLogOrder) {
  TempDir dir;
  const std::string path = dir.sub("db");
  {
    Owner owner;
    ASSERT_TRUE(owner.open(path).ok());
    ASSERT_TRUE(owner.put("a", "1").ok());
    ASSERT_TRUE(owner.put("b", "2").ok());
    ASSERT_TRUE(owner.put("a", "3").ok());
    ASSERT_TRUE(owner.erase("b").ok());
    // A tombstone for a key the journal never saw is still just a record.
    ASSERT_TRUE(owner.db->commit(owner.db->stage_erase("ghost")).ok());
  }
  std::vector<std::pair<std::string, std::string>> seen;
  auto db = MetaDb::open(path, {},
                         [&](std::string_view key, bool live, ByteView value) {
                           seen.emplace_back(std::string(key),
                                             live ? to_string(value) : "-");
                         });
  ASSERT_TRUE(db.ok());
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"a", "1"}, {"b", "2"}, {"a", "3"}, {"b", "-"}, {"ghost", "-"}};
  EXPECT_EQ(seen, expected);
}

TEST(MetaDbTest, HandWrittenLogReplaysAndEncodesIdentically) {
  TempDir dir;
  const std::string path = dir.sub("db");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(kHandWrittenLog.data(),
              static_cast<std::streamsize>(kHandWrittenLog.size()));
  }
  Owner owner;
  ASSERT_TRUE(owner.open(path).ok());
  ASSERT_EQ(owner.index.size(), 1u);
  EXPECT_EQ(owner.value("k2"), "");
  EXPECT_EQ(owner.db->log_bytes(), kHandWrittenLog.size());
  EXPECT_EQ(owner.dead_bytes(), 18u + 15u);

  // Writing the same records produces the same bytes.
  const std::string fresh = dir.sub("fresh");
  {
    Owner writer;
    ASSERT_TRUE(writer.open(fresh).ok());
    ASSERT_TRUE(writer.put("k1", "abc").ok());
    ASSERT_TRUE(writer.erase("k1").ok());
    ASSERT_TRUE(writer.put("k2", ByteView{}).ok());
  }
  EXPECT_EQ(read_file(fresh), kHandWrittenLog);
}

TEST(MetaDbTest, PersistsAcrossReopen) {
  TempDir dir;
  const std::string path = dir.sub("db");
  {
    Owner owner;
    ASSERT_TRUE(owner.open(path).ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          owner.put("key" + std::to_string(i), "value" + std::to_string(i))
              .ok());
    }
    ASSERT_TRUE(owner.erase("key50").ok());
  }
  Owner owner;
  ASSERT_TRUE(owner.open(path).ok());
  EXPECT_EQ(owner.index.size(), 99u);
  EXPECT_FALSE(owner.contains("key50"));
  EXPECT_EQ(owner.value("key7"), "value7");
}

TEST(MetaDbTest, RecoversFromTornTail) {
  TempDir dir;
  const std::string path = dir.sub("db");
  {
    Owner owner;
    ASSERT_TRUE(owner.open(path).ok());
    ASSERT_TRUE(owner.put("a", "1").ok());
    ASSERT_TRUE(owner.put("b", "2").ok());
  }
  // Simulate a crash mid-append: chop a few bytes off the tail.
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  ASSERT_FALSE(ec);
  std::filesystem::resize_file(path, size - 3, ec);
  ASSERT_FALSE(ec);

  Owner owner;
  ASSERT_TRUE(owner.open(path).ok());
  EXPECT_TRUE(owner.contains("a"));
  EXPECT_FALSE(owner.contains("b"));  // torn record discarded
  // The torn bytes are gone from disk, and the db stays writable.
  EXPECT_EQ(std::filesystem::file_size(path), owner.db->log_bytes());
  EXPECT_TRUE(owner.put("c", "3").ok());
}

TEST(MetaDbTest, RecoversFromCorruptTail) {
  TempDir dir;
  const std::string path = dir.sub("db");
  {
    Owner owner;
    ASSERT_TRUE(owner.open(path).ok());
    ASSERT_TRUE(owner.put("a", "1").ok());
    ASSERT_TRUE(owner.put("b", "2").ok());
  }
  {
    // Flip a byte inside the second record's payload.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('X');
  }
  Owner owner;
  ASSERT_TRUE(owner.open(path).ok());
  EXPECT_TRUE(owner.contains("a"));
  EXPECT_FALSE(owner.contains("b"));
}

TEST(MetaDbTest, CompactShrinksLogAndPreservesData) {
  TempDir dir;
  const std::string path = dir.sub("db");
  const Bytes big(1000, 0x55);
  {
    Owner owner;
    ASSERT_TRUE(owner.open(path).ok());
    for (int round = 0; round < 50; ++round) {
      ASSERT_TRUE(owner.put("hot", as_view(big)).ok());
    }
    const auto before = owner.db->log_bytes();
    EXPECT_GT(owner.dead_bytes(), 0u);
    ASSERT_TRUE(owner.compact().ok());
    EXPECT_LT(owner.db->log_bytes(), before);
    EXPECT_EQ(owner.dead_bytes(), 0u);
    EXPECT_EQ(std::filesystem::file_size(path), owner.db->log_bytes());
    // Still writable and still durable after compaction.
    ASSERT_TRUE(owner.put("post", "compact").ok());
  }
  Owner owner;
  ASSERT_TRUE(owner.open(path).ok());
  EXPECT_EQ(owner.index.at("hot"), big);
  EXPECT_EQ(owner.value("post"), "compact");
}

TEST(MetaDbTest, AutoCompactionTriggers) {
  TempDir dir;
  Owner owner;
  ASSERT_TRUE(owner.open(dir.sub("db")).ok());
  const Bytes big(10'000, 0x66);
  const std::uint64_t record = MetaDb::record_bytes(3, big.size());
  int compactions = 0;
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(owner.put("hot", as_view(big)).ok());
    if (owner.db->log_bytes() < (1u << 20)) {
      // Below 1 MiB the log is left alone however dead it is.
      EXPECT_FALSE(owner.db->wants_compaction(owner.dead_bytes()));
    }
    if (owner.db->wants_compaction(owner.dead_bytes())) {
      ASSERT_TRUE(owner.compact().ok());
      ++compactions;
    }
  }
  // 2 MB were written; each rewrite starts over from one live record.
  EXPECT_GE(compactions, 1);
  EXPECT_LT(owner.db->log_bytes(), (1u << 20) + record);
  EXPECT_EQ(owner.index.size(), 1u);

  // Past 1 MiB, exactly half dead is not enough: the trigger wants more.
  while (owner.db->log_bytes() < (1u << 20)) {
    ASSERT_TRUE(owner.put("hot", as_view(big)).ok());
  }
  const std::uint64_t half = owner.db->log_bytes() / 2;
  EXPECT_FALSE(owner.db->wants_compaction(half));
  EXPECT_TRUE(owner.db->wants_compaction(half + 1));
}

TEST(MetaDbTest, CompactedLogReopens) {
  TempDir dir;
  const std::string path = dir.sub("db");
  {
    Owner owner;
    ASSERT_TRUE(owner.open(path).ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(owner.put("k" + std::to_string(i % 5), "v").ok());
    }
    ASSERT_TRUE(owner.compact().ok());
  }
  Owner owner;
  ASSERT_TRUE(owner.open(path).ok());
  EXPECT_EQ(owner.index.size(), 5u);
  EXPECT_EQ(owner.dead_bytes(), 0u);
}

TEST(MetaDbTest, SyncEveryWriteMode) {
  TempDir dir;
  MetaDbOptions options;
  options.sync_every_write = true;
  Owner owner;
  ASSERT_TRUE(owner.open(dir.sub("db"), options).ok());
  ASSERT_TRUE(owner.put("k", "v").ok());
  ASSERT_TRUE(owner.db->sync().ok());
  EXPECT_GE(owner.db->journal_stats().fsyncs, 1u);
}

TEST(MetaDbTest, BinaryKeysAndValues) {
  TempDir dir;
  const std::string path = dir.sub("db");
  const Bytes value = {0x00, 0xFF, 0x01, 0x00, 0x7F};
  const std::string key("\x00\x01weird", 7);
  {
    Owner owner;
    ASSERT_TRUE(owner.open(path).ok());
    ASSERT_TRUE(owner.put(key, as_view(value)).ok());
  }
  Owner owner;
  ASSERT_TRUE(owner.open(path).ok());
  ASSERT_TRUE(owner.contains(key));
  EXPECT_EQ(owner.index.at(key), value);
}

TEST(MetaDbTest, EmptyValueAllowed) {
  TempDir dir;
  const std::string path = dir.sub("db");
  {
    Owner owner;
    ASSERT_TRUE(owner.open(path).ok());
    ASSERT_TRUE(owner.put("empty", ByteView{}).ok());
  }
  Owner owner;
  ASSERT_TRUE(owner.open(path).ok());
  ASSERT_TRUE(owner.contains("empty"));
  EXPECT_TRUE(owner.index.at("empty").empty());
}

}  // namespace
}  // namespace tiera
