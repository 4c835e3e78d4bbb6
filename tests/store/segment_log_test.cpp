// The append-only segment log backing the file tiers: replay, torn-tail
// truncation, rolling, compaction, and concurrent read/write safety.
#include "store/segment_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <utility>
#include <vector>
#include <thread>

#include "test_util.h"

namespace tiera {
namespace {

namespace fs = std::filesystem;
using testing::TempDir;

using Index = std::map<std::string, LogLocation>;

Result<std::unique_ptr<SegmentLog>> open_with_index(const std::string& dir,
                                                    Index& index,
                                                    SegmentLogOptions options =
                                                        {}) {
  return SegmentLog::open(
      dir, options,
      [&index](std::string_view key, bool live, const LogLocation& loc) {
        if (live) {
          index[std::string(key)] = loc;
        } else {
          index.erase(std::string(key));
        }
      });
}

TEST(SegmentLogTest, AppendReadRoundTrip) {
  TempDir dir;
  Index index;
  auto log = open_with_index(dir.sub("log"), index);
  ASSERT_TRUE(log.ok());

  const Bytes v1 = make_payload(512, 1);
  auto loc = (*log)->append("a", as_view(v1));
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->length, 512u);
  auto got = (*log)->read(*loc);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, v1);

  // Empty values are legal (zero-length objects exist in the tier tests).
  auto empty = (*log)->append("e", {});
  ASSERT_TRUE(empty.ok());
  auto got_empty = (*log)->read(*empty);
  ASSERT_TRUE(got_empty.ok());
  EXPECT_TRUE(got_empty->empty());
}

TEST(SegmentLogTest, ReplayRebuildsLiveSetAcrossReopen) {
  TempDir dir;
  const std::string path = dir.sub("log");
  {
    Index index;
    auto log = open_with_index(path, index);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->append("a", as_view(make_payload(100, 1))).ok());
    ASSERT_TRUE((*log)->append("b", as_view(make_payload(200, 2))).ok());
    ASSERT_TRUE((*log)->append("a", as_view(make_payload(300, 3))).ok());
    ASSERT_TRUE((*log)->append_tombstone("b").ok());
  }
  Index index;
  auto log = open_with_index(path, index);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(index.size(), 1u);  // b deleted, a overwritten
  auto got = (*log)->read(index["a"]);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, make_payload(300, 3));  // latest generation wins
}

TEST(SegmentLogTest, TornTailIsTruncatedOnReplay) {
  TempDir dir;
  const std::string path = dir.sub("log");
  Index index;
  {
    Index scratch;
    auto log = open_with_index(path, scratch);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->append("good", as_view(make_payload(64, 1))).ok());
  }
  // Simulate a crash mid-append: half a record at the tail.
  const std::string seg = path + "/seg-1.log";
  const auto full_size = fs::file_size(seg);
  {
    std::ofstream out(seg, std::ios::binary | std::ios::app);
    out.write("\x13\x37\x13\x37torn", 8);
  }
  auto log = open_with_index(path, index);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(index.size(), 1u);
  EXPECT_TRUE((*log)->read(index["good"]).ok());
  // The torn bytes are physically gone, so the next append lands cleanly.
  EXPECT_EQ(fs::file_size(seg), full_size);
  ASSERT_TRUE((*log)->append("next", as_view(make_payload(32, 2))).ok());
}

TEST(SegmentLogTest, CorruptRecordStopsReplayAtLastGoodRecord) {
  TempDir dir;
  const std::string path = dir.sub("log");
  {
    Index scratch;
    auto log = open_with_index(path, scratch);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->append("keep", as_view(make_payload(64, 1))).ok());
    ASSERT_TRUE((*log)->append("flip", as_view(make_payload(64, 2))).ok());
  }
  // Flip a byte inside the second record's value: its CRC fails and replay
  // must stop after "keep" (and truncate the bad tail away).
  const std::string seg = path + "/seg-1.log";
  {
    std::fstream f(seg, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-10, std::ios::end);
    f.put('\xFF');
  }
  Index index;
  auto log = open_with_index(path, index);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(index.size(), 1u);
  EXPECT_TRUE(index.count("keep"));
}

TEST(SegmentLogTest, RollsToNewSegmentsAndReplaysInOrder) {
  TempDir dir;
  const std::string path = dir.sub("log");
  SegmentLogOptions options;
  options.segment_bytes = 4 << 10;  // tiny segments force rolls
  {
    Index scratch;
    auto log = open_with_index(path, scratch, options);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 32; ++i) {
      const std::string key = "k" + std::to_string(i % 8);
      ASSERT_TRUE((*log)->append(key, as_view(make_payload(512, i))).ok());
    }
  }
  std::size_t segments = 0;
  for (const auto& entry : fs::directory_iterator(path)) {
    if (entry.path().filename().string().rfind("seg-", 0) == 0) ++segments;
  }
  EXPECT_GT(segments, 1u);

  Index index;
  auto log = open_with_index(path, index, options);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(index.size(), 8u);
  // Replay applied segments in order: each key resolves to its last write.
  for (int k = 0; k < 8; ++k) {
    const std::string key = "k" + std::to_string(k);
    auto got = (*log)->read(index[key]);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, make_payload(512, 24 + k)) << key;
  }
}

// Values in every segment, not just the last, stay readable after a
// reopen (the log must keep a descriptor per replayed segment).
TEST(SegmentLogTest, OlderSegmentsReadableAfterReopen) {
  TempDir dir;
  const std::string path = dir.sub("log");
  SegmentLogOptions options;
  options.segment_bytes = 4 << 10;
  constexpr int kKeys = 40;  // 40 x ~530 B spans five segments
  {
    Index scratch;
    auto log = open_with_index(path, scratch, options);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE((*log)
                      ->append("k" + std::to_string(i),
                               as_view(make_payload(512, i)))
                      .ok());
    }
  }
  Index index;
  auto log = open_with_index(path, index, options);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(index.size(), static_cast<std::size_t>(kKeys));
  std::set<std::uint64_t> segments;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "k" + std::to_string(i);
    segments.insert(index[key].segment);
    auto got = (*log)->read(index[key]);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().to_string();
    EXPECT_EQ(*got, make_payload(512, i)) << key;
  }
  EXPECT_GE(segments.size(), 3u);
}

// A segment whose bytes are spelled out in the record layout (put k1=abc,
// tombstone k1, put k2="") replays with value locations framing the bytes.
TEST(SegmentLogTest, HandWrittenSegmentReplays) {
  TempDir dir;
  const std::string path = dir.sub("log");
  fs::create_directories(path);
  const std::string bytes(
      "\x0b\xe9\xe1\x4e" "\x01" "\x02\x00\x00\x00" "\x03\x00\x00\x00" "k1"
      "abc"
      "\xa5\x2a\x79\xf9" "\x02" "\x02\x00\x00\x00" "\x00\x00\x00\x00" "k1"
      "\xe3\xb7\x57\x56" "\x01" "\x02\x00\x00\x00" "\x00\x00\x00\x00" "k2",
      18 + 15 + 15);
  {
    std::ofstream out(path + "/seg-1.log", std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::vector<std::pair<std::string, bool>> seen;
  LogLocation first;
  auto log = SegmentLog::open(
      path, {},
      [&](std::string_view key, bool live, const LogLocation& loc) {
        if (seen.empty()) first = loc;
        seen.emplace_back(std::string(key), live);
      });
  ASSERT_TRUE(log.ok());
  const std::vector<std::pair<std::string, bool>> expected = {
      {"k1", true}, {"k1", false}, {"k2", true}};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(first.segment, 1u);
  EXPECT_EQ(first.offset, 15u);  // header (13) + "k1"
  EXPECT_EQ(first.length, 3u);
  auto got = (*log)->read(first);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(to_string(as_view(*got)), "abc");
  EXPECT_EQ((*log)->log_bytes(), bytes.size());
}

TEST(SegmentLogTest, CompactionDropsDeadBytesAndPreservesValues) {
  TempDir dir;
  Index index;
  auto log = open_with_index(dir.sub("log"), index);
  ASSERT_TRUE(log.ok());
  for (int gen = 0; gen < 10; ++gen) {
    for (int k = 0; k < 4; ++k) {
      const std::string key = "k" + std::to_string(k);
      auto loc = (*log)->append(key, as_view(make_payload(1024, gen * 4 + k)));
      ASSERT_TRUE(loc.ok());
      index[key] = *loc;
    }
  }
  const std::uint64_t before = (*log)->log_bytes();

  ASSERT_TRUE((*log)
                  ->compact(
                      [&](const SegmentLog::LiveVisitor& visit) {
                        for (const auto& [key, loc] : index) visit(key, loc);
                      },
                      [&](std::string_view key, const LogLocation& loc) {
                        index[std::string(key)] = loc;
                      })
                  .ok());
  EXPECT_LT((*log)->log_bytes(), before / 2);  // 9 of 10 generations dropped
  for (int k = 0; k < 4; ++k) {
    const std::string key = "k" + std::to_string(k);
    auto got = (*log)->read(index[key]);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, make_payload(1024, 36 + k)) << key;
  }
  // Appends continue cleanly after compaction.
  ASSERT_TRUE((*log)->append("post", as_view(make_payload(64, 99))).ok());
}

TEST(SegmentLogTest, WipeClearsDiskAndStartsOver) {
  TempDir dir;
  const std::string path = dir.sub("log");
  Index index;
  auto log = open_with_index(path, index);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->append("a", as_view(make_payload(128, 1))).ok());
  ASSERT_TRUE((*log)->wipe().ok());
  EXPECT_EQ((*log)->log_bytes(), 0u);
  auto loc = (*log)->append("b", as_view(make_payload(64, 2)));
  ASSERT_TRUE(loc.ok());
  EXPECT_TRUE((*log)->read(*loc).ok());

  Index reopened;
  {
    auto log2 = open_with_index(dir.sub("other"), reopened);
    ASSERT_TRUE(log2.ok());
  }
}

TEST(SegmentLogTest, ConcurrentAppendersAndReaders) {
  TempDir dir;
  Index index;
  auto log = open_with_index(dir.sub("log"), index);
  ASSERT_TRUE(log.ok());

  // Seed a stable key each reader hammers while writers append.
  auto stable = (*log)->append("stable", as_view(make_payload(256, 7)));
  ASSERT_TRUE(stable.ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 200; ++i) {
        const std::string key = "w" + std::to_string(w) + "-" +
                                std::to_string(i);
        auto loc = (*log)->append(key, as_view(make_payload(128, i)));
        if (!loc.ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto got = (*log)->read(*loc);
        if (!got.ok() || *got != make_payload(128, i)) failures.fetch_add(1);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < 400; ++i) {
        auto got = (*log)->read(*stable);
        if (!got.ok() || *got != make_payload(256, 7)) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace tiera
