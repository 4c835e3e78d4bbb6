// The append-only segment log backing the file tiers: replay, torn-tail
// truncation, rolling, compaction, hint files, checked reads, crash
// recovery, and concurrent read/write safety.
#include "store/segment_log.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>
#include <thread>

#include "store/file_tier.h"
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
                      [&](std::string_view key, const LogLocation* loc) {
                        index[std::string(key)] = *loc;
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
  SegmentLogOptions options;
  options.segment_bytes = 4 << 10;  // appends cross seals (hint writes)
  auto log = open_with_index(dir.sub("log"), index, options);
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

// ---- hint files ----------------------------------------------------------

constexpr std::uint64_t kHintSegmentBytes = 4 << 10;

SegmentLogOptions small_segments() {
  SegmentLogOptions options;
  options.segment_bytes = kHintSegmentBytes;
  return options;
}

using Call = std::tuple<std::string, bool, LogLocation>;

// What an open reported: every ReplayFn call in order, and log_bytes().
struct Replayed {
  std::unique_ptr<SegmentLog> log;
  std::vector<Call> calls;
  Index index;
  std::uint64_t log_bytes = 0;
};

Replayed open_recording(const std::string& dir) {
  Replayed out;
  auto log = SegmentLog::open(
      dir, small_segments(),
      [&out](std::string_view key, bool live, const LogLocation& loc) {
        out.calls.emplace_back(std::string(key), live, loc);
        if (live) {
          out.index[std::string(key)] = loc;
        } else {
          out.index.erase(std::string(key));
        }
      });
  EXPECT_TRUE(log.ok()) << log.status().to_string();
  if (log.ok()) {
    out.log = std::move(log).value();
    out.log_bytes = out.log->log_bytes();
  }
  return out;
}

Bytes hint_payload(int i) { return make_payload(200 + (i * 37) % 700, i); }

// Puts, overwrites and tombstones over 12 keys, spread across many 4 KiB
// segments. Returns the expected live set.
std::map<std::string, Bytes> write_history(const std::string& dir) {
  std::map<std::string, Bytes> live;
  Index scratch;
  auto log = open_with_index(dir, scratch, small_segments());
  EXPECT_TRUE(log.ok());
  for (int i = 0; i < 120; ++i) {
    const std::string key = "key-" + std::to_string(i % 12);
    if (i % 7 == 6) {
      EXPECT_TRUE((*log)->append_tombstone(key).ok());
      live.erase(key);
    } else {
      EXPECT_TRUE((*log)->append(key, as_view(hint_payload(i))).ok());
      live[key] = hint_payload(i);
    }
  }
  return live;
}

std::set<std::uint64_t> numbered(const std::string& dir,
                                 const std::string& suffix) {
  std::set<std::uint64_t> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) != 0 || name.size() <= 4 + suffix.size() ||
        name.substr(name.size() - suffix.size()) != suffix) {
      continue;
    }
    out.insert(std::stoull(name.substr(4, name.size() - 4 - suffix.size())));
  }
  return out;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void remove_hints(const std::string& dir) {
  for (const std::uint64_t n : numbered(dir, ".hint")) {
    fs::remove(dir + "/seg-" + std::to_string(n) + ".hint");
  }
}

// A copy of `dir` with no hints: what a full replay of every segment sees.
std::string full_replay_copy(const std::string& dir, const std::string& to) {
  fs::copy(dir, to, fs::copy_options::recursive);
  remove_hints(to);
  return to;
}

void expect_same_open(const Replayed& got, const Replayed& want) {
  ASSERT_EQ(got.calls.size(), want.calls.size());
  for (std::size_t i = 0; i < got.calls.size(); ++i) {
    const auto& [key, live, loc] = got.calls[i];
    const auto& [want_key, want_live, want_loc] = want.calls[i];
    ASSERT_EQ(key, want_key) << "call " << i;
    ASSERT_EQ(live, want_live) << "call " << i << " " << key;
    ASSERT_TRUE(loc == want_loc)
        << "call " << i << " " << key << ": segment " << loc.segment
        << " offset " << loc.offset << " length " << loc.length << " vs "
        << want_loc.segment << "/" << want_loc.offset << "/"
        << want_loc.length;
  }
  EXPECT_EQ(got.log_bytes, want.log_bytes);
}

// Every sealed segment (all but the tail) has a hint, and no hint is left
// for a segment that does not exist.
void expect_hints_for_sealed(const std::string& dir) {
  std::set<std::uint64_t> sealed = numbered(dir, ".log");
  ASSERT_FALSE(sealed.empty());
  sealed.erase(std::prev(sealed.end()));
  EXPECT_EQ(numbered(dir, ".hint"), sealed);
}

TEST(SegmentLogHintTest, HintedOpenEqualsFullReplay) {
  TempDir dir;
  const std::string path = dir.sub("log");
  const auto live = write_history(path);
  ASSERT_GE(numbered(path, ".log").size(), 5u);
  expect_hints_for_sealed(path);
  EXPECT_TRUE(numbered(path, ".hint.tmp").empty());

  const Replayed hinted = open_recording(path);
  const Replayed full = open_recording(full_replay_copy(path, dir.sub("full")));
  expect_same_open(hinted, full);
  // Hints add no log bytes: log_bytes() is the segments' size on disk.
  std::uint64_t on_disk = 0;
  for (const std::uint64_t n : numbered(path, ".log")) {
    on_disk += fs::file_size(path + "/seg-" + std::to_string(n) + ".log");
  }
  EXPECT_EQ(hinted.log_bytes, on_disk);

  // The live set reads back, each value checked against its key.
  ASSERT_EQ(hinted.index.size(), live.size());
  for (const auto& [key, value] : live) {
    auto got = hinted.log->read(hinted.index.at(key), key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().to_string();
    EXPECT_EQ(*got, value) << key;
  }
  // The full replay backfilled every hint, byte for byte.
  expect_hints_for_sealed(dir.sub("full"));
  for (const std::uint64_t n : numbered(path, ".hint")) {
    const std::string name = "/seg-" + std::to_string(n) + ".hint";
    EXPECT_EQ(file_bytes(dir.sub("full") + name), file_bytes(path + name))
        << name;
  }
}

TEST(SegmentLogHintTest, FileTierDeadBytesMatchFullReplay) {
  TempDir dir;
  const std::string path = dir.sub("s3");
  write_history(path);
  const std::string full = full_replay_copy(path, dir.sub("full"));
  ObjectTier hinted("hinted", 1 << 30, path);
  ObjectTier replayed("replayed", 1 << 30, full);
  EXPECT_EQ(hinted.log_bytes(), replayed.log_bytes());
  EXPECT_EQ(hinted.dead_log_bytes(), replayed.dead_log_bytes());
  EXPECT_GT(hinted.dead_log_bytes(), 0u);
  EXPECT_EQ(hinted.object_count(), replayed.object_count());
  EXPECT_EQ(hinted.used(), replayed.used());
}

// Each damage leaves the open equal to a full replay of the same segments,
// and the damaged hint is rewritten as the full replay would write it.
TEST(SegmentLogHintTest, BadHintsFallBackToFullReplay) {
  struct Case {
    const char* name;
    void (*damage)(const std::string& dir);
  };
  const Case cases[] = {
      {"truncated hint",
       [](const std::string& dir) {
         const std::string hint = dir + "/seg-2.hint";
         fs::resize_file(hint, fs::file_size(hint) - 5);
       }},
      {"flipped hint byte",
       [](const std::string& dir) {
         const std::string hint = dir + "/seg-2.hint";
         std::string bytes = file_bytes(hint);
         bytes[bytes.size() / 2] ^= 0x20;
         write_bytes(hint, bytes);
       }},
      {"segment shorter than recorded",
       [](const std::string& dir) {
         const std::string seg = dir + "/seg-2.log";
         fs::resize_file(seg, fs::file_size(seg) - 100);
       }},
      {"leftover tmp instead of hint",
       [](const std::string& dir) {
         const std::string hint = dir + "/seg-2.hint";
         const std::string bytes = file_bytes(hint);
         write_bytes(hint + ".tmp", bytes.substr(0, bytes.size() / 2));
         fs::remove(hint);
       }},
      {"leftover tmp beside hint",
       [](const std::string& dir) {
         write_bytes(dir + "/seg-3.hint.tmp", "half a hint");
       }},
      {"orphan hint",
       [](const std::string& dir) {
         fs::copy_file(dir + "/seg-2.hint", dir + "/seg-99.hint");
       }},
      {"hint beside the tail",
       [](const std::string& dir) {
         const std::uint64_t tail = *numbered(dir, ".log").rbegin();
         fs::copy_file(dir + "/seg-2.hint",
                       dir + "/seg-" + std::to_string(tail) + ".hint");
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TempDir dir;
    const std::string path = dir.sub("log");
    write_history(path);
    c.damage(path);
    const std::string full = dir.sub("full");
    full_replay_copy(path, full);

    const Replayed got = open_recording(path);
    const Replayed want = open_recording(full);
    expect_same_open(got, want);
    EXPECT_TRUE(numbered(path, ".hint.tmp").empty());
    expect_hints_for_sealed(path);
    for (const std::uint64_t n : numbered(full, ".hint")) {
      const std::string name = "/seg-" + std::to_string(n) + ".hint";
      EXPECT_EQ(file_bytes(path + name), file_bytes(full + name)) << name;
    }
    // And the next open uses the backfilled hints to the same result.
    expect_same_open(open_recording(path), want);
  }
}

TEST(SegmentLogHintTest, CompactAndWipeLeaveNoStaleHints) {
  TempDir dir;
  const std::string path = dir.sub("log");
  write_history(path);
  Replayed opened = open_recording(path);
  const std::uint64_t first_new = *numbered(path, ".log").rbegin() + 1;
  Index& index = opened.index;
  ASSERT_TRUE(opened.log
                  ->compact(
                      [&](const SegmentLog::LiveVisitor& visit) {
                        for (const auto& [key, loc] : index) visit(key, loc);
                      },
                      [&](std::string_view key, const LogLocation* loc) {
                        index[std::string(key)] = *loc;
                      })
                  .ok());
  EXPECT_EQ(*numbered(path, ".log").begin(), first_new);
  for (const std::uint64_t n : numbered(path, ".hint")) EXPECT_GE(n, first_new);
  // Appends after compaction roll and seal as usual.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(opened.log->append("post", as_view(hint_payload(i))).ok());
  }
  expect_hints_for_sealed(path);
  const Replayed hinted = open_recording(path);
  expect_same_open(hinted, open_recording(full_replay_copy(path, dir.sub("f"))));

  ASSERT_TRUE(opened.log->wipe().ok());
  EXPECT_TRUE(numbered(path, ".hint").empty());
  EXPECT_EQ(numbered(path, ".log"), std::set<std::uint64_t>{1});
}

TEST(SegmentLogHintTest, CorruptSealedValueFailsOnlyItsRead) {
  TempDir dir;
  const std::string path = dir.sub("log");
  std::map<std::string, Bytes> live;
  LogLocation victim;
  {
    Index scratch;
    auto log = open_with_index(path, scratch, small_segments());
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 40; ++i) {
      const std::string key = "k" + std::to_string(i);
      auto loc = (*log)->append(key, as_view(hint_payload(i)));
      ASSERT_TRUE(loc.ok());
      live[key] = hint_payload(i);
      if (i == 1) victim = *loc;
    }
  }
  ASSERT_EQ(victim.segment, 1u);  // sealed, so the open uses its hint
  ASSERT_TRUE(fs::exists(path + "/seg-1.hint"));
  {
    std::fstream f(path + "/seg-1.log",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(victim.offset + victim.length / 2));
    f.put(static_cast<char>(live["k1"][victim.length / 2] ^ 0xFF));
  }
  const Replayed opened = open_recording(path);
  ASSERT_EQ(opened.index.size(), live.size());
  for (const auto& [key, value] : live) {
    auto got = opened.log->read(opened.index.at(key), key);
    if (key == "k1") {
      ASSERT_FALSE(got.ok()) << "a corrupt value read back";
      EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
      continue;
    }
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().to_string();
    EXPECT_EQ(*got, value) << key;
  }
  // A location read under another key's name is refused too.
  EXPECT_FALSE(opened.log->read(opened.index.at("k2"), "k3").ok());

  // Compaction copies every other value and drops the damaged one rather
  // than rewrite it under a fresh CRC.
  Index index = opened.index;
  std::vector<std::string> dropped;
  ASSERT_TRUE(opened.log
                  ->compact(
                      [&](const SegmentLog::LiveVisitor& visit) {
                        for (const auto& [key, loc] : index) visit(key, loc);
                      },
                      [&](std::string_view key, const LogLocation* loc) {
                        if (loc == nullptr) {
                          dropped.emplace_back(key);
                        } else {
                          index[std::string(key)] = *loc;
                        }
                      })
                  .ok());
  EXPECT_EQ(dropped, std::vector<std::string>{"k1"});
  const Replayed compacted = open_recording(path);
  EXPECT_EQ(compacted.index.count("k1"), 0u);
  ASSERT_EQ(compacted.index.size(), live.size() - 1);
  for (const auto& [key, loc] : compacted.index) {
    auto got = compacted.log->read(loc, key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().to_string();
    EXPECT_EQ(*got, live[key]) << key;
  }
}

TEST(SegmentLogHintTest, FileTierCompactionDropsDamagedValue) {
  testing::ZeroLatencyScope zero_latency;
  TempDir dir;
  const std::string path = dir.sub("s3");
  std::map<std::string, Bytes> live;
  LogLocation victim;
  {
    Index scratch;
    auto log = open_with_index(path, scratch, small_segments());
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 20; ++i) {
      const std::string key = "k" + std::to_string(i);
      auto loc = (*log)->append(key, as_view(hint_payload(i)));
      ASSERT_TRUE(loc.ok());
      live[key] = hint_payload(i);
      if (i == 3) victim = *loc;
    }
  }
  {
    std::fstream f(path + "/seg-" + std::to_string(victim.segment) + ".log",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(victim.offset));
    f.put(static_cast<char>(live["k3"][0] ^ 0xFF));
  }
  ObjectTier tier("s3", 1 << 30, path);
  const std::uint64_t used = tier.used();
  EXPECT_EQ(tier.get("k3").status().code(), StatusCode::kCorruption);
  ASSERT_TRUE(tier.compact_log().ok());
  EXPECT_FALSE(tier.contains("k3"));
  EXPECT_EQ(tier.used(), used - victim.length);
  EXPECT_EQ(tier.object_count(), live.size() - 1);
  for (const auto& [key, value] : live) {
    if (key == "k3") continue;
    auto got = tier.get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().to_string();
    EXPECT_EQ(*got, value) << key;
  }
}

// ---- crash recovery ------------------------------------------------------

// Op i writes key i % 8: a put of crash_payload(i), or every fifth op a
// tombstone, so a read-back names the op that wrote it.
std::string crash_key(std::uint64_t op) { return "c" + std::to_string(op % 8); }
bool crash_is_tombstone(std::uint64_t op) { return op % 5 == 4; }
Bytes crash_payload(std::uint64_t op) {
  return make_payload(300 + op % 11 * 70, op + 1);
}

[[noreturn]] void run_appender(const std::string& dir, int ack_fd) {
  auto log = SegmentLog::open(dir, small_segments(),
                              [](std::string_view, bool, const LogLocation&) {});
  if (!log.ok()) ::_exit(2);
  for (std::uint64_t op = 0;; ++op) {
    const bool ok =
        crash_is_tombstone(op)
            ? (*log)->append_tombstone(crash_key(op)).ok()
            : (*log)->append(crash_key(op), as_view(crash_payload(op))).ok();
    if (!ok) ::_exit(3);
    if (::write(ack_fd, &op, sizeof(op)) != sizeof(op)) ::_exit(4);
  }
}

bool read_ack(int fd, std::uint64_t* op) {
  std::size_t got = 0;
  auto* out = reinterpret_cast<char*>(op);
  while (got < sizeof(*op)) {
    const ssize_t n = ::read(fd, out + got, sizeof(*op) - got);
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

class SegmentLogCrashTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SegmentLogCrashTest, AckedAppendsSurviveSigkill) {
  TempDir dir;
  const std::string path = dir.sub("log");
  // Kill after a seeded number of acks (so seals have happened) plus a
  // seeded pause, which lands the kill inside an append, a seal or between.
  std::mt19937 rng(GetParam());
  const std::uint64_t acks_before_kill =
      std::uniform_int_distribution<std::uint64_t>(1, 300)(rng);
  const auto kill_after = std::chrono::microseconds(
      std::uniform_int_distribution<int>(0, 2000)(rng));

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(fds[0]);
    run_appender(path, fds[1]);
  }
  ::close(fds[1]);
  std::map<std::string, std::uint64_t> acked;  // key -> last acked op
  std::uint64_t last = 0;
  std::uint64_t op = 0;
  do {
    ASSERT_TRUE(read_ack(fds[0], &op)) << "appender died after op " << last;
    acked[crash_key(op)] = last = op;
  } while (op + 1 < acks_before_kill);
  std::this_thread::sleep_for(kill_after);
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "appender exited: "
                                    << WEXITSTATUS(wstatus);
  while (read_ack(fds[0], &op)) acked[crash_key(op)] = last = op;
  ::close(fds[0]);

  const std::string full = full_replay_copy(path, dir.sub("full"));
  const Replayed hinted = open_recording(path);
  ASSERT_NE(hinted.log, nullptr);
  for (const auto& [key, acked_op] : acked) {
    SCOPED_TRACE("key " + key + ", last acked op " + std::to_string(acked_op) +
                 " of " + std::to_string(last));
    // The acked state, or that of op last + 1: done but not yet reported
    // (the appender reports op i before it starts op i + 1).
    const auto it = hinted.index.find(key);
    auto matches = [&](std::uint64_t o) {
      if (crash_is_tombstone(o)) return it == hinted.index.end();
      if (it == hinted.index.end()) return false;
      auto got = hinted.log->read(it->second, key);
      return got.ok() && *got == crash_payload(o);
    };
    EXPECT_TRUE(matches(acked_op) ||
                (crash_key(last + 1) == key && matches(last + 1)));
  }
  expect_same_open(hinted, open_recording(full));
  RecordProperty("segments", static_cast<int>(numbered(path, ".log").size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentLogCrashTest,
                         ::testing::Range(1u, 9u));

}  // namespace
}  // namespace tiera
