// Group commit on the metadata journal: fsync coalescing under concurrent
// writers, batch accounting, and crash safety (no acknowledged record lost,
// no torn record survives replay).
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/group_commit.h"
#include "metadb/metadb.h"
#include "test_util.h"

namespace tiera {
namespace {

using testing::TempDir;

// Opens the journal at `path`, collecting the keys that replay as live.
Result<std::unique_ptr<MetaDb>> open_db(const std::string& path,
                                        MetaDbOptions options,
                                        std::set<std::string>* live = nullptr) {
  return MetaDb::open(path, options,
                      [live](std::string_view key, bool is_live, ByteView) {
                        if (live == nullptr) return;
                        if (is_live) {
                          live->emplace(key);
                        } else {
                          live->erase(std::string(key));
                        }
                      });
}

Status put(MetaDb& db, std::string_view key, std::string_view value) {
  return db.commit(db.stage_put(key, as_view(value)));
}

TEST(GroupCommitterTest, SingleWriterFlushesEveryCommit) {
  std::uint64_t flushes = 0;
  Bytes flushed;
  GroupCommitter gc(
      [&](ByteView batch, std::uint64_t) {
        ++flushes;
        flushed.insert(flushed.end(), batch.begin(), batch.end());
        return Status::Ok();
      },
      {});
  for (int i = 0; i < 5; ++i) {
    const std::string rec = "r" + std::to_string(i);
    const std::uint64_t seq = gc.stage(as_view(rec));
    ASSERT_TRUE(gc.commit(seq).ok());
  }
  EXPECT_EQ(flushes, 5u);  // nothing to coalesce with: one flush per commit
  EXPECT_EQ(to_string(as_view(flushed)), "r0r1r2r3r4");
  EXPECT_EQ(gc.stats().records, 5u);
}

TEST(GroupCommitterTest, ConcurrentWritersShareFlushes) {
  std::atomic<std::uint64_t> flushes{0};
  GroupCommitter::Options options;
  options.max_wait = std::chrono::milliseconds(2);  // generous linger
  GroupCommitter gc(
      [&](ByteView, std::uint64_t) {
        flushes.fetch_add(1);
        // A slow device: followers pile up behind the leader.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return Status::Ok();
      },
      options);

  constexpr int kThreads = 8;
  constexpr int kRecords = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRecords; ++i) {
        const std::uint64_t seq = gc.stage(as_view(std::string("x")));
        if (!gc.commit(seq).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const auto stats = gc.stats();
  EXPECT_EQ(stats.records, kThreads * std::uint64_t(kRecords));
  // The whole point: far fewer flushes than records.
  EXPECT_LT(flushes.load(), stats.records / 4);
  EXPECT_GT(stats.max_batch_records, 1u);
}

TEST(GroupCommitterTest, FlushErrorIsStickyForTheBatch) {
  GroupCommitter gc(
      [&](ByteView, std::uint64_t) {
        return Status::Internal("disk on fire");
      },
      {});
  const std::uint64_t seq = gc.stage(as_view(std::string("rec")));
  EXPECT_FALSE(gc.commit(seq).ok());
}

TEST(MetaDbGroupCommitTest, ConcurrentSyncedWritersCoalesceFsyncs) {
  TempDir dir;
  MetaDbOptions options;
  options.sync_every_write = true;
  options.journal_batch_wait = std::chrono::milliseconds(1);
  const std::string path = dir.sub("db");
  auto db = open_db(path, options);
  ASSERT_TRUE(db.ok());

  constexpr int kThreads = 8;
  constexpr int kWrites = 40;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kWrites; ++i) {
        const std::string key = "t" + std::to_string(t) + "-" +
                                std::to_string(i);
        if (!put(**db, key, "v").ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const auto stats = (*db)->journal_stats();
  EXPECT_EQ(stats.records, kThreads * std::uint64_t(kWrites));
  // Every write was acknowledged durable, yet fsyncs stayed well below one
  // per record (the ISSUE gate asserts < records/4 under saturation).
  EXPECT_GT(stats.fsyncs, 0u);
  EXPECT_LT(stats.fsyncs, stats.records / 4);
  EXPECT_EQ(stats.batches, stats.fsyncs);

  // Each acknowledged record is really in the log.
  db->reset();
  std::set<std::string> live;
  ASSERT_TRUE(open_db(path, options, &live).ok());
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kWrites; ++i) {
      EXPECT_TRUE(live.count("t" + std::to_string(t) + "-" +
                             std::to_string(i)));
    }
  }
}

TEST(MetaDbGroupCommitTest, UnsyncedModeSkipsFsyncEntirely) {
  TempDir dir;
  auto db = open_db(dir.sub("db"), {});  // sync_every_write = false
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(put(**db, "k" + std::to_string(i), "v").ok());
  }
  EXPECT_EQ((*db)->journal_stats().fsyncs, 0u);
  EXPECT_EQ((*db)->journal_stats().records, 100u);
}

// Crash test: a child process writes with sync_every_write on, reporting
// each key through a pipe ONLY after its put() returned (i.e. after the
// group-commit batch it joined was fsynced). The parent SIGKILLs the child
// mid-stream, replays the log, and every acknowledged key must be present —
// group commit must not acknowledge ahead of the shared fsync. Torn records
// past the last fsynced batch are truncated by replay, never surfaced.
TEST(MetaDbGroupCommitTest, KilledMidBatchLosesNoAcknowledgedRecord) {
  TempDir dir;
  const std::string path = dir.sub("db");

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: hammer the journal from several threads until killed.
    ::close(fds[0]);
    MetaDbOptions options;
    options.sync_every_write = true;
    auto db = open_db(path, options);
    if (!db.ok()) _exit(1);
    std::vector<std::thread> writers;
    std::mutex pipe_mu;
    for (int t = 0; t < 4; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < 100000; ++i) {
          const std::string key = "c" + std::to_string(t) + "-" +
                                  std::to_string(i);
          if (!put(**db, key, std::string(48, 'v')).ok()) _exit(2);
          const std::string line = key + "\n";
          std::lock_guard lock(pipe_mu);
          if (::write(fds[1], line.data(), line.size()) < 0) _exit(3);
        }
      });
    }
    for (auto& w : writers) w.join();
    _exit(0);
  }

  // Parent: collect acknowledged keys for a moment, then pull the plug.
  ::close(fds[1]);
  std::string acked;
  char buf[4096];
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    acked.append(buf, static_cast<std::size_t>(n));
  }
  ::kill(pid, SIGKILL);
  // Drain what the child managed to write before dying.
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    acked.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));

  // Only complete lines count: a key truncated mid-pipe-write was not
  // observably acknowledged.
  std::vector<std::string> keys;
  std::size_t start = 0;
  for (std::size_t nl = acked.find('\n'); nl != std::string::npos;
       nl = acked.find('\n', start)) {
    keys.push_back(acked.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_FALSE(keys.empty()) << "child died before acknowledging anything";

  // Clean replay — torn tail (if the kill landed mid-write) truncates away.
  std::set<std::string> live;
  auto db = open_db(path, {}, &live);
  ASSERT_TRUE(db.ok()) << db.status().to_string();
  for (const auto& key : keys) {
    EXPECT_TRUE(live.count(key)) << "acknowledged key lost: " << key;
  }
  // And the reopened db still accepts writes.
  EXPECT_TRUE(put(**db, "after-crash", "ok").ok());
}

}  // namespace
}  // namespace tiera
