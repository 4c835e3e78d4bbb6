// Group commit on the metadata journal: fsync coalescing under concurrent
// writers, batch accounting, the linger rule (the leader waits only for
// writers that will commit soon, capped by max_wait), the watchdog's view of
// the journal, and crash safety (no acknowledged record lost, no torn record
// survives replay).
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/group_commit.h"
#include "core/metadata_store.h"
#include "metadb/metadb.h"
#include "obs/watchdog.h"
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

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

// One write as a PUT makes it: an announced writer from before it stages
// until it commits, with its tier write in between.
template <typename Journal, typename StageFn>
Status announced_write(Journal& journal, StageFn stage) {
  journal.open_writer();
  const std::uint64_t seq = stage();
  std::this_thread::sleep_for(std::chrono::microseconds(200));
  return journal.commit_writer(seq);
}

Status flush_nothing(ByteView, std::uint64_t) { return Status::Ok(); }

// Spins until `done` holds, failing the test after 5 s.
template <typename Pred>
void wait_until(Pred done) {
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (!done()) {
    ASSERT_LT(Clock::now(), deadline) << "condition never held";
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

// A watchdog with the journal as its only component, driven by check_once().
struct JournalWatch {
  explicit JournalWatch(const GroupCommitter& gc) {
    dog.set_stall_handler([](const StallInfo&) {});
    dog.add_component(
        "metadb-journal", [&gc] { return gc.flushed_batches(); },
        [&gc] { return static_cast<std::size_t>(gc.pending_records()); });
  }
  // True if any of `checks` passes flagged the journal.
  bool stalls_within(int checks) {
    bool flagged = false;
    for (int i = 0; i < checks; ++i) flagged |= !dog.check_once().empty();
    return flagged;
  }
  Watchdog dog;
};

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

// The same load from writers that announce themselves, as a PUT's commit
// scope does: batches form because writers are open, not because time
// passes, so max_wait is only a cap and a slow scheduler must not cut a
// batch short.
TEST(GroupCommitterTest, ConcurrentAnnouncedWritersShareFlushes) {
  std::atomic<std::uint64_t> flushes{0};
  GroupCommitter gc(
      [&](ByteView, std::uint64_t) {
        flushes.fetch_add(1);
        std::this_thread::sleep_for(milliseconds(1));  // a slow device
        return Status::Ok();
      },
      {.max_wait = milliseconds(50)});

  constexpr int kThreads = 8;
  constexpr int kRecords = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRecords; ++i) {
        const Status s = announced_write(
            gc, [&] { return gc.stage(as_view(std::string("x"))); });
        if (!s.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const auto stats = gc.stats();
  EXPECT_EQ(stats.records, kThreads * std::uint64_t(kRecords));
  EXPECT_LT(flushes.load(), stats.records / 4);
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

TEST(GroupCommitterTest, LoneCommitterDoesNotLinger) {
  GroupCommitter gc(flush_nothing, {.max_wait = milliseconds(200)});
  const auto start = Clock::now();
  ASSERT_TRUE(gc.commit(gc.stage(as_view(std::string("r")))).ok());
  EXPECT_LT(Clock::now() - start, milliseconds(20));
  EXPECT_EQ(gc.stats().batches, 1u);
}

TEST(GroupCommitterTest, LeaderWaitsForAnOpenWriter) {
  GroupCommitter gc(flush_nothing, {.max_wait = std::chrono::seconds(2)});
  const auto start = Clock::now();
  gc.open_writer();  // a writer that has started and will commit soon
  auto leader = std::async(std::launch::async, [&] {
    return gc.commit(gc.stage(as_view(std::string("a"))));
  });
  // The leader is lingering once its record is pending.
  wait_until([&] { return gc.pending_records() == 1; });
  std::this_thread::sleep_for(milliseconds(10));
  const std::uint64_t seq = gc.stage(as_view(std::string("b")));
  ASSERT_TRUE(gc.commit_writer(seq).ok());
  ASSERT_TRUE(leader.get().ok());
  // The last writer closing ended the linger, long before max_wait.
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(1));
  const auto stats = gc.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.max_batch_records, 2u);
}

TEST(GroupCommitterTest, WriterThatNeverCommitsHoldsLeaderOnlyMaxWait) {
  GroupCommitter gc(flush_nothing, {.max_wait = milliseconds(50)});
  gc.open_writer();
  const auto start = Clock::now();
  ASSERT_TRUE(gc.commit(gc.stage(as_view(std::string("r")))).ok());
  const auto elapsed = Clock::now() - start;
  EXPECT_GE(elapsed, milliseconds(45));
  EXPECT_LT(elapsed, milliseconds(500));
  ASSERT_TRUE(gc.commit_writer(0).ok());
}

// A writer that commits part-way (commit_staged) and goes on is open again
// once its wait ends, so later leaders still linger for it.
TEST(GroupCommitterTest, WriterThatStaysOpenIsStillWaitedFor) {
  GroupCommitter gc(flush_nothing, {.max_wait = milliseconds(50)});
  gc.open_writer();
  auto start = Clock::now();
  ASSERT_TRUE(
      gc.commit_writer(gc.stage(as_view(std::string("a"))), /*stay_open=*/true)
          .ok());
  EXPECT_LT(Clock::now() - start, milliseconds(20));  // it was the only one
  start = Clock::now();
  ASSERT_TRUE(gc.commit(gc.stage(as_view(std::string("b")))).ok());
  EXPECT_GE(Clock::now() - start, milliseconds(45));
  ASSERT_TRUE(gc.commit_writer(0).ok());
  start = Clock::now();
  ASSERT_TRUE(gc.commit(gc.stage(as_view(std::string("c")))).ok());
  EXPECT_LT(Clock::now() - start, milliseconds(20));
}

// Plain committers announce nothing. Once two of them shared a batch, the
// next leader waits until as many are committing again (they are taken for
// closed-loop callers), and the one that makes up the number ends the
// linger at once, long before max_wait.
TEST(GroupCommitterTest, PlainCommittersOfASharedBatchAreWaitedFor) {
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> flushes{0};
  GroupCommitter gc(
      [&](ByteView, std::uint64_t) {
        if (flushes.fetch_add(1) == 0) released.wait();
        return Status::Ok();
      },
      {.max_wait = std::chrono::seconds(2)});
  const auto commit_async = [&gc](const char* record) {
    return std::async(std::launch::async, [&gc, record] {
      return gc.commit(gc.stage(as_view(std::string(record))));
    });
  };
  // "a" leads alone; "b" and "c" queue behind its blocked flush and then
  // share the second batch.
  auto a = commit_async("a");
  wait_until([&] { return flushes.load() == 1; });
  auto b = commit_async("b");
  auto c = commit_async("c");
  wait_until([&] { return gc.pending_records() == 3; });
  release.set_value();
  ASSERT_TRUE(a.get().ok());
  ASSERT_TRUE(b.get().ok());
  ASSERT_TRUE(c.get().ok());
  ASSERT_EQ(gc.stats().batches, 2u);

  const auto start = Clock::now();
  auto d = commit_async("d");  // lingers for a second plain committer
  wait_until([&] { return gc.pending_records() == 1; });
  std::this_thread::sleep_for(milliseconds(10));
  EXPECT_EQ(gc.stats().batches, 2u);
  ASSERT_TRUE(gc.commit(gc.stage(as_view(std::string("e")))).ok());
  ASSERT_TRUE(d.get().ok());
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(1));
  const auto stats = gc.stats();
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.records, 5u);
  EXPECT_EQ(stats.max_batch_records, 2u);
}

// A writer that staged a record and then stays busy elsewhere (a PUT in a
// slow tier write) is not a stalled journal: nobody waits on the journal.
TEST(GroupCommitterTest, StagedRecordOfABusyWriterIsNotAStall) {
  GroupCommitter gc(flush_nothing, {});
  JournalWatch watch(gc);
  gc.open_writer();
  const std::uint64_t seq = gc.stage(as_view(std::string("r")));
  EXPECT_EQ(gc.pending_records(), 0u);
  EXPECT_FALSE(watch.stalls_within(8));  // twice the default window
  ASSERT_TRUE(gc.commit_writer(seq).ok());
  EXPECT_FALSE(watch.stalls_within(8));
}

// A flush that blocks while a committer waits on it is a stall.
TEST(GroupCommitterTest, BlockedFlushWithAWaitingCommitterIsAStall) {
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  GroupCommitter gc(
      [released](ByteView, std::uint64_t) {
        released.wait();
        return Status::Ok();
      },
      {});
  JournalWatch watch(gc);
  EXPECT_FALSE(watch.stalls_within(1));  // baseline
  auto committer = std::async(std::launch::async, [&] {
    return gc.commit(gc.stage(as_view(std::string("r"))));
  });
  wait_until([&] { return gc.pending_records() == 1; });
  EXPECT_TRUE(watch.stalls_within(5));
  release.set_value();
  ASSERT_TRUE(committer.get().ok());
  EXPECT_EQ(gc.pending_records(), 0u);
}

// A commit scope that waits mid-scope (commit_staged) stops counting as an
// open writer while it waits, so a leader lingering for it flushes at once
// instead of waiting out the batch window for a writer that waits on it.
TEST(MetaDbGroupCommitTest, CommitStagedMidScopeDoesNotHoldUpALeader) {
  TempDir dir;
  MetaDbOptions options;
  options.sync_every_write = true;
  options.journal_batch_wait = std::chrono::seconds(2);
  MetadataStore store;
  ASSERT_TRUE(store.open(dir.sub("meta"), options).ok());
  const auto make_meta = [](const std::string& id) {
    ObjectMeta meta;
    meta.id = id;
    meta.size = 1;
    return meta;
  };

  const auto start = Clock::now();
  MetadataStore::CommitScope scope(store);
  ASSERT_TRUE(store.put(make_meta("scoped")).ok());
  // Another writer outside any scope leads a batch and lingers for the
  // open scope.
  auto leader = std::async(std::launch::async,
                           [&] { return store.put(make_meta("plain")); });
  wait_until([&] { return store.db()->journal_pending() > 0; });
  ASSERT_TRUE(store.commit_staged().ok());
  ASSERT_TRUE(leader.get().ok());
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(1));
  EXPECT_EQ(store.db()->journal_stats().batches, 1u);
  ASSERT_TRUE(scope.finish().ok());
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

// The same load from announced writers (see
// GroupCommitterTest.ConcurrentAnnouncedWritersShareFlushes).
TEST(MetaDbGroupCommitTest, ConcurrentAnnouncedSyncedWritersCoalesceFsyncs) {
  TempDir dir;
  MetaDbOptions options;
  options.sync_every_write = true;
  options.journal_batch_wait = milliseconds(50);
  auto db = open_db(dir.sub("db"), options);
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
        const Status s = announced_write(**db, [&] {
          return (*db)->stage_put(key, as_view(std::string("v")));
        });
        if (!s.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const auto stats = (*db)->journal_stats();
  EXPECT_EQ(stats.records, kThreads * std::uint64_t(kWrites));
  EXPECT_GT(stats.fsyncs, 0u);
  EXPECT_LT(stats.fsyncs, stats.records / 4);
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
