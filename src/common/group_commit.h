// Leader/follower group commit for append-only journals.
//
// Writers stage() encoded records (cheap: one buffer append under the lock)
// and then commit() their sequence number. The first committer to find
// unflushed records becomes the batch leader. It lingers only for writers
// that will commit soon, and flushes as soon as none is left to wait for,
// max_batch_bytes are staged, or max_wait runs out, whichever comes first.
// Two kinds of writer count:
//   - announced writers, open from open_writer() until commit_writer() (an
//     operation's commit scope): the leader waits while any is open;
//   - plain commit() callers, who announce nothing: when more than one of
//     them shared the last batch, they are taken for closed-loop callers
//     that will be back, and the leader waits until as many are committing
//     again.
// A lone committer therefore flushes at once (a plain one may linger once,
// right after a batch it shared with others). The leader swaps the staging
// buffer out and calls the flush function once for the whole batch — one
// write and, when the owner syncs, one fsync for every record in it.
// Followers sleep on the condition variable and wake when the leader
// advances the flushed sequence past theirs; those that arrive during a
// flush form the next batch.
//
// A failed flush is sticky: the journal is broken from that point on, and
// every subsequent commit returns the original error (callers treat the
// store as read-only, same as a failed raw append before this existed).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/status.h"

namespace tiera {

class GroupCommitter {
 public:
  struct Options {
    // Flush without waiting once this many bytes are staged.
    std::uint64_t max_batch_bytes = 256 << 10;
    // Cap on how long the batch leader lingers for writers that will commit
    // soon; it never lingers when none is expected. Zero means flush
    // immediately (batches still form while a flush is in flight).
    Duration max_wait = std::chrono::microseconds(200);
  };

  struct Stats {
    std::uint64_t batches = 0;
    std::uint64_t records = 0;
    std::uint64_t max_batch_records = 0;
  };

  // Writes one coalesced batch to stable storage. Called with the internal
  // lock released; never called concurrently with itself.
  using FlushFn = std::function<Status(ByteView batch, std::uint64_t records)>;

  GroupCommitter(FlushFn flush, Options options);

  // Appends a record to the staging buffer; returns its sequence number.
  // The caller serializes stage() calls against its own index update (so
  // journal order matches index order) — typically under the owner's lock.
  std::uint64_t stage(ByteView record);

  // Blocks until every record up to `seq` is flushed. Returns the sticky
  // journal error if any batch has ever failed to flush.
  Status commit(std::uint64_t seq);

  // Opens an announced writer: one that will stage and commit soon (an
  // operation's commit scope, from its start until it commits). A leader
  // lingers while any is open.
  void open_writer();
  // Closes an announced writer and waits, as commit() does, until every
  // record up to `seq` is flushed (0: nothing to wait for). The writer
  // closes before it waits, under the same lock, so no leader lingers for a
  // writer that is waiting for it. With `stay_open` it opens again once the
  // wait ends (a writer that commits part-way and goes on).
  Status commit_writer(std::uint64_t seq, bool stay_open = false);

  // Flush everything staged so far without lingering (used before
  // compaction swaps the journal fd, and by explicit sync()).
  Status drain();

  Stats stats() const;

  // Lock-free progress probes for the liveness watchdog: flushed batches is
  // the monotonic progress counter, pending records the queue depth — the
  // unflushed records some commit() caller is waiting for. Records staged
  // by a writer still busy elsewhere are not pending: the journal is not
  // what holds them up. Safe to read from a watchdog thread even while a
  // flush leader holds mu_.
  std::uint64_t flushed_batches() const {
    return flushed_batches_.load(std::memory_order_relaxed);
  }
  std::uint64_t pending_records() const {
    return pending_records_.load(std::memory_order_relaxed);
  }

  // Invoked once, outside mu_, when the journal first goes sticky-broken
  // (the flight recorder hooks this to record a journal-error transition;
  // common cannot depend on obs, hence the callback).
  void set_error_observer(std::function<void(const Status&)> observer);

 private:
  Status commit_locked(std::unique_lock<std::mutex>& lock, std::uint64_t seq,
                       bool linger);
  // Republishes pending_records_; requires mu_.
  void publish_pending();

  const FlushFn flush_;
  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Bytes staged_;
  std::uint64_t staged_records_ = 0;
  std::uint64_t staged_seq_ = 0;
  std::uint64_t flushed_seq_ = 0;
  std::uint64_t wanted_seq_ = 0;  // highest seq any commit() has waited for
  std::uint64_t taken_seq_ = 0;  // last record a leader took into a batch
  std::uint64_t open_writers_ = 0;      // announced writers
  std::uint64_t plain_committers_ = 0;  // plain commit()s of the next batch
  std::uint64_t plain_peers_ = 0;       // plain commit()s of the last batch
  bool flushing_ = false;
  Status sticky_ = Status::Ok();
  Stats stats_;
  std::function<void(const Status&)> error_observer_;
  std::atomic<std::uint64_t> flushed_batches_{0};
  std::atomic<std::uint64_t> pending_records_{0};
};

}  // namespace tiera
