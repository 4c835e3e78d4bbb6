// metadb: the durable journal behind object metadata.
//
// Plays the role BerkeleyDB plays in the Tiera prototype: the control layer
// persists all object metadata here so an instance can restart without losing
// track of where objects live. MetaDb is a journal only — an append-only log
// in the shared record_log format with group commit, replay on open and
// compaction — and keeps no copy of any record in memory. Its owner (the
// MetadataStore) is the index: it receives every record through replay,
// stages writes in the order its maps change, counts dead bytes, and
// supplies the live set when the log is rewritten.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/group_commit.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace tiera {

struct MetaDbOptions {
  // fsync after every acknowledged append. Off by default: the paper's
  // durability story for metadata is periodic persistence, and tests
  // exercise both modes. With group commit, "every write" means every
  // acknowledged batch — no commit returns before its record is synced,
  // but concurrent writers share one fsync.
  bool sync_every_write = false;
  // Group commit: flush once this many bytes are staged...
  std::uint64_t journal_batch_bytes = 256 << 10;
  // ...or once no writer that will commit soon is left (see open_writer),
  // or at the latest after the batch leader has lingered this long. Only
  // applies when sync_every_write is on; unsynced appends go straight to
  // the OS page cache so a process crash loses nothing it would not have
  // lost before.
  Duration journal_batch_wait = std::chrono::microseconds(200);
};

class MetaDb {
 public:
  // Called once per replayed record, in log order: a put (`live`, with its
  // value) or an erase. The views are valid only for the duration of the
  // call.
  using ReplayFn =
      std::function<void(std::string_view key, bool live, ByteView value)>;

  ~MetaDb();

  MetaDb(const MetaDb&) = delete;
  MetaDb& operator=(const MetaDb&) = delete;

  // Opens (creating if needed) the journal at `path` and replays it through
  // `replay`; a torn/corrupt tail is truncated away (crash recovery).
  static Result<std::unique_ptr<MetaDb>> open(std::string path,
                                              MetaDbOptions options,
                                              const ReplayFn& replay);

  // Writes are two steps. stage_put/stage_erase encode a record and append
  // it to the group-commit buffer, returning its sequence number; the log
  // holds records in staging order, so the owner stages under the lock
  // that orders its own index updates. commit(seq) then blocks, outside
  // that lock, until the record is written (and synced when configured).
  std::uint64_t stage_put(std::string_view key, ByteView value);
  std::uint64_t stage_erase(std::string_view key);
  Status commit(std::uint64_t seq);

  // An announced writer: open_writer() before staging, commit_writer(seq)
  // instead of commit(seq). A lingering batch leader waits for open ones
  // (GroupCommitter::open_writer).
  void open_writer() { journal_.open_writer(); }
  Status commit_writer(std::uint64_t seq, bool stay_open = false);

  // Bytes a record with this key and value takes in the log. Owners keep
  // it per live key to count dead bytes.
  static std::uint32_t record_bytes(std::size_t key_len,
                                    std::size_t value_len);

  // True once the log holds at least 1 MiB and more than half of it is
  // dead (superseded records and tombstones).
  bool wants_compaction(std::uint64_t dead_bytes) const;

  // Rewrites the log with exactly the records `for_each_live` yields. The
  // owner must stop staging while it runs, or records staged meanwhile are
  // lost from the rewritten log.
  using LiveVisitor = std::function<void(std::string_view key, ByteView value)>;
  Status compact(const std::function<void(const LiveVisitor&)>& for_each_live);

  // Flush + fsync the log.
  Status sync();

  // Total record bytes in the log (live + dead).
  std::uint64_t log_bytes() const;

  // Group-commit telemetry (also exported as the
  // tiera_metadb_group_commit_{batches,records,fsyncs}_total counters).
  struct JournalStats {
    std::uint64_t batches = 0;
    std::uint64_t records = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t max_batch_records = 0;
  };
  JournalStats journal_stats() const;

  // Lock-free watchdog probes: flushed-batch progress and the unflushed
  // records some commit() is waiting for (see GroupCommitter).
  // journal_stats() takes the journal lock and must not be used from the
  // watchdog thread.
  std::uint64_t journal_batches() const { return journal_.flushed_batches(); }
  std::uint64_t journal_pending() const { return journal_.pending_records(); }

 private:
  MetaDb(std::string path, MetaDbOptions options);

  Status open_log();
  std::uint64_t stage_record(std::uint8_t type, std::string_view key,
                             ByteView value);
  Status flush_batch(ByteView batch, std::uint64_t records);

  const std::string path_;
  const MetaDbOptions options_;

  // Registry series (`tiera_metadb_*`), looked up once at open.
  struct Metrics {
    Counter* puts;
    Counter* erases;
    Counter* compactions;
    Counter* gc_batches;
    Counter* gc_records;
    Counter* gc_fsyncs;
    Gauge* log_bytes;
  };
  Metrics metrics_;

  // Orders staging against compaction (lock order: the owner's lock, then
  // mu_). Writers stage under mu_ and commit outside it; compaction drains
  // the journal under mu_, which excludes new stagers, before swapping fd_,
  // so no flush can be in flight while the fd changes.
  mutable std::mutex mu_;
  int fd_ = -1;
  std::uint64_t log_bytes_ = 0;
  std::atomic<std::uint64_t> fsyncs_{0};
  // Declared last: the flush function touches fd_ and the counters above.
  GroupCommitter journal_;
};

}  // namespace tiera
