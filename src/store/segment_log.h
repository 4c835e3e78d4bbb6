// Append-only segment log: the shared data path under the file-backed tiers.
//
// The original FileTier wrote one file per object (open + write + close +
// rename), which costs ~250µs per 4K PUT on ext4 — the entire tier.io stage
// of the hot path. The segment log replaces that with a single buffered
// append to an already-open segment file (~6µs). Records use the shared
// CRC-framed codec (common/record_log.h) that the metadata journal also
// uses, with the same replay-on-open and torn-tail truncation; compaction is
// stop-the-world and rewrites the live set into fresh segments.
//
// Layout: `directory/seg-<n>.log`, each up to segment_bytes of record_log
// records (type 1 = put, type 2 = tombstone).
//
// Values are located by (segment, offset, length) and served with pread, so
// reads never seek the write fd and run concurrently under a shared lock.
// Durability matches the old tier files: appends land in the OS page cache
// (fsync only via sync(), which tiers do not call on the hot path) — the
// paper's durability story for tier contents is the tier hierarchy itself,
// not per-write fsync.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "common/bytes.h"
#include "common/status.h"

namespace tiera {

struct SegmentLogOptions {
  // Roll to a fresh segment once the current one reaches this size.
  std::uint64_t segment_bytes = 64ull << 20;
};

// Where a value lives. `offset`/`length` frame the value bytes themselves
// (not the record header), so reads are a single pread.
struct LogLocation {
  std::uint64_t segment = 0;
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
};

class SegmentLog {
 public:
  // Called once per replayed record, in log order. `live` is true for put
  // records (loc frames the value) and false for tombstones.
  using ReplayFn = std::function<void(std::string_view key, bool live,
                                      const LogLocation& loc)>;

  // Opens (creating if needed) the log under `directory` and replays every
  // segment in order, keeping each one open for reads. A torn or corrupt
  // tail is truncated away (crash recovery), matching the metadata journal.
  static Result<std::unique_ptr<SegmentLog>> open(std::string directory,
                                                  SegmentLogOptions options,
                                                  const ReplayFn& replay);
  ~SegmentLog();

  SegmentLog(const SegmentLog&) = delete;
  SegmentLog& operator=(const SegmentLog&) = delete;

  Result<LogLocation> append(std::string_view key, ByteView value);
  Status append_tombstone(std::string_view key);
  Result<Bytes> read(const LogLocation& loc) const;

  // Flush + fsync the current segment.
  Status sync();

  // Stop-the-world compaction: `for_each_live` must yield every live
  // (key, location) pair; each value is copied into fresh segments and its
  // new location reported through `update`. Old segments are deleted once
  // the copies are fsynced, so a crash mid-compaction replays to the same
  // live set (newer segments win during replay).
  using LiveVisitor =
      std::function<void(std::string_view key, const LogLocation& loc)>;
  Status compact(
      const std::function<void(const LiveVisitor&)>& for_each_live,
      const std::function<void(std::string_view key, const LogLocation& loc)>&
          update);

  // Delete every segment and start over from an empty log.
  Status wipe();

  // Total record bytes across all segments (live + dead).
  std::uint64_t log_bytes() const;

 private:
  SegmentLog(std::string directory, SegmentLogOptions options);

  std::string segment_path(std::uint64_t segment) const;
  Status open_segment_locked(std::uint64_t segment);
  Status roll_if_needed_locked();
  Status append_record_locked(std::uint8_t type, std::string_view key,
                              ByteView value, LogLocation* loc);
  // pread of one value; requires mu_ held (shared or exclusive).
  Result<Bytes> read_locked(const LogLocation& loc) const;

  const std::string directory_;
  const SegmentLogOptions options_;

  // Appends, rolls, compaction and wipe take the lock exclusively; reads
  // share it (pread is position-less, so concurrent reads never interfere).
  mutable std::shared_mutex mu_;
  std::map<std::uint64_t, int> segment_fds_;  // all fds are O_RDWR|O_APPEND
  std::uint64_t current_segment_ = 1;
  std::uint64_t current_offset_ = 0;  // size of the current segment
  std::uint64_t log_bytes_ = 0;
};

}  // namespace tiera
