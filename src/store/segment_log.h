// Append-only segment log: the shared data path under the file-backed tiers.
//
// The original FileTier wrote one file per object (open + write + close +
// rename), which costs ~250µs per 4K PUT on ext4 — the entire tier.io stage
// of the hot path. The segment log replaces that with a single buffered
// append to an already-open segment file (~6µs). Records use the shared
// CRC-framed codec (common/record_log.h) that the metadata journal also
// uses; compaction is stop-the-world and rewrites the live set into fresh
// segments.
//
// Layout: `directory/seg-<n>.log`, each up to segment_bytes of record_log
// records (type 1 = put, type 2 = tombstone), and beside each sealed
// segment a hint file `seg-<n>.hint` (Bitcask's design): the same codec,
// first a record whose value is the segment's byte length (u64), then one
// record per segment record, in order, with its type and key and a 12-byte
// value (value offset u64, value length u32). A 4 KiB value costs a ~34 B
// hint record.
//
// Sealing (the roll to a fresh segment, also inside compaction): fsync the
// segment, write `seg-<n>.hint.tmp`, fsync it, rename it over
// `seg-<n>.hint`. A hint on disk thus never points past durable bytes.
//
// Open indexes each sealed segment from its hint alone, with the same
// ReplayFn calls in the same order as a full replay; values are not read.
// A hint is used only if every record passes its CRC to the end of the file
// and the segment's size equals the recorded length. Otherwise (no hint, a
// torn or corrupt one, a size mismatch) the segment is replayed in full —
// torn tails truncated, as in the metadata journal — and its hint is
// rewritten. The open tail segment is always replayed in full. Leftover
// `.tmp` files, hints without a segment and the tail's hint are removed.
//
// Since open does not check sealed values, read() does: it preads the whole
// record and returns Corruption unless the CRC and the header match.
//
// Values are located by (segment, offset, length) and served with pread, so
// reads never seek the write fd and run concurrently under a shared lock.
// Durability matches the old tier files: appends land in the OS page cache
// (fsync only via sync() and on a seal; tiers do not call sync() on the hot
// path) — the paper's durability story for tier contents is the tier
// hierarchy itself, not per-write fsync.
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
// (not the record header); the record starts `kHeaderBytes + key_length`
// bytes earlier, so a checked read is a single pread.
struct LogLocation {
  std::uint64_t segment = 0;
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
  std::uint32_t key_length = 0;

  bool operator==(const LogLocation&) const = default;
};

class SegmentLog {
 public:
  // Called once per replayed record, in log order. `live` is true for put
  // records (loc frames the value) and false for tombstones.
  using ReplayFn = std::function<void(std::string_view key, bool live,
                                      const LogLocation& loc)>;

  // Opens (creating if needed) the log under `directory` and replays every
  // segment in order — sealed ones from their hints — keeping each one open
  // for reads. A torn or corrupt tail is truncated away (crash recovery),
  // matching the metadata journal.
  static Result<std::unique_ptr<SegmentLog>> open(std::string directory,
                                                  SegmentLogOptions options,
                                                  const ReplayFn& replay);
  ~SegmentLog();

  SegmentLog(const SegmentLog&) = delete;
  SegmentLog& operator=(const SegmentLog&) = delete;

  Result<LogLocation> append(std::string_view key, ByteView value);
  Status append_tombstone(std::string_view key);
  // The value at `loc`, after checking its record's CRC and header (and
  // key, when one is given); Corruption if they do not match.
  Result<Bytes> read(const LogLocation& loc, std::string_view key = {}) const;

  // Flush + fsync the current segment.
  Status sync();

  // Stop-the-world compaction: `for_each_live` must yield every live
  // (key, location) pair; each value is copied into fresh segments and its
  // new location reported through `update`. A value that fails its check
  // is not copied (that would launder the damage into a valid record):
  // `update` gets a null location and the key leaves the log with the old
  // segments. Old segments are deleted once the copies are fsynced, so a
  // crash mid-compaction replays to the same live set (newer segments win
  // during replay).
  using LiveVisitor =
      std::function<void(std::string_view key, const LogLocation& loc)>;
  Status compact(
      const std::function<void(const LiveVisitor&)>& for_each_live,
      const std::function<void(std::string_view key, const LogLocation* loc)>&
          update);

  // Delete every segment and start over from an empty log.
  Status wipe();

  // Total record bytes across all segments (live + dead); hints excluded.
  std::uint64_t log_bytes() const;

 private:
  SegmentLog(std::string directory, SegmentLogOptions options);

  std::string segment_path(std::uint64_t segment) const;
  std::string hint_path(std::uint64_t segment) const;
  Status open_segment_locked(std::uint64_t segment);
  Status roll_if_needed_locked();
  Status append_record_locked(std::uint8_t type, std::string_view key,
                              ByteView value, LogLocation* loc);
  // The hint file's bytes for `segment`'s first `length` bytes, built from
  // its record headers and keys (values are not read).
  Result<Bytes> build_hint_locked(std::uint64_t segment,
                                  std::uint64_t length) const;
  // Seal protocol for `segment`, `length` bytes long. A failure leaves no
  // hint, which costs a full replay of the segment on the next open.
  void seal_locked(std::uint64_t segment, std::uint64_t length);
  // Indexes `segment` from its hint; false (nothing replayed) if the hint
  // is missing or invalid.
  bool replay_hint_locked(std::uint64_t segment, const ReplayFn& replay);
  // pread + check of one record; requires mu_ held (shared or exclusive).
  Result<Bytes> read_locked(const LogLocation& loc,
                            std::string_view key) const;

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
