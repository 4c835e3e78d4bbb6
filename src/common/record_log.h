// record_log: the CRC-framed record format shared by Tiera's append-only
// logs — the metadata journal (MetaDb) and the file tiers' segment log
// (SegmentLog). One encoder, one writer and one replay loop, so both logs
// frame, check and truncate records the same way.
//
// Record layout (little endian):
//   u32 crc (crc32c over type..value)
//   u8  type (1 = put, 2 = erase / tombstone)
//   u32 key_len
//   u32 value_len
//   key bytes, value bytes
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/status.h"

namespace tiera::record_log {

constexpr std::uint8_t kPut = 1;
constexpr std::uint8_t kErase = 2;
constexpr std::size_t kHeaderBytes = 4 + 1 + 4 + 4;

// Encoded size of a record with these key and value lengths.
constexpr std::uint64_t record_bytes(std::size_t key_len,
                                     std::size_t value_len) {
  return kHeaderBytes + key_len + value_len;
}

// Appends one encoded record to `out`.
void encode_record(std::uint8_t type, std::string_view key, ByteView value,
                   Bytes& out);

// write(2) until every byte is written; false on error (errno set).
bool write_all(int fd, ByteView data);

// Internal status "<op>: <strerror(errno)>".
Status errno_status(std::string_view op);

// Called once per valid record, in file order. `live` is true for puts and
// false for erases; `value_offset` is the file offset of the value bytes.
// The views are valid only for the duration of the call.
using RecordFn = std::function<void(std::string_view key, bool live,
                                    ByteView value,
                                    std::uint64_t value_offset)>;

// Hands each record at the front of `log` to `fn` and returns the length of
// that valid prefix: decoding stops at the first torn, corrupt or
// unknown-type record. `value_offset` is relative to `log`.
std::uint64_t replay_buffer(ByteView log, const RecordFn& fn);

// The whole file at `path`, read with one fstat-sized read. A missing file
// is NotFound.
Result<Bytes> read_file(const std::string& path);

// Reads the log at `path` and hands each record to `fn` (replay_buffer).
// The file is truncated after its valid prefix (crash recovery). Returns the
// valid length; a missing file is an empty log.
Result<std::uint64_t> replay_file(const std::string& path, const RecordFn& fn);

}  // namespace tiera::record_log
