#include "store/segment_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/record_log.h"

namespace fs = std::filesystem;

namespace tiera {

using record_log::errno_status;

namespace {

constexpr std::size_t kHintValueBytes = 8 + 4;  // value offset, length

// n of `seg-<n><suffix>`, if `name` is one.
std::optional<std::uint64_t> segment_number(const std::string& name,
                                            std::string_view suffix) {
  if (name.size() <= 4 + suffix.size() || name.rfind("seg-", 0) != 0 ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const std::string digits = name.substr(4, name.size() - 4 - suffix.size());
  const unsigned long long n = std::strtoull(digits.c_str(), &end, 10);
  if (errno != 0 || end == digits.c_str() || *end != '\0' || n == 0) {
    return std::nullopt;
  }
  return n;
}

// The location a hint record describes; false if its value is malformed or
// points outside the `length` bytes of the segment.
bool decode_hint(std::uint64_t segment, std::uint64_t length,
                 std::string_view key, ByteView value, LogLocation* loc) {
  if (value.size() != kHintValueBytes) return false;
  loc->segment = segment;
  std::memcpy(&loc->offset, value.data(), 8);
  std::memcpy(&loc->length, value.data() + 8, 4);
  loc->key_length = static_cast<std::uint32_t>(key.size());
  return loc->offset >= record_log::kHeaderBytes + key.size() &&
         loc->offset <= length && loc->length <= length - loc->offset;
}

// pread until `n` bytes at `offset` are in `out`.
Status pread_all(int fd, void* out, std::size_t n, std::uint64_t offset) {
  auto* p = static_cast<std::uint8_t*>(out);
  for (std::size_t done = 0; done < n;) {
    const ssize_t got =
        ::pread(fd, p + done, n - done, static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return errno_status("segment log pread");
    }
    if (got == 0) return Status::Internal("segment log: short read");
    done += static_cast<std::size_t>(got);
  }
  return Status::Ok();
}

}  // namespace

SegmentLog::SegmentLog(std::string directory, SegmentLogOptions options)
    : directory_(std::move(directory)), options_(options) {}

SegmentLog::~SegmentLog() {
  std::unique_lock lock(mu_);
  for (auto& [segment, fd] : segment_fds_) {
    if (fd >= 0) ::close(fd);
  }
  segment_fds_.clear();
}

std::string SegmentLog::segment_path(std::uint64_t segment) const {
  return directory_ + "/seg-" + std::to_string(segment) + ".log";
}

std::string SegmentLog::hint_path(std::uint64_t segment) const {
  return directory_ + "/seg-" + std::to_string(segment) + ".hint";
}

Result<std::unique_ptr<SegmentLog>> SegmentLog::open(
    std::string directory, SegmentLogOptions options, const ReplayFn& replay) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  std::unique_ptr<SegmentLog> log(
      new SegmentLog(std::move(directory), options));

  // Collect segment and hint numbers and drop half-written hints; anything
  // else in the directory is the caller's problem (FileTier migrates legacy
  // per-object files).
  std::vector<std::uint64_t> segments;
  std::vector<std::uint64_t> hints;
  for (const auto& entry : fs::directory_iterator(log->directory_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (const auto n = segment_number(name, ".log")) {
      segments.push_back(*n);
    } else if (const auto h = segment_number(name, ".hint")) {
      hints.push_back(*h);
    } else if (segment_number(name, ".hint.tmp")) {
      fs::remove(entry.path(), ec);
    }
  }
  std::sort(segments.begin(), segments.end());
  log->current_segment_ = segments.empty() ? 1 : segments.back();
  // The tail is replayed in full and sealed again when it rolls; a hint
  // without a segment describes nothing.
  for (const std::uint64_t h : hints) {
    if (h == log->current_segment_ ||
        !std::binary_search(segments.begin(), segments.end(), h)) {
      fs::remove(log->hint_path(h), ec);
    }
  }

  // Every replayed segment keeps an fd: values in older segments stay
  // readable after a reopen, and compaction can copy out of them.
  std::unique_lock lock(log->mu_);
  for (const std::uint64_t segment : segments) {
    TIERA_RETURN_IF_ERROR(log->open_segment_locked(segment));
    const bool sealed = segment != log->current_segment_;
    if (sealed && log->replay_hint_locked(segment, replay)) continue;
    Result<std::uint64_t> length = record_log::replay_file(
        log->segment_path(segment),
        [&](std::string_view key, bool live, ByteView value,
            std::uint64_t value_offset) {
          replay(key, live,
                 LogLocation{segment, value_offset,
                             static_cast<std::uint32_t>(value.size()),
                             static_cast<std::uint32_t>(key.size())});
        });
    if (!length.ok()) return length.status();
    log->log_bytes_ += *length;
    if (sealed) log->seal_locked(segment, *length);  // backfill the hint
  }
  TIERA_RETURN_IF_ERROR(log->open_segment_locked(log->current_segment_));
  struct stat st {};
  if (::fstat(log->segment_fds_[log->current_segment_], &st) != 0) {
    return errno_status("segment log fstat");
  }
  log->current_offset_ = static_cast<std::uint64_t>(st.st_size);
  lock.unlock();
  return log;
}

bool SegmentLog::replay_hint_locked(std::uint64_t segment,
                                    const ReplayFn& replay) {
  Result<Bytes> hint = record_log::read_file(hint_path(segment));
  if (!hint.ok()) return false;  // none yet: written before hints existed
  struct stat st {};
  if (::fstat(segment_fds_[segment], &st) != 0) return false;

  // The first pass checks the whole hint and the second indexes from it, so
  // a bad hint falls back to a full replay without having indexed part of
  // the segment twice.
  std::uint64_t length = 0;
  const auto pass = [&](bool index) {
    bool first = true;
    bool sound = true;
    const std::uint64_t valid = record_log::replay_buffer(
        as_view(*hint),
        [&](std::string_view key, bool live, ByteView value, std::uint64_t) {
          if (first) {
            first = false;
            sound = live && key.empty() && value.size() == 8;
            if (sound) std::memcpy(&length, value.data(), 8);
            return;
          }
          LogLocation loc;
          sound = sound && decode_hint(segment, length, key, value, &loc);
          if (index) replay(key, live, loc);
        });
    return sound && !first && valid == hint->size();
  };
  if (!pass(false) || length != static_cast<std::uint64_t>(st.st_size)) {
    TIERA_LOG(kWarn, "store") << "hint " << hint_path(segment)
                              << " is torn, corrupt or stale; replaying "
                              << segment_path(segment) << " in full";
    return false;
  }
  pass(true);
  log_bytes_ += length;
  return true;
}

Status SegmentLog::open_segment_locked(std::uint64_t segment) {
  if (segment_fds_.count(segment)) return Status::Ok();
  const int fd = ::open(segment_path(segment).c_str(),
                        O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return errno_status("segment log open");
  segment_fds_[segment] = fd;
  return Status::Ok();
}

Result<Bytes> SegmentLog::build_hint_locked(std::uint64_t segment,
                                           std::uint64_t length) const {
  Bytes hint;
  record_log::encode_record(
      record_log::kPut, "",
      ByteView(reinterpret_cast<const std::uint8_t*>(&length), 8), hint);
  // One pread per record covers the header and a key of up to kPeek bytes;
  // values are skipped.
  constexpr std::size_t kPeek = 64;
  const int fd = segment_fds_.at(segment);
  std::uint8_t head[record_log::kHeaderBytes + kPeek];
  std::string key;
  std::uint64_t pos = 0;
  while (pos < length) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(sizeof(head), length - pos));
    if (want < record_log::kHeaderBytes) break;
    TIERA_RETURN_IF_ERROR(pread_all(fd, head, want, pos));
    std::uint32_t key_len, value_len;
    std::memcpy(&key_len, head + 5, 4);
    std::memcpy(&value_len, head + 9, 4);
    const std::uint64_t end = pos + record_log::record_bytes(key_len, value_len);
    if (end > length ||
        (head[4] != record_log::kPut && head[4] != record_log::kErase)) {
      break;
    }
    key.resize(key_len);
    if (key_len <= kPeek) {
      std::memcpy(key.data(), head + record_log::kHeaderBytes, key_len);
    } else {
      TIERA_RETURN_IF_ERROR(pread_all(fd, key.data(), key_len,
                                      pos + record_log::kHeaderBytes));
    }
    const std::uint64_t value_offset = pos + record_log::kHeaderBytes + key_len;
    std::uint8_t value[kHintValueBytes];
    std::memcpy(value, &value_offset, 8);
    std::memcpy(value + 8, &value_len, 4);
    record_log::encode_record(head[4], key, ByteView(value, sizeof(value)),
                              hint);
    pos = end;
  }
  if (pos != length) {
    return Status::Corruption("segment log: " + segment_path(segment) +
                              " has no record boundary at its end");
  }
  return hint;
}

void SegmentLog::seal_locked(std::uint64_t segment, std::uint64_t length) {
  const std::string path = hint_path(segment);
  const std::string tmp = path + ".tmp";
  const Status status = [&]() -> Status {
    Result<Bytes> hint = build_hint_locked(segment, length);
    if (!hint.ok()) return hint.status();
    if (::fsync(segment_fds_[segment]) != 0) {
      return errno_status("segment fsync");
    }
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return errno_status("hint open");
    const Status written =
        record_log::write_all(fd, as_view(*hint)) && ::fsync(fd) == 0
            ? Status::Ok()
            : errno_status("hint write");
    ::close(fd);
    if (!written.ok()) return written;
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      return errno_status("hint rename");
    }
    return Status::Ok();
  }();
  if (status.ok()) return;
  ::unlink(tmp.c_str());
  TIERA_LOG(kWarn, "store") << "sealing " << segment_path(segment)
                            << " wrote no hint (" << status.to_string()
                            << "); the next open replays it in full";
}

Status SegmentLog::roll_if_needed_locked() {
  if (current_offset_ < options_.segment_bytes) return Status::Ok();
  seal_locked(current_segment_, current_offset_);
  ++current_segment_;
  current_offset_ = 0;
  return open_segment_locked(current_segment_);
}

Status SegmentLog::append_record_locked(std::uint8_t type,
                                        std::string_view key, ByteView value,
                                        LogLocation* loc) {
  TIERA_RETURN_IF_ERROR(roll_if_needed_locked());
  Bytes rec;
  rec.reserve(record_log::record_bytes(key.size(), value.size()));
  record_log::encode_record(type, key, value, rec);
  const int fd = segment_fds_[current_segment_];
  if (!record_log::write_all(fd, as_view(rec))) {
    return errno_status("segment log write");
  }
  if (loc) {
    loc->segment = current_segment_;
    loc->offset = current_offset_ + record_log::kHeaderBytes + key.size();
    loc->length = static_cast<std::uint32_t>(value.size());
    loc->key_length = static_cast<std::uint32_t>(key.size());
  }
  current_offset_ += rec.size();
  log_bytes_ += rec.size();
  return Status::Ok();
}

Result<LogLocation> SegmentLog::append(std::string_view key, ByteView value) {
  std::unique_lock lock(mu_);
  LogLocation loc;
  TIERA_RETURN_IF_ERROR(
      append_record_locked(record_log::kPut, key, value, &loc));
  return loc;
}

Status SegmentLog::append_tombstone(std::string_view key) {
  std::unique_lock lock(mu_);
  return append_record_locked(record_log::kErase, key, {}, nullptr);
}

Result<Bytes> SegmentLog::read(const LogLocation& loc,
                               std::string_view key) const {
  std::shared_lock lock(mu_);
  return read_locked(loc, key);
}

Result<Bytes> SegmentLog::read_locked(const LogLocation& loc,
                                      std::string_view key) const {
  auto it = segment_fds_.find(loc.segment);
  if (it == segment_fds_.end()) {
    return Status::NotFound("segment log: no such segment");
  }
  const std::size_t prefix = record_log::kHeaderBytes + loc.key_length;
  if (loc.offset < prefix) {
    return Status::Corruption("segment log: location precedes its record");
  }
  const std::uint64_t start = loc.offset - prefix;
  Bytes rec(prefix + loc.length);
  TIERA_RETURN_IF_ERROR(pread_all(it->second, rec.data(), rec.size(), start));
  std::uint32_t crc, key_len, value_len;
  std::memcpy(&crc, rec.data(), 4);
  std::memcpy(&key_len, rec.data() + 5, 4);
  std::memcpy(&value_len, rec.data() + 9, 4);
  const std::string_view rec_key(
      reinterpret_cast<const char*>(rec.data()) + record_log::kHeaderBytes,
      loc.key_length);
  if (rec[4] != record_log::kPut || key_len != loc.key_length ||
      value_len != loc.length ||
      crc32c(ByteView(rec.data() + 4, rec.size() - 4)) != crc ||
      (!key.empty() && rec_key != key)) {
    return Status::Corruption("segment log: record at " +
                              segment_path(loc.segment) + ":" +
                              std::to_string(start) + " fails its check");
  }
  rec.erase(rec.begin(), rec.begin() + static_cast<std::ptrdiff_t>(prefix));
  return rec;
}

Status SegmentLog::sync() {
  std::unique_lock lock(mu_);
  auto it = segment_fds_.find(current_segment_);
  if (it != segment_fds_.end() && ::fsync(it->second) != 0) {
    return errno_status("segment log fsync");
  }
  return Status::Ok();
}

Status SegmentLog::compact(
    const std::function<void(const LiveVisitor&)>& for_each_live,
    const std::function<void(std::string_view key, const LogLocation* loc)>&
        update) {
  std::unique_lock lock(mu_);
  // Copy the live set into fresh segments numbered after the current one.
  // Replay applies segments in order, so the copies (newest) win over the
  // stale records even if a crash leaves both generations on disk.
  const std::uint64_t first_new = current_segment_ + 1;
  std::uint64_t old_log_bytes = log_bytes_;
  current_segment_ = first_new;
  current_offset_ = 0;
  log_bytes_ = 0;
  TIERA_RETURN_IF_ERROR(open_segment_locked(current_segment_));

  Status status = Status::Ok();
  for_each_live([&](std::string_view key, const LogLocation& loc) {
    if (!status.ok()) return;
    // Read from the old location (old segment fds are still open).
    Result<Bytes> value = read_locked(loc, key);
    if (value.status().code() == StatusCode::kCorruption) {
      TIERA_LOG(kError, "store") << "compaction drops " << key << ": "
                                 << value.status().to_string();
      update(key, nullptr);
      return;
    }
    if (!value.ok()) {
      status = value.status();
      return;
    }
    LogLocation new_loc;
    status =
        append_record_locked(record_log::kPut, key, as_view(*value), &new_loc);
    if (status.ok()) update(key, &new_loc);
  });
  if (!status.ok()) return status;

  // Make the copies durable before deleting their sources.
  for (auto it = segment_fds_.lower_bound(first_new);
       it != segment_fds_.end(); ++it) {
    if (::fsync(it->second) != 0) {
      return errno_status("segment log compact fsync");
    }
  }
  for (auto it = segment_fds_.begin();
       it != segment_fds_.end() && it->first < first_new;) {
    ::close(it->second);
    ::unlink(segment_path(it->first).c_str());
    ::unlink(hint_path(it->first).c_str());
    it = segment_fds_.erase(it);
  }
  TIERA_LOG(kInfo, "store") << "segment log " << directory_ << " compacted "
                            << old_log_bytes << " -> " << log_bytes_
                            << " bytes";
  return Status::Ok();
}

Status SegmentLog::wipe() {
  std::unique_lock lock(mu_);
  for (auto& [segment, fd] : segment_fds_) {
    ::close(fd);
    ::unlink(segment_path(segment).c_str());
    ::unlink(hint_path(segment).c_str());
  }
  segment_fds_.clear();
  current_segment_ = 1;
  current_offset_ = 0;
  log_bytes_ = 0;
  return open_segment_locked(current_segment_);
}

std::uint64_t SegmentLog::log_bytes() const {
  std::shared_lock lock(mu_);
  return log_bytes_;
}

}  // namespace tiera
