#include "store/segment_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <vector>

#include "common/logging.h"
#include "common/record_log.h"

namespace fs = std::filesystem;

namespace tiera {

using record_log::errno_status;

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

Result<std::unique_ptr<SegmentLog>> SegmentLog::open(
    std::string directory, SegmentLogOptions options, const ReplayFn& replay) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  std::unique_ptr<SegmentLog> log(
      new SegmentLog(std::move(directory), options));

  // Collect existing segment numbers; everything else in the directory is
  // the caller's problem (FileTier migrates legacy per-object files).
  std::vector<std::uint64_t> segments;
  for (const auto& entry : fs::directory_iterator(log->directory_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() <= 8 || name.rfind("seg-", 0) != 0 ||
        name.substr(name.size() - 4) != ".log") {
      continue;
    }
    errno = 0;
    char* end = nullptr;
    const std::string digits = name.substr(4, name.size() - 8);
    const unsigned long long n = std::strtoull(digits.c_str(), &end, 10);
    if (errno != 0 || end == digits.c_str() || *end != '\0' || n == 0) continue;
    segments.push_back(n);
  }
  std::sort(segments.begin(), segments.end());

  // Every replayed segment keeps an fd: values in older segments stay
  // readable after a reopen, and compaction can copy out of them.
  std::unique_lock lock(log->mu_);
  for (const std::uint64_t segment : segments) {
    Result<std::uint64_t> valid = record_log::replay_file(
        log->segment_path(segment),
        [&](std::string_view key, bool live, ByteView value,
            std::uint64_t value_offset) {
          replay(key, live,
                 LogLocation{segment, value_offset,
                             static_cast<std::uint32_t>(value.size())});
        });
    if (!valid.ok()) return valid.status();
    log->log_bytes_ += *valid;
    TIERA_RETURN_IF_ERROR(log->open_segment_locked(segment));
  }
  log->current_segment_ = segments.empty() ? 1 : segments.back();
  TIERA_RETURN_IF_ERROR(log->open_segment_locked(log->current_segment_));
  struct stat st {};
  if (::fstat(log->segment_fds_[log->current_segment_], &st) != 0) {
    return errno_status("segment log fstat");
  }
  log->current_offset_ = static_cast<std::uint64_t>(st.st_size);
  lock.unlock();
  return log;
}

Status SegmentLog::open_segment_locked(std::uint64_t segment) {
  if (segment_fds_.count(segment)) return Status::Ok();
  const int fd = ::open(segment_path(segment).c_str(),
                        O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return errno_status("segment log open");
  segment_fds_[segment] = fd;
  return Status::Ok();
}

Status SegmentLog::roll_if_needed_locked() {
  if (current_offset_ < options_.segment_bytes) return Status::Ok();
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

Result<Bytes> SegmentLog::read(const LogLocation& loc) const {
  std::shared_lock lock(mu_);
  return read_locked(loc);
}

Result<Bytes> SegmentLog::read_locked(const LogLocation& loc) const {
  auto it = segment_fds_.find(loc.segment);
  if (it == segment_fds_.end()) {
    return Status::NotFound("segment log: no such segment");
  }
  Bytes out(loc.length);
  std::size_t done = 0;
  while (done < loc.length) {
    const ssize_t n =
        ::pread(it->second, out.data() + done, loc.length - done,
                static_cast<off_t>(loc.offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("segment log pread");
    }
    if (n == 0) return Status::Internal("segment log: short read");
    done += static_cast<std::size_t>(n);
  }
  return out;
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
    const std::function<void(std::string_view key, const LogLocation& loc)>&
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
    Result<Bytes> value = read_locked(loc);
    if (!value.ok()) {
      status = value.status();
      return;
    }
    LogLocation new_loc;
    status =
        append_record_locked(record_log::kPut, key, as_view(*value), &new_loc);
    if (status.ok()) update(key, new_loc);
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
