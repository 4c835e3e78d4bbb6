#include "metadb/metadb.h"

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.h"
#include "common/record_log.h"
#include "obs/flight_recorder.h"
#include "obs/stage.h"

namespace tiera {

namespace {

using record_log::errno_status;

// Auto-compaction: rewrite once the log reaches this size...
constexpr std::uint64_t kCompactMinBytes = 1 << 20;
// ...and more than this fraction of it is dead.
constexpr double kCompactDeadRatio = 0.5;

}  // namespace

MetaDb::MetaDb(std::string path, MetaDbOptions options)
    : path_(std::move(path)),
      options_(options),
      journal_(
          [this](ByteView batch, std::uint64_t records) {
            return flush_batch(batch, records);
          },
          GroupCommitter::Options{
              .max_batch_bytes = options.journal_batch_bytes,
              // Lingering only buys anything when each batch pays an fsync;
              // unsynced appends flush to the page cache immediately so a
              // process crash loses nothing it would not have lost before.
              .max_wait = options.sync_every_write
                              ? options.journal_batch_wait
                              : Duration::zero()}) {
  MetricsRegistry& reg = MetricsRegistry::global();
  metrics_.puts = &reg.counter("tiera_metadb_puts_total");
  metrics_.erases = &reg.counter("tiera_metadb_erases_total");
  metrics_.compactions = &reg.counter("tiera_metadb_compactions_total");
  metrics_.gc_batches = &reg.counter("tiera_metadb_group_commit_batches_total");
  metrics_.gc_records = &reg.counter("tiera_metadb_group_commit_records_total");
  metrics_.gc_fsyncs = &reg.counter("tiera_metadb_group_commit_fsyncs_total");
  metrics_.log_bytes = &reg.gauge("tiera_metadb_log_bytes");
  // A sticky journal failure is exactly the kind of state transition an
  // incident report needs on its timeline.
  journal_.set_error_observer([](const Status& error) {
    FlightRecorder::global().record_transition(
        "journal-error", 0, static_cast<std::uint64_t>(error.code()));
  });
}

MetaDb::~MetaDb() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

Result<std::unique_ptr<MetaDb>> MetaDb::open(std::string path,
                                             MetaDbOptions options,
                                             const ReplayFn& replay) {
  std::unique_ptr<MetaDb> db(new MetaDb(std::move(path), options));
  Result<std::uint64_t> valid = record_log::replay_file(
      db->path_, [&replay](std::string_view key, bool live, ByteView value,
                           std::uint64_t) { replay(key, live, value); });
  if (!valid.ok()) return valid.status();
  db->log_bytes_ = *valid;
  TIERA_RETURN_IF_ERROR(db->open_log());
  return db;
}

Status MetaDb::open_log() {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) return errno_status("metadb open");
  return Status::Ok();
}

std::uint32_t MetaDb::record_bytes(std::size_t key_len,
                                   std::size_t value_len) {
  return static_cast<std::uint32_t>(
      record_log::record_bytes(key_len, value_len));
}

std::uint64_t MetaDb::log_bytes() const {
  std::lock_guard lock(mu_);
  return log_bytes_;
}

bool MetaDb::wants_compaction(std::uint64_t dead_bytes) const {
  const std::uint64_t log = log_bytes();
  return log >= kCompactMinBytes &&
         static_cast<double>(dead_bytes) >
             kCompactDeadRatio * static_cast<double>(log);
}

std::uint64_t MetaDb::stage_record(std::uint8_t type, std::string_view key,
                                   ByteView value) {
  // Journal cost attribution: encode + stage (here) and the group-commit
  // wait (commit) both count as journal.append in the per-op breakdown.
  StageTimer stage(Stage::kJournalAppend);
  Bytes rec;
  rec.reserve(record_log::record_bytes(key.size(), value.size()));
  record_log::encode_record(type, key, value, rec);
  std::lock_guard lock(mu_);
  log_bytes_ += rec.size();
  metrics_.log_bytes->set(static_cast<double>(log_bytes_));
  return journal_.stage(as_view(rec));
}

std::uint64_t MetaDb::stage_put(std::string_view key, ByteView value) {
  metrics_.puts->inc();
  return stage_record(record_log::kPut, key, value);
}

std::uint64_t MetaDb::stage_erase(std::string_view key) {
  metrics_.erases->inc();
  return stage_record(record_log::kErase, key, {});
}

Status MetaDb::commit(std::uint64_t seq) {
  StageTimer stage(Stage::kJournalAppend);
  return journal_.commit(seq);
}

Status MetaDb::commit_writer(std::uint64_t seq, bool stay_open) {
  StageTimer stage(Stage::kJournalAppend);
  return journal_.commit_writer(seq, stay_open);
}

// The group-commit flush: one write (and one fsync when configured) for a
// whole batch of staged records. Runs outside mu_, but never concurrently
// with an fd_ swap — compaction drains the journal under mu_ first.
Status MetaDb::flush_batch(ByteView batch, std::uint64_t records) {
  metrics_.gc_batches->inc();
  metrics_.gc_records->inc(records);
  if (!record_log::write_all(fd_, batch)) return errno_status("metadb write");
  if (options_.sync_every_write) {
    if (::fsync(fd_) != 0) return errno_status("metadb fsync");
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    metrics_.gc_fsyncs->inc();
  }
  return Status::Ok();
}

Status MetaDb::sync() {
  // Flush anything still staged in the group-commit buffer, then fsync.
  TIERA_RETURN_IF_ERROR(journal_.drain());
  std::lock_guard lock(mu_);
  if (fd_ >= 0 && ::fsync(fd_) != 0) return errno_status("metadb fsync");
  return Status::Ok();
}

MetaDb::JournalStats MetaDb::journal_stats() const {
  const GroupCommitter::Stats s = journal_.stats();
  JournalStats out;
  out.batches = s.batches;
  out.records = s.records;
  out.max_batch_records = s.max_batch_records;
  out.fsyncs = fsyncs_.load(std::memory_order_relaxed);
  return out;
}

Status MetaDb::compact(
    const std::function<void(const LiveVisitor&)>& for_each_live) {
  // Drain staged records to the old fd before swapping it; mu_ is held, so
  // no new records can stage and no flush can be in flight once drain
  // returns.
  std::lock_guard lock(mu_);
  TIERA_RETURN_IF_ERROR(journal_.drain());
  metrics_.compactions->inc();
  const std::string tmp_path = path_ + ".compact";
  const int tmp_fd =
      ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (tmp_fd < 0) return errno_status("metadb open compact temp");

  std::uint64_t new_bytes = 0;
  std::uint64_t records = 0;
  bool written = true;
  Bytes rec;
  for_each_live([&](std::string_view key, ByteView value) {
    if (!written) return;
    rec.clear();
    record_log::encode_record(record_log::kPut, key, value, rec);
    written = record_log::write_all(tmp_fd, as_view(rec));
    new_bytes += rec.size();
    ++records;
  });
  if (!written || ::fsync(tmp_fd) != 0) {
    const Status error = errno_status("metadb write compact temp");
    ::close(tmp_fd);
    ::unlink(tmp_path.c_str());
    return error;
  }
  ::close(tmp_fd);
  if (::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    const Status error = errno_status("metadb rename compacted log");
    ::unlink(tmp_path.c_str());
    return error;
  }
  if (fd_ >= 0) ::close(fd_);
  TIERA_RETURN_IF_ERROR(open_log());
  log_bytes_ = new_bytes;
  metrics_.log_bytes->set(static_cast<double>(new_bytes));
  TIERA_LOG(kInfo, "metadb") << "compacted " << path_ << " to " << new_bytes
                             << " bytes (" << records << " records)";
  return Status::Ok();
}

}  // namespace tiera
