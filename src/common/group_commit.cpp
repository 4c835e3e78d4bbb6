#include "common/group_commit.h"

#include <algorithm>
#include <utility>

namespace tiera {

GroupCommitter::GroupCommitter(FlushFn flush, Options options)
    : flush_(std::move(flush)), options_(options) {}

std::uint64_t GroupCommitter::stage(ByteView record) {
  std::lock_guard lock(mu_);
  append(staged_, record);
  ++staged_records_;
  const std::uint64_t seq = ++staged_seq_;
  // A lingering leader waits for bytes to accumulate; wake it if this
  // record filled the batch.
  if (staged_.size() >= options_.max_batch_bytes) cv_.notify_all();
  return seq;
}

void GroupCommitter::open_writer() {
  std::lock_guard lock(mu_);
  ++open_writers_;
}

Status GroupCommitter::commit_writer(std::uint64_t seq, bool stay_open) {
  std::unique_lock lock(mu_);
  // The last open writer ends a leader's linger.
  if (--open_writers_ == 0) cv_.notify_all();
  const Status status =
      seq == 0 ? Status::Ok() : commit_locked(lock, seq, /*linger=*/true);
  if (stay_open) ++open_writers_;
  return status;
}

Status GroupCommitter::commit(std::uint64_t seq) {
  std::unique_lock lock(mu_);
  // A plain committer whose record no leader has taken yet joins the next
  // batch; the last of the previous batch's to come back ends the linger.
  if (seq > taken_seq_ && ++plain_committers_ == plain_peers_) {
    cv_.notify_all();
  }
  return commit_locked(lock, seq, /*linger=*/true);
}

Status GroupCommitter::drain() {
  std::unique_lock lock(mu_);
  return commit_locked(lock, staged_seq_, /*linger=*/false);
}

Status GroupCommitter::commit_locked(std::unique_lock<std::mutex>& lock,
                                     std::uint64_t seq, bool linger) {
  if (seq > wanted_seq_) {
    wanted_seq_ = seq;
    publish_pending();
  }
  for (;;) {
    if (flushed_seq_ >= seq) return sticky_;
    if (!flushing_) break;  // become the leader
    cv_.wait(lock);
  }
  flushing_ = true;

  if (linger && options_.max_wait > Duration::zero()) {
    // Wait for the writers that will commit soon: until no announced
    // writer is open and as many plain committers as shared the last batch
    // (if more than one did) are back, the batch fills, or the window
    // closes. commit_writer() and commit() notify when the wait is over,
    // stage() when it fills the batch early.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              options_.max_wait);
    const auto expecting = [this] {
      return open_writers_ > 0 ||
             (plain_peers_ > 1 && plain_committers_ < plain_peers_);
    };
    while (expecting() && staged_.size() < options_.max_batch_bytes) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
    }
  }

  plain_peers_ = std::exchange(plain_committers_, 0);
  Bytes batch = std::move(staged_);
  staged_.clear();
  const std::uint64_t batch_records = staged_records_;
  staged_records_ = 0;
  const std::uint64_t batch_seq = staged_seq_;
  taken_seq_ = batch_seq;

  Status status = Status::Ok();
  if (!batch.empty()) {
    lock.unlock();
    status = flush_(as_view(batch), batch_records);
    lock.lock();
    stats_.batches += 1;
    stats_.records += batch_records;
    stats_.max_batch_records =
        std::max(stats_.max_batch_records, batch_records);
    flushed_batches_.fetch_add(1, std::memory_order_relaxed);
  }
  flushed_seq_ = batch_seq;
  publish_pending();
  const bool first_error = !status.ok() && sticky_.ok();
  if (first_error) sticky_ = status;
  flushing_ = false;
  cv_.notify_all();
  if (first_error && error_observer_) {
    const auto observer = error_observer_;
    const Status error = status;
    lock.unlock();
    observer(error);
    lock.lock();
  }
  return sticky_;
}

void GroupCommitter::publish_pending() {
  pending_records_.store(
      wanted_seq_ > flushed_seq_ ? wanted_seq_ - flushed_seq_ : 0,
      std::memory_order_relaxed);
}

GroupCommitter::Stats GroupCommitter::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void GroupCommitter::set_error_observer(
    std::function<void(const Status&)> observer) {
  std::lock_guard lock(mu_);
  error_observer_ = std::move(observer);
}

}  // namespace tiera
