#include "store/file_tier.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/record_log.h"

namespace fs = std::filesystem;

namespace tiera {

namespace {

// Dead-record accounting mirrors the log's framing: header + key + value.
using record_log::record_bytes;

// Compact once the log passes this size with mostly dead bytes.
constexpr std::uint64_t kCompactMinBytes = 8ull << 20;
constexpr double kCompactDeadRatio = 0.5;

// RAM-copy latency for a modelled page-cache hit.
LatencyModel cache_hit_model() {
  return {.read_base = from_ms(0.02),
          .write_base = from_ms(0.02),
          .read_per_mb = from_ms(0.4),
          .write_per_mb = from_ms(0.4),
          .jitter = 0.10};
}

}  // namespace

FileTier::FileTier(std::string name, TierKind kind,
                   std::uint64_t capacity_bytes, std::string directory,
                   LatencyModel latency, TierPricing pricing)
    : Tier(std::move(name), kind, capacity_bytes, latency, pricing),
      directory_(std::move(directory)) {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  open_log();
  migrate_legacy_files();
  std::uint64_t total = 0;
  for (const auto& [key, loc] : index_) total += loc.length;
  reset_usage();
  add_reloaded_usage(total);
  if (!index_.empty()) {
    TIERA_LOG(kInfo, "store") << this->name() << " reloaded " << index_.size()
                              << " objects (" << total << " bytes) from "
                              << directory_;
  }
}

void FileTier::open_log() {
  auto log = SegmentLog::open(
      directory_, SegmentLogOptions{},
      [this](std::string_view key, bool live, const LogLocation& loc) {
        auto it = index_.find(std::string(key));
        if (it != index_.end()) {
          dead_bytes_ += record_bytes(key.size(), it->second.length);
          if (!live) {
            // Tombstone: the record itself is dead weight too.
            dead_bytes_ += record_bytes(key.size(), 0);
            index_.erase(it);
            return;
          }
          it->second = loc;
        } else if (live) {
          index_.emplace(std::string(key), loc);
        } else {
          dead_bytes_ += record_bytes(key.size(), 0);
        }
      });
  if (!log.ok()) {
    TIERA_LOG(kError, "store") << name() << " segment log open failed: "
                               << log.status().to_string();
    return;
  }
  log_ = std::move(log).value();
}

// One-time import of directories written by the old one-file-per-object
// format (filename = hex key, or hex prefix + sha when too long): append
// each file's bytes to the log, then remove the file.
void FileTier::migrate_legacy_files() {
  if (!log_) return;
  std::error_code ec;
  std::size_t migrated = 0;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string hex = entry.path().filename().string();
    if (hex.rfind("seg-", 0) == 0) continue;
    std::string key;
    bool decodable = hex.find('-') == std::string::npos && hex.size() % 2 == 0;
    if (decodable) {
      key.reserve(hex.size() / 2);
      for (std::size_t i = 0; decodable && i + 1 < hex.size(); i += 2) {
        auto nibble = [&](char c) -> int {
          if (c >= '0' && c <= '9') return c - '0';
          if (c >= 'a' && c <= 'f') return c - 'a' + 10;
          return -1;
        };
        const int hi = nibble(hex[i]);
        const int lo = nibble(hex[i + 1]);
        if (hi < 0 || lo < 0) {
          decodable = false;
          break;
        }
        key.push_back(static_cast<char>((hi << 4) | lo));
      }
    }
    if (!decodable) key = hex;
    std::ifstream in(entry.path(), std::ios::binary);
    Bytes value((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
    if (!in && !in.eof()) continue;
    auto loc = log_->append(key, as_view(value));
    if (!loc.ok()) continue;
    auto it = index_.find(key);
    if (it != index_.end()) {
      dead_bytes_ += record_bytes(key.size(), it->second.length);
      it->second = *loc;
    } else {
      index_.emplace(std::move(key), *loc);
    }
    fs::remove(entry.path(), ec);
    ++migrated;
  }
  if (migrated > 0) {
    TIERA_LOG(kInfo, "store") << name() << " migrated " << migrated
                              << " legacy object files into the segment log";
  }
}

Status FileTier::store_raw(std::string_view key, ByteView value) {
  if (!log_) return Status::Internal(name() + ": segment log unavailable");
  std::lock_guard lock(index_mu_);
  auto loc = log_->append(key, value);
  if (!loc.ok()) return loc.status();
  auto it = index_.find(std::string(key));
  if (it != index_.end()) {
    dead_bytes_ += record_bytes(key.size(), it->second.length);
    it->second = *loc;
  } else {
    index_.emplace(std::string(key), *loc);
  }
  return maybe_compact_locked();
}

// >= not >: after one full overwrite generation the log is exactly half
// dead, and a strict compare would stall compaction right at the boundary
// while every further generation keeps appending.
Status FileTier::maybe_compact_locked() {
  if (!log_) return Status::Ok();
  if (log_->log_bytes() >= kCompactMinBytes &&
      static_cast<double>(dead_bytes_) >=
          kCompactDeadRatio * static_cast<double>(log_->log_bytes())) {
    return compact_locked();
  }
  return Status::Ok();
}

Result<Bytes> FileTier::load_raw(std::string_view key) const {
  // The location is fetched under the index lock but the pread runs outside
  // it; a compaction can relocate the value in between (its old segment
  // disappears), so retry with a fresh location rather than surfacing a
  // spurious miss.
  for (int attempt = 0; attempt < 3; ++attempt) {
    LogLocation loc;
    {
      std::lock_guard lock(index_mu_);
      auto it = index_.find(std::string(key));
      if (it == index_.end()) {
        return Status::NotFound(name() + ": no such object");
      }
      loc = it->second;
    }
    if (!log_) return Status::Internal(name() + ": segment log unavailable");
    auto value = log_->read(loc, key);
    if (value.ok() || value.status().code() != StatusCode::kNotFound) {
      return value;
    }
  }
  return Status::Internal(name() + ": object relocated repeatedly");
}

Status FileTier::erase_raw(std::string_view key) {
  if (!log_) return Status::Internal(name() + ": segment log unavailable");
  std::lock_guard lock(index_mu_);
  auto it = index_.find(std::string(key));
  if (it == index_.end()) return Status::Ok();
  dead_bytes_ += record_bytes(key.size(), it->second.length);
  dead_bytes_ += record_bytes(key.size(), 0);  // the tombstone itself
  index_.erase(it);
  TIERA_RETURN_IF_ERROR(log_->append_tombstone(key));
  // Erase-heavy churn (exclusive caching demotes/promotes) adds dead bytes
  // without ever passing through store_raw, so check the trigger here too.
  return maybe_compact_locked();
}

bool FileTier::contains_raw(std::string_view key) const {
  std::lock_guard lock(index_mu_);
  return index_.count(std::string(key)) > 0;
}

std::optional<std::uint64_t> FileTier::size_raw(std::string_view key) const {
  std::lock_guard lock(index_mu_);
  auto it = index_.find(std::string(key));
  if (it == index_.end()) return std::nullopt;
  return it->second.length;
}

std::size_t FileTier::count_raw() const {
  std::lock_guard lock(index_mu_);
  return index_.size();
}

void FileTier::keys_raw(
    const std::function<void(std::string_view)>& fn) const {
  std::lock_guard lock(index_mu_);
  for (const auto& [key, loc] : index_) fn(key);
}

void FileTier::wipe() {
  std::lock_guard lock(index_mu_);
  if (log_) (void)log_->wipe();
  index_.clear();
  dead_bytes_ = 0;
  reset_usage();
}

std::uint64_t FileTier::log_bytes() const {
  return log_ ? log_->log_bytes() : 0;
}

std::uint64_t FileTier::dead_log_bytes() const {
  std::lock_guard lock(index_mu_);
  return dead_bytes_;
}

Status FileTier::compact_log() {
  std::lock_guard lock(index_mu_);
  return compact_locked();
}

Status FileTier::compact_locked() {
  if (!log_) return Status::Internal(name() + ": segment log unavailable");
  std::vector<std::string> dropped;  // damaged values compaction left out
  TIERA_RETURN_IF_ERROR(log_->compact(
      [this](const SegmentLog::LiveVisitor& visit) {
        for (const auto& [key, loc] : index_) visit(key, loc);
      },
      [this, &dropped](std::string_view key, const LogLocation* loc) {
        if (loc == nullptr) {
          dropped.emplace_back(key);  // erased below: index_ is being walked
        } else {
          index_[std::string(key)] = *loc;
        }
      }));
  for (const std::string& key : dropped) {
    const auto it = index_.find(key);
    release_usage(it->second.length);
    index_.erase(it);
  }
  dead_bytes_ = 0;
  return Status::Ok();
}

// --- BlockTier --------------------------------------------------------------

BlockTier::BlockTier(std::string name, std::uint64_t capacity_bytes,
                     std::string directory, LatencyModel latency,
                     TierPricing pricing)
    : FileTier(std::move(name), TierKind::kBlock, capacity_bytes,
               std::move(directory), latency, pricing) {
  // A block volume has a bounded effective queue depth; memory and object
  // services scale out and stay unlimited.
  set_io_slots(8);
}

void BlockTier::set_page_cache_bytes(std::uint64_t bytes) {
  std::lock_guard lock(cache_mu_);
  cache_.capacity = bytes;
  while (cache_.bytes > cache_.capacity && !cache_.lru.empty()) {
    const std::string& victim = cache_.lru.back();
    auto it = cache_.entries.find(victim);
    cache_.bytes -= it->second.second;
    cache_.entries.erase(it);
    cache_.lru.pop_back();
  }
}

std::uint64_t BlockTier::page_cache_bytes() const {
  std::lock_guard lock(cache_mu_);
  return cache_.capacity;
}

double BlockTier::cache_hit_rate() const {
  std::lock_guard lock(cache_mu_);
  const std::uint64_t total = cache_.hits + cache_.misses;
  return total ? static_cast<double>(cache_.hits) /
                     static_cast<double>(total)
               : 0.0;
}

bool BlockTier::cache_touch(std::string_view key, std::uint64_t size) const {
  std::lock_guard lock(cache_mu_);
  if (cache_.capacity == 0) return false;
  auto it = cache_.entries.find(std::string(key));
  if (it != cache_.entries.end()) {
    cache_.lru.splice(cache_.lru.begin(), cache_.lru, it->second.first);
    ++cache_.hits;
    return true;
  }
  ++cache_.misses;
  if (size > cache_.capacity) return false;  // too big to cache
  cache_.lru.emplace_front(key);
  cache_.entries[std::string(key)] = {cache_.lru.begin(), size};
  cache_.bytes += size;
  while (cache_.bytes > cache_.capacity && !cache_.lru.empty()) {
    const std::string victim = cache_.lru.back();
    auto vit = cache_.entries.find(victim);
    cache_.bytes -= vit->second.second;
    cache_.entries.erase(vit);
    cache_.lru.pop_back();
  }
  return false;
}

Duration BlockTier::sample_read_delay(std::string_view key,
                                      std::uint64_t bytes, Rng& rng) {
  if (cache_touch(key, bytes)) {
    return cache_hit_model().sample_read(bytes, rng);
  }
  return Tier::sample_read_delay(key, bytes, rng);
}

Duration BlockTier::sample_write_delay(std::string_view key,
                                       std::uint64_t bytes, Rng& rng) {
  // Writes always pay the device (EBS acknowledges at the volume), but they
  // warm the modelled cache for subsequent reads.
  cache_touch(key, bytes);
  return Tier::sample_write_delay(key, bytes, rng);
}

// --- ObjectTier -------------------------------------------------------------

ObjectTier::ObjectTier(std::string name, std::uint64_t capacity_bytes,
                       std::string directory, LatencyModel latency,
                       TierPricing pricing)
    : FileTier(std::move(name), TierKind::kObject, capacity_bytes,
               std::move(directory), latency, pricing) {}

// --- EphemeralTier ----------------------------------------------------------

EphemeralTier::EphemeralTier(std::string name, std::uint64_t capacity_bytes,
                             LatencyModel latency)
    : Tier(std::move(name), TierKind::kEphemeral, capacity_bytes, latency,
           TierPricing{}) {
  set_io_slots(8);  // local disk: bounded queue depth, like a block volume
}

Status EphemeralTier::store_raw(std::string_view key, ByteView value) {
  map_.put(key, value);
  return Status::Ok();
}

Result<Bytes> EphemeralTier::load_raw(std::string_view key) const {
  auto value = map_.get(key);
  if (!value) return Status::NotFound(name() + ": no such object");
  return std::move(*value);
}

Status EphemeralTier::erase_raw(std::string_view key) {
  map_.erase(key);
  return Status::Ok();
}

bool EphemeralTier::contains_raw(std::string_view key) const {
  return map_.contains(key);
}

std::optional<std::uint64_t> EphemeralTier::size_raw(
    std::string_view key) const {
  return map_.size_of(key);
}

std::size_t EphemeralTier::count_raw() const { return map_.size(); }

void EphemeralTier::keys_raw(
    const std::function<void(std::string_view)>& fn) const {
  map_.for_each_key(fn);
}

}  // namespace tiera
