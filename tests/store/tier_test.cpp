#include "store/tier.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "store/file_tier.h"
#include "store/mem_tier.h"
#include "test_util.h"

namespace tiera {
namespace {

using testing::TempDir;
using testing::ZeroLatencyScope;

class TierKindsTest : public ::testing::TestWithParam<std::string> {
 protected:
  TierPtr make(std::uint64_t capacity) {
    const std::string& kind = GetParam();
    if (kind == "mem") return std::make_shared<MemTier>("mem", capacity);
    if (kind == "ephemeral") {
      return std::make_shared<EphemeralTier>("eph", capacity);
    }
    if (kind == "block") {
      return std::make_shared<BlockTier>("ebs", capacity, dir_.sub("block"));
    }
    return std::make_shared<ObjectTier>("s3", capacity, dir_.sub("object"));
  }

  ZeroLatencyScope zero_latency_;
  TempDir dir_;
};

TEST_P(TierKindsTest, PutGetRemove) {
  auto tier = make(1 << 20);
  const Bytes payload = make_payload(4096, 1);
  ASSERT_TRUE(tier->put("obj1", as_view(payload)).ok());
  EXPECT_TRUE(tier->contains("obj1"));
  auto got = tier->get("obj1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, payload);
  ASSERT_TRUE(tier->remove("obj1").ok());
  EXPECT_FALSE(tier->contains("obj1"));
  EXPECT_TRUE(tier->get("obj1").status().is_not_found());
}

TEST_P(TierKindsTest, UsageAccounting) {
  auto tier = make(1 << 20);
  EXPECT_EQ(tier->used(), 0u);
  ASSERT_TRUE(tier->put("a", as_view(make_payload(1000, 1))).ok());
  EXPECT_EQ(tier->used(), 1000u);
  ASSERT_TRUE(tier->put("b", as_view(make_payload(500, 2))).ok());
  EXPECT_EQ(tier->used(), 1500u);
  // Overwrite replaces, not adds.
  ASSERT_TRUE(tier->put("a", as_view(make_payload(200, 3))).ok());
  EXPECT_EQ(tier->used(), 700u);
  ASSERT_TRUE(tier->remove("b").ok());
  EXPECT_EQ(tier->used(), 200u);
  EXPECT_EQ(tier->object_count(), 1u);
}

TEST_P(TierKindsTest, CapacityEnforced) {
  auto tier = make(1000);
  ASSERT_TRUE(tier->put("a", as_view(make_payload(800, 1))).ok());
  const Status s = tier->put("b", as_view(make_payload(300, 2)));
  EXPECT_TRUE(s.is_capacity_exceeded());
  EXPECT_FALSE(tier->contains("b"));
  // Replacing the existing object with a same-size one is fine.
  EXPECT_TRUE(tier->put("a", as_view(make_payload(900, 3))).ok());
}

TEST_P(TierKindsTest, FillFraction) {
  auto tier = make(1000);
  EXPECT_DOUBLE_EQ(tier->fill_fraction(), 0.0);
  ASSERT_TRUE(tier->put("a", as_view(make_payload(750, 1))).ok());
  EXPECT_DOUBLE_EQ(tier->fill_fraction(), 0.75);
}

TEST_P(TierKindsTest, GrowAndShrink) {
  auto tier = make(1000);
  ASSERT_TRUE(tier->grow(100).ok());
  EXPECT_EQ(tier->capacity(), 2000u);
  ASSERT_TRUE(tier->shrink(25).ok());
  EXPECT_EQ(tier->capacity(), 1500u);
  EXPECT_FALSE(tier->grow(-5).ok());
  EXPECT_FALSE(tier->shrink(0).ok());
  EXPECT_FALSE(tier->shrink(150).ok());
}

TEST_P(TierKindsTest, ShrinkBelowUsageRefused) {
  auto tier = make(1000);
  ASSERT_TRUE(tier->put("a", as_view(make_payload(900, 1))).ok());
  EXPECT_TRUE(tier->shrink(50).is_capacity_exceeded());
  EXPECT_EQ(tier->capacity(), 1000u);
}

TEST_P(TierKindsTest, FailStopInjection) {
  auto tier = make(1 << 20);
  ASSERT_TRUE(tier->put("a", as_view(make_payload(10, 1))).ok());
  tier->inject_failure(FailureMode::kFailStop);
  EXPECT_TRUE(tier->put("b", as_view(make_payload(10, 2))).is_unavailable());
  EXPECT_TRUE(tier->get("a").status().is_unavailable());
  EXPECT_TRUE(tier->remove("a").is_unavailable());
  tier->heal();
  EXPECT_TRUE(tier->get("a").ok());
  EXPECT_GT(tier->stats().failed_ops.load(), 0u);
}

TEST_P(TierKindsTest, TimeoutInjection) {
  auto tier = make(1 << 20);
  tier->inject_failure(FailureMode::kTimeout, from_ms(5));
  EXPECT_TRUE(tier->put("a", as_view(make_payload(10, 1))).is_timed_out());
  tier->heal();
  EXPECT_EQ(tier->failure_mode(), FailureMode::kNone);
}

TEST_P(TierKindsTest, StatsCountOps) {
  auto tier = make(1 << 20);
  ASSERT_TRUE(tier->put("a", as_view(make_payload(100, 1))).ok());
  (void)tier->get("a");
  (void)tier->get("missing");
  ASSERT_TRUE(tier->remove("a").ok());
  EXPECT_EQ(tier->stats().puts.load(), 1u);
  EXPECT_EQ(tier->stats().gets.load(), 2u);
  EXPECT_EQ(tier->stats().removes.load(), 1u);
  EXPECT_EQ(tier->stats().bytes_written.load(), 100u);
  EXPECT_EQ(tier->stats().bytes_read.load(), 100u);
  EXPECT_EQ(tier->stats().total_requests(), 4u);
}

TEST_P(TierKindsTest, ForEachKeyListsAll) {
  auto tier = make(1 << 20);
  std::set<std::string> expected;
  for (int i = 0; i < 10; ++i) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(tier->put(key, as_view(make_payload(10, i))).ok());
    expected.insert(key);
  }
  std::set<std::string> seen;
  tier->for_each_key([&](std::string_view k) { seen.insert(std::string(k)); });
  EXPECT_EQ(seen, expected);
}

TEST_P(TierKindsTest, ConcurrentPutsAndGets) {
  auto tier = make(64 << 20);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const std::string key = "t" + std::to_string(t) + "-" +
                                std::to_string(i);
        const Bytes payload = make_payload(256, t * 1000 + i);
        if (!tier->put(key, as_view(payload)).ok()) failures.fetch_add(1);
        auto got = tier->get(key);
        if (!got.ok() || *got != payload) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(tier->object_count(), 1600u);
}

// Racing puts of distinct keys into a tier with room for kFit of them, each
// removed again so the tier stays at the edge of full: the capacity check and
// the usage update are one step, so used() never passes the capacity, and it
// ends equal to the bytes actually stored.
TEST_P(TierKindsTest, ConcurrentPutsNeverOverfill) {
  constexpr std::uint64_t kObject = 1000;
  constexpr std::uint64_t kFit = 5;
  auto tier = make(kFit * kObject);
  const Bytes payload = make_payload(kObject, 1);
  std::atomic<bool> go{false};
  std::atomic<bool> overfilled{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 4000; ++i) {
        const std::string key = "t" + std::to_string(t) + "-" +
                                std::to_string(i);
        if (!tier->put(key, as_view(payload)).ok()) continue;
        if (tier->used() > kFit * kObject) overfilled.store(true);
        (void)tier->remove(key);
      }
    });
  }
  go.store(true);
  for (auto& th : threads) th.join();
  EXPECT_FALSE(overfilled.load());
  std::vector<std::string> keys;
  tier->for_each_key([&](std::string_view key) { keys.emplace_back(key); });
  std::uint64_t stored = 0;
  for (const auto& key : keys) stored += tier->get(key).value().size();
  EXPECT_EQ(tier->used(), stored);
  EXPECT_LE(stored, kFit * kObject);
}

INSTANTIATE_TEST_SUITE_P(AllTierKinds, TierKindsTest,
                         ::testing::Values("mem", "ephemeral", "block",
                                           "object"));

TEST(MemTierTest, RebootLosesData) {
  ZeroLatencyScope zero;
  MemTier tier("mem", 1 << 20);
  ASSERT_TRUE(tier.put("a", as_view(make_payload(100, 1))).ok());
  tier.reboot();
  EXPECT_FALSE(tier.contains("a"));
  EXPECT_EQ(tier.used(), 0u);
}

TEST(EphemeralTierTest, RebootLosesData) {
  ZeroLatencyScope zero;
  EphemeralTier tier("eph", 1 << 20);
  ASSERT_TRUE(tier.put("a", as_view(make_payload(100, 1))).ok());
  tier.reboot();
  EXPECT_FALSE(tier.contains("a"));
  EXPECT_FALSE(tier.durable());
}

TEST(FileTierTest, SurvivesReopen) {
  ZeroLatencyScope zero;
  TempDir dir;
  const Bytes payload = make_payload(5000, 42);
  {
    BlockTier tier("ebs", 1 << 20, dir.sub("vol"));
    ASSERT_TRUE(tier.put("persisted", as_view(payload)).ok());
  }
  BlockTier tier("ebs", 1 << 20, dir.sub("vol"));
  EXPECT_TRUE(tier.contains("persisted"));
  EXPECT_EQ(tier.used(), payload.size());
  auto got = tier.get("persisted");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, payload);
  EXPECT_TRUE(tier.durable());
}

TEST(FileTierTest, WipeClearsDiskAndIndex) {
  ZeroLatencyScope zero;
  TempDir dir;
  BlockTier tier("ebs", 1 << 20, dir.sub("vol"));
  ASSERT_TRUE(tier.put("a", as_view(make_payload(10, 1))).ok());
  tier.wipe();
  EXPECT_EQ(tier.object_count(), 0u);
  EXPECT_EQ(tier.used(), 0u);
  BlockTier reopened("ebs", 1 << 20, dir.sub("vol"));
  EXPECT_EQ(reopened.object_count(), 0u);
}

TEST(BlockTierTest, PageCacheSpeedsRepeatReads) {
  testing::ZeroLatencyScope scale(0.05);
  TempDir dir;
  BlockTier tier("ebs", 1 << 20, dir.sub("vol"));
  tier.set_page_cache_bytes(1 << 20);
  const Bytes payload = make_payload(4096, 7);
  ASSERT_TRUE(tier.put("hot", as_view(payload)).ok());

  // First read after the write is already cached (writes warm the cache);
  // compare against a cache-disabled tier instead.
  Stopwatch cached_watch;
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(tier.get("hot").ok());
  const double cached_ms = cached_watch.elapsed_ms();

  BlockTier cold("ebs2", 1 << 20, dir.sub("vol2"));
  ASSERT_TRUE(cold.put("hot", as_view(payload)).ok());
  Stopwatch cold_watch;
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(cold.get("hot").ok());
  const double cold_ms = cold_watch.elapsed_ms();

  EXPECT_LT(cached_ms * 2, cold_ms);
  EXPECT_GT(tier.cache_hit_rate(), 0.9);
}

TEST(BlockTierTest, PageCacheEvictsByCapacity) {
  ZeroLatencyScope zero;
  TempDir dir;
  BlockTier tier("ebs", 16 << 20, dir.sub("vol"));
  tier.set_page_cache_bytes(8192);  // two 4K objects
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tier.put("k" + std::to_string(i),
                         as_view(make_payload(4096, i)))
                    .ok());
  }
  // Only the two most recent writes are cached; rereading old keys misses.
  (void)tier.get("k0");
  (void)tier.get("k1");
  EXPECT_LT(tier.cache_hit_rate(), 0.5);
}


TEST(IoSlotsTest, BoundedConcurrencyQueues) {
  testing::ZeroLatencyScope scale(1.0);
  MemTier tier("m", 1 << 20);
  tier.set_io_slots(1);
  EXPECT_EQ(tier.io_slots(), 1u);
  // Two concurrent 20ms operations must serialise: total >= ~40ms.
  ASSERT_TRUE(tier.put("warm", as_view(make_payload(8, 1))).ok());
  Stopwatch watch;
  std::thread a([&] {
    // Large payloads so per-MB cost dominates: ~8ms/MB * 2MB = 16ms each.
    (void)tier.put("a", as_view(make_payload(2 << 20, 2)));
  });
  std::thread b([&] { (void)tier.put("b", as_view(make_payload(2 << 20, 3))); });
  a.join();
  b.join();
  const double serialized = watch.elapsed_ms();
  tier.set_io_slots(0);  // unlimited
  Stopwatch watch2;
  std::thread c([&] { (void)tier.put("c", as_view(make_payload(2 << 20, 4))); });
  std::thread d([&] { (void)tier.put("d", as_view(make_payload(2 << 20, 5))); });
  c.join();
  d.join();
  const double parallel = watch2.elapsed_ms();
  EXPECT_GT(serialized, parallel * 1.2);
}

TEST(TierKindNamesTest, ToString) {
  EXPECT_EQ(to_string(TierKind::kMemory), "memory");
  EXPECT_EQ(to_string(TierKind::kBlock), "block");
  EXPECT_EQ(to_string(TierKind::kEphemeral), "ephemeral");
  EXPECT_EQ(to_string(TierKind::kObject), "object");
}

}  // namespace
}  // namespace tiera
