// CostMeter unit tests: storage accrual integration (used vs capacity
// billing), request deltas billed exactly once, egress from client reads and
// rule moves, per-rule attribution, and the ledger-vs-view invariant (tier
// accounts sum to the total; rule accounts do not add to it).
//
// Tier labels are unique per test: the per-tier byte counters are global
// registry series, so a reused label would leak bytes across tests.
#include "obs/cost_meter.h"

#include <gtest/gtest.h>

#include <chrono>

namespace tiera {
namespace {

constexpr std::uint64_t kGiB = 1024ull * 1024 * 1024;

// One tenth of the billing month, as a modelled-time duration.
Duration tenth_month() {
  return std::chrono::duration_cast<Duration>(std::chrono::duration<double>(
      kCostMeterSecondsPerMonth / 10.0));
}

TEST(CostMeterTest, StorageIntegratesOverOccupiedTime) {
  CostMeter meter("cm-storage");
  meter.add_tier("st-m1", {.dollars_per_gb_month = 0.10});
  std::vector<TierUsage> usage = {
      {.label = "st-m1", .used_bytes = 10 * kGiB, .capacity_bytes = 100 * kGiB}};
  // 10 GB at $0.10/GB-month for a tenth of a month: $0.10.
  meter.accrue(usage, tenth_month());
  auto snap = meter.snapshot();
  ASSERT_EQ(snap.tiers.size(), 1u);
  EXPECT_NEAR(snap.tiers[0].storage_dollars, 0.10, 1e-9);
  EXPECT_NEAR(snap.total_dollars, 0.10, 1e-9);
  // Another tenth doubles it — integration, not a point charge.
  meter.accrue(usage, tenth_month());
  EXPECT_NEAR(meter.snapshot().tiers[0].storage_dollars, 0.20, 1e-9);
  // Burn extrapolates current occupancy: $1.00/month.
  EXPECT_NEAR(meter.snapshot().tiers[0].monthly_burn_dollars, 1.0, 1e-6);
}

TEST(CostMeterTest, ProvisionedTiersBillCapacity) {
  CostMeter meter("cm-capacity");
  meter.add_tier("cap-b1",
                 {.dollars_per_gb_month = 0.10, .bill_by_capacity = true});
  std::vector<TierUsage> usage = {
      {.label = "cap-b1", .used_bytes = kGiB, .capacity_bytes = 50 * kGiB}};
  meter.accrue(usage, tenth_month());
  // 50 GB provisioned at $0.10/GB-month for a tenth of a month: $0.50 —
  // the EBS-style bill ignores the single GB actually used.
  EXPECT_NEAR(meter.snapshot().tiers[0].storage_dollars, 0.50, 1e-9);
}

TEST(CostMeterTest, RequestDeltasAreBilledExactlyOnce) {
  CostMeter meter("cm-request");
  meter.add_tier("req-t1", {.dollars_per_put = 1e-5, .dollars_per_get = 1e-6,
                            .dollars_per_io = 1e-7});
  std::vector<TierUsage> usage = {
      {.label = "req-t1", .puts = 1000, .gets = 10000, .removes = 100}};
  meter.accrue(usage, tenth_month());
  // 1000 puts + 10000 gets + 11100 total ops.
  const double first = 1000 * 1e-5 + 10000 * 1e-6 + 11100 * 1e-7;
  EXPECT_NEAR(meter.snapshot().tiers[0].request_dollars, first, 1e-12);
  // Accruing again with unchanged cumulative counts bills nothing new.
  meter.accrue(usage, tenth_month());
  EXPECT_NEAR(meter.snapshot().tiers[0].request_dollars, first, 1e-12);
  // Only the delta (500 more gets) is billed on the next pass.
  usage[0].gets = 10500;
  meter.accrue(usage, tenth_month());
  EXPECT_NEAR(meter.snapshot().tiers[0].request_dollars,
              first + 500 * 1e-6 + 500 * 1e-7, 1e-12);
}

TEST(CostMeterTest, ClientReadsBillEgress) {
  CostMeter meter("cm-egress");
  meter.add_tier("eg-t2", {.dollars_per_gb_egress = 0.12});
  std::vector<TierUsage> usage = {{.label = "eg-t2"}};
  meter.record_client_read("eg-t2", 2 * kGiB);
  meter.record_client_write("eg-t2", 5 * kGiB);  // ingress: free
  meter.accrue(usage, tenth_month());
  auto snap = meter.snapshot();
  EXPECT_NEAR(snap.tiers[0].egress_dollars, 0.24, 1e-9);
  EXPECT_EQ(snap.tiers[0].client_read_bytes, 2 * kGiB);
  EXPECT_EQ(snap.tiers[0].client_write_bytes, 5 * kGiB);
  // No new reads: no new egress.
  meter.accrue(usage, tenth_month());
  EXPECT_NEAR(meter.snapshot().tiers[0].egress_dollars, 0.24, 1e-9);
}

TEST(CostMeterTest, RuleMovesChargeTheRuleAndStageSourceEgress) {
  CostMeter meter("cm-rule");
  meter.add_tier("rm-m1", {.dollars_per_get = 1e-6});
  meter.add_tier("rm-t2",
                 {.dollars_per_put = 1e-5, .dollars_per_gb_egress = 0.0});
  // A demotion rule moves 1 GiB (one object) from m1 to t2, where m1 charges
  // $0.05/GB egress.
  CostRates m1_rates{.dollars_per_get = 1e-6, .dollars_per_gb_egress = 0.05};
  meter.add_tier("rm-m1", m1_rates);  // refresh rates on the existing account
  meter.record_rule_move(7, "demote-cold", "rm-m1", "rm-t2", kGiB);
  auto snap = meter.snapshot();
  ASSERT_EQ(snap.rules.size(), 1u);
  EXPECT_EQ(snap.rules[0].rule_id, 7u);
  EXPECT_EQ(snap.rules[0].rule_name, "demote-cold");
  EXPECT_EQ(snap.rules[0].bytes_moved, kGiB);
  EXPECT_EQ(snap.rules[0].objects_moved, 1u);
  // dest put ($1e-5) + src get ($1e-6) + src egress ($0.05).
  EXPECT_NEAR(snap.rules[0].dollars, 1e-5 + 1e-6 + 0.05, 1e-12);
  // The rule table is a view: the ledger total is still zero until the next
  // accrue() bills the staged source egress into m1's account.
  EXPECT_NEAR(snap.total_dollars, 0.0, 1e-12);
  std::vector<TierUsage> usage = {{.label = "rm-m1"}, {.label = "rm-t2"}};
  meter.accrue(usage, tenth_month());
  snap = meter.snapshot();
  double ledger = 0;
  for (const auto& tier : snap.tiers) {
    if (tier.tier == "rm-m1") {
      EXPECT_NEAR(tier.egress_dollars, 0.05, 1e-9);
    }
    ledger += tier.total();
  }
  EXPECT_NEAR(snap.total_dollars, ledger, 1e-12);
}

TEST(CostMeterTest, UnattributedMovesLandOnRuleZero) {
  CostMeter meter("cm-unattributed");
  meter.add_tier("ua-t1", {.dollars_per_put = 1e-5});
  meter.record_rule_move(0, {}, /*src_tier=*/"", "ua-t1", 4096);
  auto snap = meter.snapshot();
  ASSERT_EQ(snap.rules.size(), 1u);
  EXPECT_EQ(snap.rules[0].rule_id, 0u);
  EXPECT_EQ(snap.rules[0].rule_name, "unattributed");
  EXPECT_NEAR(snap.rules[0].dollars, 1e-5, 1e-12);  // put only, no source
}

TEST(CostMeterTest, UnknownTiersAreDropped) {
  CostMeter meter("cm-unknown");
  meter.record_client_read("nope", 1024);   // no account: dropped, no crash
  meter.record_client_write("nope", 1024);
  meter.record_rule_move(1, "r", "nope", "nope", 1024);
  auto snap = meter.snapshot();
  EXPECT_TRUE(snap.tiers.empty());
  ASSERT_EQ(snap.rules.size(), 1u);  // the rule is tracked, just at $0
  EXPECT_NEAR(snap.rules[0].dollars, 0.0, 1e-12);
}

TEST(CostMeterTest, SnapshotSortsRulesBySpend) {
  CostMeter meter("cm-sort");
  meter.add_tier("so-t1", {.dollars_per_put = 1e-5});
  meter.record_rule_move(1, "small", "", "so-t1", 100, /*objects=*/1);
  meter.record_rule_move(2, "big", "", "so-t1", 100, /*objects=*/50);
  auto snap = meter.snapshot();
  ASSERT_EQ(snap.rules.size(), 2u);
  EXPECT_EQ(snap.rules[0].rule_name, "big");
  EXPECT_EQ(snap.rules[1].rule_name, "small");
}

TEST(CostMeterTest, ModelledTimeAccumulates) {
  CostMeter meter("cm-time");
  meter.add_tier("ti-t1", {});
  std::vector<TierUsage> usage = {{.label = "ti-t1"}};
  meter.accrue(usage, std::chrono::seconds(30));
  meter.accrue(usage, std::chrono::seconds(12));
  meter.accrue(usage, Duration{0});  // no-op, not a divide-by-zero
  EXPECT_NEAR(meter.snapshot().modelled_seconds, 42.0, 1e-9);
}

}  // namespace
}  // namespace tiera
