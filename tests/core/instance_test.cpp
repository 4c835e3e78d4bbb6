#include "core/instance.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <thread>

#include "common/hash.h"
#include "common/random.h"
#include "core/responses.h"
#include "core/templates.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace tiera {
namespace {

using testing::TempDir;
using testing::ZeroLatencyScope;

class InstanceTest : public ::testing::Test {
 protected:
  InstancePtr make_two_tier(bool with_placement_rule = true) {
    InstanceConfig config;
    config.name = "test";
    config.data_dir = dir_.sub("inst");
    config.tiers = {{"Memcached", "tier1", 1 << 20},
                    {"EBS", "tier2", 1 << 20}};
    auto instance = TieraInstance::create(std::move(config));
    EXPECT_TRUE(instance.ok()) << instance.status().to_string();
    if (with_placement_rule) {
      Rule rule;
      rule.event = EventDef::on_insert();
      rule.responses.push_back(
          make_store(Selector::action_object(), {"tier1"}));
      (*instance)->add_rule(std::move(rule));
    }
    return std::move(instance).value();
  }

  ZeroLatencyScope zero_latency_;
  TempDir dir_;
};


TEST_F(InstanceTest, PutGetRoundTrip) {
  auto instance = make_two_tier();
  const Bytes payload = make_payload(4096, 1);
  ASSERT_TRUE(instance->put("obj", as_view(payload)).ok());
  auto got = instance->get("obj");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, payload);
  EXPECT_TRUE(instance->contains("obj"));
  EXPECT_EQ(instance->object_count(), 1u);
}

TEST_F(InstanceTest, GetMissingIsNotFound) {
  auto instance = make_two_tier();
  EXPECT_TRUE(instance->get("ghost").status().is_not_found());
  EXPECT_EQ(instance->stats().get_misses.load(), 1u);
}

TEST_F(InstanceTest, PlacementRuleStoresInConfiguredTier) {
  auto instance = make_two_tier();
  ASSERT_TRUE(instance->put("obj", as_view(make_payload(100, 1))).ok());
  const auto meta = instance->stat("obj");
  ASSERT_TRUE(meta.ok());
  EXPECT_TRUE(meta->in_tier("tier1"));
  EXPECT_FALSE(meta->in_tier("tier2"));
  EXPECT_EQ(instance->tier("tier1")->object_count(), 1u);
  EXPECT_EQ(instance->tier("tier2")->object_count(), 0u);
}

TEST_F(InstanceTest, DefaultPlacementWithoutRules) {
  auto instance = make_two_tier(/*with_placement_rule=*/false);
  ASSERT_TRUE(instance->put("obj", as_view(make_payload(100, 1))).ok());
  const auto meta = instance->stat("obj");
  ASSERT_TRUE(meta.ok());
  EXPECT_TRUE(meta->in_tier("tier1"));  // first tier fallback
}

TEST_F(InstanceTest, OverwriteReplacesContent) {
  auto instance = make_two_tier();
  ASSERT_TRUE(instance->put("obj", as_view(make_payload(100, 1))).ok());
  const Bytes v2 = make_payload(200, 2);
  ASSERT_TRUE(instance->put("obj", as_view(v2)).ok());
  auto got = instance->get("obj");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, v2);
  EXPECT_EQ(instance->object_count(), 1u);
  EXPECT_EQ(instance->tier("tier1")->used(), 200u);
}

TEST_F(InstanceTest, RemoveDeletesEverywhere) {
  auto instance = make_two_tier();
  ASSERT_TRUE(instance->put("obj", as_view(make_payload(100, 1))).ok());
  ASSERT_TRUE(
      instance->engine_copy({"obj"}, {"tier2"}, nullptr, nullptr).ok());
  ASSERT_TRUE(instance->remove("obj").ok());
  EXPECT_FALSE(instance->contains("obj"));
  EXPECT_EQ(instance->tier("tier1")->object_count(), 0u);
  EXPECT_EQ(instance->tier("tier2")->object_count(), 0u);
  EXPECT_TRUE(instance->remove("obj").is_not_found());
}

TEST_F(InstanceTest, TagsStoredAndQueryable) {
  auto instance = make_two_tier();
  ASSERT_TRUE(
      instance->put("tmp1", as_view(make_payload(10, 1)), {"tmp"}).ok());
  ASSERT_TRUE(instance->put("keep", as_view(make_payload(10, 2))).ok());
  ASSERT_TRUE(instance->add_tags("keep", {"gold", "db"}).ok());
  const auto meta = instance->stat("keep");
  ASSERT_TRUE(meta.ok());
  EXPECT_TRUE(meta->has_tag("gold"));
  EXPECT_TRUE(meta->has_tag("db"));
  EXPECT_FALSE(meta->has_tag("tmp"));
  const auto tagged = instance->metadata().select(
      [](const ObjectMeta& m) { return m.has_tag("tmp"); });
  ASSERT_EQ(tagged.size(), 1u);
  EXPECT_EQ(tagged[0], "tmp1");
}

TEST_F(InstanceTest, AccessMetadataUpdatedOnGet) {
  auto instance = make_two_tier();
  ASSERT_TRUE(instance->put("obj", as_view(make_payload(10, 1))).ok());
  const auto before = instance->stat("obj");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->access_count, 0u);
  ASSERT_TRUE(instance->get("obj").ok());
  ASSERT_TRUE(instance->get("obj").ok());
  const auto after = instance->stat("obj");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->access_count, 2u);
  EXPECT_GE(after->last_access, before->last_access);
}

TEST_F(InstanceTest, DirtyClearedByDurableCopy) {
  auto instance = make_two_tier();
  ASSERT_TRUE(instance->put("obj", as_view(make_payload(10, 1))).ok());
  EXPECT_TRUE(instance->stat("obj")->dirty);  // only in volatile Memcached
  ASSERT_TRUE(
      instance->engine_copy({"obj"}, {"tier2"}, nullptr, nullptr).ok());
  EXPECT_FALSE(instance->stat("obj")->dirty);
}

TEST_F(InstanceTest, ReadsFallThroughOnTierFailure) {
  auto instance = make_two_tier();
  ASSERT_TRUE(instance->put("obj", as_view(make_payload(64, 1))).ok());
  ASSERT_TRUE(
      instance->engine_copy({"obj"}, {"tier2"}, nullptr, nullptr).ok());
  instance->tier("tier1")->inject_failure(FailureMode::kFailStop);
  auto got = instance->get("obj");
  ASSERT_TRUE(got.ok()) << got.status().to_string();  // served from tier2
  instance->tier("tier1")->heal();
}

TEST_F(InstanceTest, GetFailsWhenAllLocationsDown) {
  auto instance = make_two_tier();
  ASSERT_TRUE(instance->put("obj", as_view(make_payload(64, 1))).ok());
  instance->tier("tier1")->inject_failure(FailureMode::kFailStop);
  EXPECT_TRUE(instance->get("obj").status().is_unavailable());
  EXPECT_GT(instance->stats().failures.load(), 0u);
}

TEST_F(InstanceTest, PutFailsWhenPlacementTierDown) {
  auto instance = make_two_tier();
  instance->tier("tier1")->inject_failure(FailureMode::kFailStop);
  const Status s = instance->put("obj", as_view(make_payload(64, 1)));
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(instance->contains("obj"));  // no dangling metadata
}

TEST_F(InstanceTest, AddAndRemoveTierAtRuntime) {
  auto instance = make_two_tier();
  ASSERT_TRUE(instance->add_tier({"S3", "tier3", 1 << 20}).ok());
  EXPECT_EQ(instance->tiers().size(), 3u);
  EXPECT_TRUE(instance->add_tier({"S3", "tier3", 1}).ok() == false);
  ASSERT_TRUE(instance->put("obj", as_view(make_payload(10, 1))).ok());
  ASSERT_TRUE(
      instance->engine_copy({"obj"}, {"tier3"}, nullptr, nullptr).ok());
  ASSERT_TRUE(instance->remove_tier("tier3").ok());
  EXPECT_EQ(instance->tier("tier3"), nullptr);
  const auto meta = instance->stat("obj");
  ASSERT_TRUE(meta.ok());
  EXPECT_FALSE(meta->in_tier("tier3"));
  EXPECT_TRUE(instance->remove_tier("tier9").is_not_found());
}

TEST_F(InstanceTest, StatsTrackOps) {
  auto instance = make_two_tier();
  ASSERT_TRUE(instance->put("a", as_view(make_payload(10, 1))).ok());
  ASSERT_TRUE(instance->get("a").ok());
  ASSERT_TRUE(instance->remove("a").ok());
  EXPECT_EQ(instance->stats().puts.load(), 1u);
  EXPECT_EQ(instance->stats().gets.load(), 1u);
  EXPECT_EQ(instance->stats().removes.load(), 1u);
  EXPECT_EQ(instance->stats().put_latency.count(), 1u);
}

TEST_F(InstanceTest, MonthlyCostReflectsTiers) {
  auto instance = make_two_tier();
  const double cost = instance->monthly_cost();
  // 1 MB Memcached at $19/GB + 1 MB EBS at $0.10/GB.
  EXPECT_NEAR(cost, (19.0 + 0.10) / 1024.0, 0.001);
  EXPECT_EQ(instance->cost_breakdown().size(), 2u);
}

TEST_F(InstanceTest, PersistedMetadataRecoversAfterRestart) {
  const Bytes payload = make_payload(128, 5);
  {
    InstanceConfig config;
    config.data_dir = dir_.sub("persist");
    config.persist_metadata = true;
    config.tiers = {{"EBS", "tier1", 1 << 20}};
    auto instance = TieraInstance::create(std::move(config));
    ASSERT_TRUE(instance.ok());
    ASSERT_TRUE(
        (*instance)->put("obj", as_view(payload), {"important"}).ok());
  }
  InstanceConfig config;
  config.data_dir = dir_.sub("persist");
  config.persist_metadata = true;
  config.tiers = {{"EBS", "tier1", 1 << 20}};
  auto instance = TieraInstance::create(std::move(config));
  ASSERT_TRUE(instance.ok());
  const auto meta = (*instance)->stat("obj");
  ASSERT_TRUE(meta.ok()) << meta.status().to_string();
  EXPECT_TRUE(meta->in_tier("tier1"));
  EXPECT_TRUE(meta->has_tag("important"));
  auto got = (*instance)->get("obj");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, payload);
}

TEST_F(InstanceTest, ConcurrentClientsKeepConsistency) {
  auto instance = make_two_tier();
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        const std::string id = "o" + std::to_string(t) + "-" +
                               std::to_string(i);
        const Bytes payload = make_payload(128, t * 1000 + i);
        if (!instance->put(id, as_view(payload)).ok()) errors.fetch_add(1);
        auto got = instance->get(id);
        if (!got.ok() || *got != payload) errors.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(instance->object_count(), 800u);
}

TEST_F(InstanceTest, RemapInvalidateDropsReplicatedObjectsOnly) {
  auto instance = make_two_tier();
  for (int i = 0; i < 50; ++i) {
    const std::string id = "r" + std::to_string(i);
    ASSERT_TRUE(instance->put(id, as_view(make_payload(64, i))).ok());
    if (i % 2 == 0) {
      ASSERT_TRUE(
          instance->engine_copy({id}, {"tier2"}, nullptr, nullptr).ok());
    }
  }
  const std::size_t invalidated =
      instance->remap_invalidate("tier1", 1.0, /*seed=*/1);
  EXPECT_EQ(invalidated, 25u);  // only the replicated half is droppable
  // Every object is still readable (singletons from tier1, rest from tier2).
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(instance->get("r" + std::to_string(i)).ok()) << i;
  }
}

// Journal accounting on a persisted, synced MemcachedEBS instance (PUTs
// write through to Memcached and EBS). Read from the process-wide
// tiera_metadb_group_commit_* counters, as deltas around each call.
class JournalAccountingTest : public ::testing::Test {
 protected:
  struct JournalCounts {
    std::uint64_t records = 0;
    std::uint64_t fsyncs = 0;
  };

  static JournalCounts journal() {
    MetricsRegistry& reg = MetricsRegistry::global();
    return {reg.counter("tiera_metadb_group_commit_records_total").value(),
            reg.counter("tiera_metadb_group_commit_fsyncs_total").value()};
  }

  static JournalCounts since(const JournalCounts& before) {
    const JournalCounts now = journal();
    return {now.records - before.records, now.fsyncs - before.fsyncs};
  }

  InstancePtr open_instance() {
    TemplateOptions opts;
    opts.data_dir = dir_.sub("mebs");
    opts.persist_metadata = true;
    opts.journal_sync = true;
    auto instance = make_memcached_ebs_instance(opts, 1 << 20, 1 << 20);
    EXPECT_TRUE(instance.ok()) << instance.status().to_string();
    return std::move(instance).value();
  }

  ZeroLatencyScope zero_latency_;
  TempDir dir_;
};

TEST_F(JournalAccountingTest, PutAndDeleteCommitOnceGetWritesNothing) {
  auto instance = open_instance();
  const Bytes payload = make_payload(256, 3);

  JournalCounts before = journal();
  ASSERT_TRUE(instance->put("obj", as_view(payload)).ok());
  JournalCounts put = since(before);
  // Four records (the new record, two locations, dirty cleared) in one
  // group commit.
  EXPECT_EQ(put.records, 4u);
  EXPECT_EQ(put.fsyncs, 1u);

  before = journal();
  auto got = instance->get("obj");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, payload);
  const JournalCounts get = since(before);
  EXPECT_EQ(get.records, 0u);
  EXPECT_EQ(get.fsyncs, 0u);

  before = journal();
  ASSERT_TRUE(instance->put("obj", as_view(make_payload(256, 4))).ok());
  put = since(before);
  EXPECT_EQ(put.fsyncs, 1u) << "an overwrite commits once too";

  before = journal();
  ASSERT_TRUE(instance->remove("obj").ok());
  EXPECT_EQ(since(before).fsyncs, 1u);
  EXPECT_FALSE(instance->contains("obj"));
}

TEST_F(JournalAccountingTest, RejectedPutLeavesNoRecordAfterReopen) {
  {
    auto instance = open_instance();
    instance->tier("tier1")->inject_failure(FailureMode::kFailStop);
    instance->tier("tier2")->inject_failure(FailureMode::kFailStop);
    const Status s = instance->put("obj", as_view(make_payload(64, 1)));
    EXPECT_TRUE(s.is_unavailable()) << s.to_string();
    EXPECT_FALSE(instance->contains("obj"));
  }
  auto reopened = open_instance();
  EXPECT_FALSE(reopened->contains("obj"));
  EXPECT_TRUE(reopened->stat("obj").status().is_not_found());
}

TEST_F(JournalAccountingTest, AccessStatsAreSoftState) {
  constexpr std::uint64_t kGets = 5;
  {
    auto instance = open_instance();
    for (const char* id : {"flushed", "soft"}) {
      ASSERT_TRUE(instance->put(id, as_view(make_payload(64, 1))).ok());
      for (std::uint64_t i = 0; i < kGets; ++i) {
        ASSERT_TRUE(instance->get(id).ok());
      }
      EXPECT_EQ(instance->stat(id)->access_count, kGets);
    }
    // A later write of the object carries the in-memory counts with it.
    ASSERT_TRUE(instance->add_tags("flushed", {"later"}).ok());
  }
  auto reopened = open_instance();
  const auto flushed = reopened->stat("flushed");
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(flushed->access_count, kGets);
  // No write followed the reads: the persisted count may lag.
  const auto soft = reopened->stat("soft");
  ASSERT_TRUE(soft.ok());
  EXPECT_LE(soft->access_count, kGets);
}

TEST_F(JournalAccountingTest, RestartDropsVolatileLocations) {
  constexpr int kObjects = 4;
  {
    auto instance = open_instance();
    for (int i = 0; i < kObjects; ++i) {
      const std::string id = "obj" + std::to_string(i);
      ASSERT_TRUE(instance->put(id, as_view(make_payload(64, i))).ok());
      EXPECT_TRUE(instance->stat(id)->in_tier("tier1"));
    }
  }
  // Memcached (tier1) restarts empty; EBS (tier2) keeps its bytes.
  auto reopened = open_instance();
  for (int i = 0; i < kObjects; ++i) {
    const auto meta = reopened->stat("obj" + std::to_string(i));
    ASSERT_TRUE(meta.ok());
    EXPECT_FALSE(meta->in_tier("tier1")) << meta->id;
    EXPECT_TRUE(meta->in_tier("tier2")) << meta->id;
  }
  EXPECT_EQ(reopened->metadata().count_in_tier("tier1"), 0u);
  EXPECT_EQ(reopened->metadata().count_in_tier("tier2"),
            static_cast<std::size_t>(kObjects));

  const TierPtr tier1 = reopened->tier("tier1");
  const std::uint64_t tier1_gets = tier1->stats().gets.load();
  auto got = reopened->get("obj0");
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(*got, make_payload(64, 0));
  EXPECT_EQ(tier1->stats().gets.load(), tier1_gets)
      << "the first GET after restart must not ask the empty tier";
}

// Every PUT/GET/DELETE leaves exactly one completion record, whatever path it
// exits by: one flight-recorder op event and one tracer span carrying its
// status code; `failures` and the error-rate SLO count the non-OK results
// except NotFound, and `get_misses` counts the NotFound GETs. Random calls
// over a small id pool (present and absent ids, overwrites) with fail-stop
// faults on the placement tier, run across a restart: encrypted objects
// written before it are read after it with no key registered.
class OpRecordPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OpRecordPropertyTest, EveryCallRecordsOnce) {
  ZeroLatencyScope zero_latency;
  TempDir dir;
  const std::uint64_t seed = GetParam();
  std::vector<std::string> ids;
  std::set<std::uint64_t> hashes;
  for (int i = 0; i < 6; ++i) {
    ids.push_back("op" + std::to_string(seed) + "/k" + std::to_string(i));
    hashes.insert(fnv1a64(ids.back()));
  }
  // This run's op events, keyed by (verb, status code).
  using Path = std::pair<int, int>;
  const auto flight_ops = [&] {
    std::map<Path, int> counts;
    for (const FlightEvent& ev : FlightRecorder::global().merged()) {
      if (ev.kind == FlightKind::kOp && hashes.count(ev.a)) {
        ++counts[{ev.verb, ev.status}];
      }
    }
    return counts;
  };
  Rng rng(seed);
  std::set<Path> seen;  // exit paths covered

  // One instance lifetime of `steps` random steps; its counters and SLO are
  // checked against the results it returned.
  const auto run = [&](bool encrypt, int steps) {
    InstanceConfig config;
    config.name = "oprec" + std::to_string(seed);
    config.data_dir = dir.sub("inst");
    // No rules and plain tiers: the op spans are the only spans. The
    // placement tier (the first) is durable, so objects outlive a restart.
    config.tiers = {{"EBS", "tier1", 1 << 20}, {"Memcached", "tier2", 1 << 20}};
    config.persist_metadata = true;
    config.trace_requests = true;
    config.trace_capacity = 4096;
    auto created = TieraInstance::create(std::move(config));
    ASSERT_TRUE(created.ok()) << created.status().to_string();
    TieraInstance& instance = **created;
    SloSpec slo;
    slo.name = "error_rate";
    slo.signal = SloSignal::kErrorRate;
    slo.target_fraction = 0.5;
    ASSERT_TRUE(instance.add_slo(slo).ok());
    const TierPtr placement = instance.tier("tier1");
    std::uint64_t puts = 0, gets = 0, removes = 0, misses = 0, failures = 0;
    std::uint64_t slo_samples = 0;
    std::map<Path, int> before = flight_ops();
    // One API call and the checks of its records.
    const auto call = [&](FlightOp verb, const std::string& id, int step) {
      const std::uint64_t spans = instance.tracer().total_recorded();
      TraceOp trace_op = TraceOp::kPut;
      StatusCode code;
      if (verb == FlightOp::kPut) {
        code = instance.put(id, as_view(make_payload(32, step))).code();
        ++puts;
      } else if (verb == FlightOp::kGet) {
        trace_op = TraceOp::kGet;
        code = instance.get(id).status().code();
        if (code == StatusCode::kOk) ++gets;
        if (code == StatusCode::kNotFound) ++misses;
      } else {
        trace_op = TraceOp::kDelete;
        code = instance.remove(id).code();
        if (code == StatusCode::kOk) ++removes;
      }
      if (code != StatusCode::kOk && code != StatusCode::kNotFound) {
        ++failures;
      }
      if (code != StatusCode::kNotFound) ++slo_samples;
      const Path path{static_cast<int>(verb), static_cast<int>(code)};
      seen.insert(path);
      SCOPED_TRACE("step " + std::to_string(step) + ": verb " +
                   std::to_string(path.first) + " " +
                   std::string(to_string(code)));

      std::map<Path, int> after = flight_ops();
      int new_events = 0;
      for (const auto& [p, n] : after) new_events += n - before[p];
      EXPECT_EQ(new_events, 1);
      EXPECT_EQ(after[path] - before[path], 1);
      before = std::move(after);

      ASSERT_EQ(instance.tracer().total_recorded() - spans, 1u);
      const auto newest = instance.tracer().snapshot(1);
      ASSERT_EQ(newest.size(), 1u);
      EXPECT_EQ(newest[0].op, trace_op);
      EXPECT_EQ(newest[0].status, code);
      EXPECT_EQ(std::string(newest[0].object_id), id);
    };
    // After a restart, read every id first: the encrypted ones have no key.
    if (!encrypt) {
      for (const auto& id : ids) call(FlightOp::kGet, id, -1);
    }
    for (int step = 0; step < steps; ++step) {
      const std::string& id = ids[rng.next_below(ids.size())];
      const std::uint64_t dice = rng.next_below(100);
      if (dice < 8) {
        if (placement->failure_mode() == FailureMode::kNone) {
          placement->inject_failure(FailureMode::kFailStop);
        } else {
          placement->heal();
        }
      } else if (dice < 14) {
        if (encrypt) (void)instance.engine_encrypt({id}, derive_key("k"));
      } else {
        call(dice < 50   ? FlightOp::kPut
             : dice < 85 ? FlightOp::kGet
                         : FlightOp::kDelete,
             id, step);
      }
    }
    placement->heal();
    if (encrypt) {
      // At least one encrypted object crosses the restart.
      call(FlightOp::kPut, ids[0], steps);
      ASSERT_TRUE(instance.engine_encrypt({ids[0]}, derive_key("k")).ok());
    }

    const InstanceStats& stats = instance.stats();
    EXPECT_EQ(stats.puts.load(), puts);
    EXPECT_EQ(stats.gets.load(), gets);
    EXPECT_EQ(stats.removes.load(), removes);
    EXPECT_EQ(stats.get_misses.load(), misses);
    EXPECT_EQ(stats.failures.load(), failures);
    EXPECT_EQ(stats.put_latency.count(), puts);
    EXPECT_EQ(stats.get_latency.count(), gets);
    EXPECT_EQ(stats.delete_latency.count(), removes);
    const std::vector<SloStatus> rows = instance.slo().status();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].samples, slo_samples);
    EXPECT_EQ(std::llround(rows[0].current *
                           static_cast<double>(rows[0].samples)),
              static_cast<long long>(failures));
  };
  // A fresh thread owns a fresh flight ring, so this run's events never
  // wrap into older ones.
  std::thread runner([&] {
    run(/*encrypt=*/true, 150);
    run(/*encrypt=*/false, 150);  // restarted: no key registered
  });
  runner.join();

  // The run reached every exit kind the guard must cover.
  const auto covered = [&](FlightOp verb, StatusCode code) {
    return seen.count({static_cast<int>(verb), static_cast<int>(code)}) > 0;
  };
  EXPECT_TRUE(covered(FlightOp::kPut, StatusCode::kUnavailable));
  EXPECT_TRUE(covered(FlightOp::kGet, StatusCode::kNotFound));
  EXPECT_TRUE(covered(FlightOp::kGet, StatusCode::kUnavailable));
  EXPECT_TRUE(covered(FlightOp::kGet, StatusCode::kCorruption));
  EXPECT_TRUE(covered(FlightOp::kDelete, StatusCode::kNotFound));
  EXPECT_TRUE(covered(FlightOp::kDelete, StatusCode::kUnavailable));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpRecordPropertyTest,
                         ::testing::Values(1, 7, 42));

}  // namespace
}  // namespace tiera
