// End-to-end observability test: a PUT/GET sequence against a real instance
// must produce the expected counter deltas in the process-wide registry, a
// parseable Prometheus dump over the kStats RPC verb, and a request trace.
#include <gtest/gtest.h>

#include <regex>

#include "core/instance.h"
#include "net/tiera_service.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace tiera {
namespace {

using testing::TempDir;
using testing::ZeroLatencyScope;

class ObsIntegrationTest : public ::testing::Test {
 protected:
  InstancePtr make_instance() {
    InstanceConfig config;
    config.name = "obs-test";
    config.data_dir = dir_.sub("inst");
    config.tiers = {{"Memcached", "obs_m1", 1 << 20},
                    {"EBS", "obs_b1", 1 << 20}};
    config.trace_requests = true;
    // No rules: default placement stores into the first tier (obs_m1).
    auto instance = TieraInstance::create(std::move(config));
    EXPECT_TRUE(instance.ok()) << instance.status().to_string();
    return std::move(instance).value();
  }

  ZeroLatencyScope zero_latency_;
  TempDir dir_;
};

TEST_F(ObsIntegrationTest, PutGetSequenceProducesCounterDeltas) {
  MetricsRegistry& reg = MetricsRegistry::global();
  // The registry is process-wide and other tests/instances share it, so
  // assert on deltas.
  Counter& inst_puts = reg.counter("tiera_instance_puts_total");
  Counter& inst_gets = reg.counter("tiera_instance_gets_total");
  Counter& misses = reg.counter("tiera_instance_get_misses_total");
  Counter& tier_puts = reg.counter("tiera_tier_puts_total", {{"tier", "obs_m1"}});
  Counter& tier_hits =
      reg.counter("tiera_instance_tier_hits_total", {{"tier", "obs_m1"}});
  LatencyHistogram& put_hist = reg.histogram("tiera_instance_put_latency_ms");
  LatencyHistogram& tier_get_hist =
      reg.histogram("tiera_tier_get_latency_ms", {{"tier", "obs_m1"}});

  reg.collect();  // counters sync from instance/tier stats at collect time
  const std::uint64_t puts0 = inst_puts.value();
  const std::uint64_t gets0 = inst_gets.value();
  const std::uint64_t misses0 = misses.value();
  const std::uint64_t tier_puts0 = tier_puts.value();
  const std::uint64_t hits0 = tier_hits.value();
  const std::uint64_t put_hist0 = put_hist.count();
  const std::uint64_t tier_get0 = tier_get_hist.count();

  auto instance = make_instance();
  const Bytes payload = make_payload(1024, 7);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        instance->put("obs-obj" + std::to_string(i), as_view(payload)).ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(instance->get("obs-obj" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(instance->get("obs-ghost").status().is_not_found());

  reg.collect();
  EXPECT_EQ(inst_puts.value() - puts0, 5u);
  EXPECT_EQ(inst_gets.value() - gets0, 5u);
  EXPECT_EQ(misses.value() - misses0, 1u);
  EXPECT_EQ(tier_puts.value() - tier_puts0, 5u);
  EXPECT_EQ(tier_hits.value() - hits0, 5u);
  EXPECT_EQ(put_hist.count() - put_hist0, 5u);
  // Tier-level latency samples 1 op in kLatencySampleEvery (counters above
  // stay exact); a fresh tier always samples its first op.
  EXPECT_GE(tier_get_hist.count() - tier_get0, 1u);
  EXPECT_LE(tier_get_hist.count() - tier_get0, 5u);

  // The tracer saw all 11 application requests, newest last.
  const auto spans = instance->tracer().snapshot(100);
  ASSERT_EQ(spans.size(), 11u);
  EXPECT_EQ(spans.back().op, TraceOp::kGet);
  EXPECT_FALSE(spans.back().ok());
  EXPECT_STREQ(spans[5].tier, "obs_m1");  // first GET served from memory
}

TEST_F(ObsIntegrationTest, StatsRpcRendersPrometheusAndTrace) {
  auto instance = make_instance();
  TieraServer server(*instance, 0, 2);
  ASSERT_TRUE(server.start().ok());
  auto client = RemoteTieraClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  const Bytes payload = make_payload(512, 3);
  ASSERT_TRUE((*client)->put("remote-obj", as_view(payload)).ok());
  ASSERT_TRUE((*client)->get("remote-obj").ok());

  auto prom = (*client)->stats("prom");
  ASSERT_TRUE(prom.ok()) << prom.status().to_string();
  // The acceptance series: per-tier counters and latency quantiles,
  // control-layer queue depth, end-to-end histograms.
  EXPECT_NE(prom->find("tiera_tier_puts_total{tier=\"obs_m1\"}"),
            std::string::npos);
  EXPECT_NE(
      prom->find("tiera_tier_get_latency_ms{tier=\"obs_m1\",quantile=\"0.99\"}"),
      std::string::npos);
  EXPECT_NE(prom->find("# TYPE tiera_control_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(prom->find("# TYPE tiera_instance_put_latency_ms summary"),
            std::string::npos);
  EXPECT_NE(prom->find("# TYPE tiera_instance_get_latency_ms summary"),
            std::string::npos);
  EXPECT_NE(prom->find("tiera_rpc_requests_total"), std::string::npos);

  // Parseable: every non-comment line is `name[{labels}] value`.
  const std::regex line_re(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9][0-9eE+.\-]*$)");
  std::size_t pos = 0, lines = 0;
  while (pos < prom->size()) {
    const std::size_t end = prom->find('\n', pos);
    const std::string line = prom->substr(pos, end - pos);
    pos = end == std::string::npos ? prom->size() : end + 1;
    if (line.empty() || line[0] == '#') continue;
    ++lines;
    EXPECT_TRUE(std::regex_match(line, line_re)) << "bad line: " << line;
  }
  EXPECT_GT(lines, 20u);

  auto text = (*client)->stats("text");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("tiera_instance_puts_total"), std::string::npos);

  EXPECT_FALSE((*client)->stats("xml").ok());

  // Legacy binary summary still works.
  auto summary = (*client)->stats_summary();
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->puts, 1u);
  EXPECT_EQ(summary->gets, 1u);
  EXPECT_EQ(summary->objects, 1u);

  auto trace = (*client)->trace(16);
  ASSERT_TRUE(trace.ok());
  EXPECT_NE(trace->find("remote-obj"), std::string::npos);
  EXPECT_NE(trace->find("GET"), std::string::npos);

  server.stop();
}

TEST_F(ObsIntegrationTest, FailedTierOpsSurfaceInRegistry) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& failed =
      reg.counter("tiera_tier_failed_ops_total", {{"tier", "obs_m1"}});
  reg.collect();
  const std::uint64_t failed0 = failed.value();

  auto instance = make_instance();
  instance->tier("obs_m1")->inject_failure(FailureMode::kFailStop);
  EXPECT_FALSE(instance->put("doomed", as_view(make_payload(64, 1))).ok());
  reg.collect();
  EXPECT_GT(failed.value(), failed0);
  instance->tier("obs_m1")->heal();
}

TEST_F(ObsIntegrationTest, TracingCanBeDisabledPerInstance) {
  InstanceConfig config;
  config.name = "obs-quiet";
  config.data_dir = dir_.sub("quiet");
  config.tiers = {{"Memcached", "obs_q1", 1 << 20}};
  config.trace_requests = false;
  auto instance = TieraInstance::create(std::move(config));
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE((*instance)->put("q", as_view(make_payload(16, 1))).ok());
  EXPECT_EQ((*instance)->tracer().total_recorded(), 0u);
}

}  // namespace
}  // namespace tiera
