// Causal tracing end-to-end: a background threshold rule fired by a PUT must
// record its event span (and the response spans under it) with the PUT's
// trace id and the PUT's span as parent — the propagation path is
// PUT thread -> ThreadPool task context -> TraceScope in the worker.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/instance.h"
#include "core/responses.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace tiera {
namespace {

using testing::TempDir;
using testing::ZeroLatencyScope;

class CausalTraceTest : public ::testing::Test {
 protected:
  InstancePtr make_instance() {
    InstanceConfig config;
    config.name = "causal-test";
    config.data_dir = dir_.sub("inst");
    config.tiers = {{"Memcached", "cau_m1", 1 << 20},
                    {"EBS", "cau_b1", 1 << 20}};
    config.trace_requests = true;
    auto instance = TieraInstance::create(std::move(config));
    EXPECT_TRUE(instance.ok()) << instance.status().to_string();
    return std::move(instance).value();
  }

  ZeroLatencyScope zero_latency_;
  TempDir dir_;
};

TEST_F(CausalTraceTest, BackgroundThresholdResponseLinksToTriggeringPut) {
  auto instance = make_instance();

  // Spill rule: once cau_m1 holds >= 4 KiB, move its oldest object to
  // cau_b1 — in the background, off the response pool.
  Rule rule;
  rule.name = "spill";
  rule.event = EventDef::on_threshold("cau_m1", TierAttribute::kUsedBytes,
                                      4096)
                   .in_background();
  rule.responses.push_back(make_move(Selector::oldest_in("cau_m1"),
                                     {"cau_b1"}));
  const std::uint64_t rule_id = instance->add_rule(std::move(rule));

  const Bytes payload = make_payload(2048, 3);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        instance->put("cau-obj" + std::to_string(i), as_view(payload)).ok());
  }
  instance->control().drain();
  ASSERT_GE(instance->control().events_fired(), 1u);

  const auto spans = instance->tracer().snapshot(1024);

  // The rule firing recorded an event span attributed to our rule.
  const RequestTracer::Span* event = nullptr;
  for (const auto& span : spans) {
    if (span.op == TraceOp::kEvent && span.rule_id == rule_id) event = &span;
  }
  ASSERT_NE(event, nullptr) << instance->tracer().dump(64);
  EXPECT_NE(std::string(event->name).find("spill"), std::string::npos);

  // Its parent is the PUT that pushed the tier over the threshold: same
  // trace id, parent span id = that PUT's span id.
  const RequestTracer::Span* put = nullptr;
  for (const auto& span : spans) {
    if (span.op == TraceOp::kPut && span.span_id == event->parent_span_id) {
      put = &span;
    }
  }
  ASSERT_NE(put, nullptr) << instance->tracer().dump(64);
  EXPECT_EQ(put->trace_id, event->trace_id);
  EXPECT_NE(event->parent_span_id, 0u);

  // The move response recorded as a child of the event span.
  const RequestTracer::Span* response = nullptr;
  for (const auto& span : spans) {
    if (span.op == TraceOp::kResponse &&
        span.parent_span_id == event->span_id) {
      response = &span;
    }
  }
  ASSERT_NE(response, nullptr) << instance->tracer().dump(64);
  EXPECT_EQ(response->trace_id, put->trace_id);
  EXPECT_EQ(response->rule_id, rule_id);
  EXPECT_NE(std::string(response->name).find("move"), std::string::npos);
  EXPECT_TRUE(response->ok());

  // dump_tree renders the whole causal chain under the PUT root.
  const std::string tree = instance->tracer().dump_tree(put->trace_id);
  EXPECT_NE(tree.find("PUT"), std::string::npos);
  EXPECT_NE(tree.find("spill"), std::string::npos);
  EXPECT_NE(tree.find("move"), std::string::npos);
}

TEST_F(CausalTraceTest, RuleAttributionSeriesAppearInRegistry) {
  auto instance = make_instance();

  // Tier-filtered insert event: fires in PUT's second matching pass, after
  // placement stored the object — so the background copy never races the
  // object's first write.
  Rule rule;
  rule.name = "writeback";
  rule.event = EventDef::on_insert("cau_m1").in_background();
  rule.responses.push_back(
      make_copy(Selector::action_object(), {"cau_b1"}));
  const std::uint64_t rule_id = instance->add_rule(std::move(rule));

  const Bytes payload = make_payload(1024, 5);
  ASSERT_TRUE(instance->put("cau-wb", as_view(payload)).ok());
  instance->control().drain();

  MetricsRegistry& reg = MetricsRegistry::global();
  EXPECT_GE(
      reg.counter("tiera_rule_fires_total",
                  {{"rule", std::to_string(rule_id)}, {"name", "writeback"}})
          .value(),
      1u);
  EXPECT_GE(
      reg.counter("tiera_rule_bytes_moved_total",
                  {{"rule", std::to_string(rule_id)}, {"name", "writeback"}})
          .value(),
      1024u);

  const std::string prom = reg.render_prometheus();
  EXPECT_NE(prom.find("tiera_rule_fires_total"), std::string::npos);
  EXPECT_NE(prom.find("rule=\"" + std::to_string(rule_id) + "\""),
            std::string::npos) << prom.substr(0, 2000);

  // Satellite: background copies feed the instance-level policy counters,
  // so `tiera_instance_policy_bytes_total` reconciles with tier activity.
  EXPECT_GE(instance->stats().policy_bytes.load(), 1024u);
  EXPECT_GE(instance->stats().policy_objects.load(), 1u);

  // And rule_activity() (the `top` table source) reports the firing.
  bool found = false;
  for (const auto& activity : instance->control().rule_activity()) {
    if (activity.id != rule_id) continue;
    found = true;
    EXPECT_EQ(activity.name, "writeback");
    EXPECT_GE(activity.fires, 1u);
    EXPECT_GE(activity.bytes_moved, 1024u);
    EXPECT_GE(activity.objects_touched, 1u);
    EXPECT_TRUE(activity.last_error.empty());
  }
  EXPECT_TRUE(found);

  const std::string top = instance->render_top();
  EXPECT_NE(top.find("writeback"), std::string::npos);
  EXPECT_NE(top.find("cau_m1"), std::string::npos);
}

}  // namespace
}  // namespace tiera
