// Causal spans over the flight recorder: recording from live scopes and
// leaf spans, the process-wide query, and the text renderings (span list,
// span tree). The rings are process-wide, so every check filters on ids
// this test minted.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace tiera {
namespace {

std::vector<FlightEvent> spans_of_trace(std::uint64_t trace_id) {
  std::vector<FlightEvent> out;
  for (const FlightEvent& span : recent_spans(0)) {
    if (span.trace_id == trace_id) out.push_back(span);
  }
  return out;
}

FlightEvent make_span(FlightOp op, const char* label, const char* object,
                      const char* tier, std::uint64_t elapsed_ns, bool ok) {
  FlightEvent span;
  span.op = op;
  copy_flight_text(span.label, label);
  copy_flight_text(span.object, object);
  copy_flight_text(span.tier, tier);
  span.b = elapsed_ns;
  span.status = static_cast<std::uint8_t>(ok ? StatusCode::kOk
                                             : StatusCode::kNotFound);
  return span;
}

TEST(TraceTest, RecordsScopeAndLeafSpansUnderOneTrace) {
  std::uint64_t trace_id = 0;
  std::uint64_t root_span = 0;
  {
    TraceScope root;
    trace_id = root.trace_id();
    root_span = root.span_id();
    {
      TraceScope event;
      record_span(event, FlightOp::kEvent, "rule:trace-test", "tt-obj", "",
                  StatusCode::kOk, event.elapsed(), /*rule_id=*/9);
    }
    record_leaf_span(FlightOp::kRetry, root.start(), "put:x2", "", "tt-m1",
                     StatusCode::kUnavailable);
    record_span(root, FlightOp::kPut, "", "tt-obj", "tt-m1", StatusCode::kOk,
                from_ms(1.5));
  }

  const auto spans = spans_of_trace(trace_id);
  ASSERT_EQ(spans.size(), 3u);
  // Ordered by start: the PUT and its retry opened no later than the rule.
  EXPECT_TRUE(std::is_sorted(
      spans.begin(), spans.end(),
      [](const FlightEvent& x, const FlightEvent& y) { return x.t_us < y.t_us; }));
  int seen = 0;
  for (const FlightEvent& span : spans) {
    switch (span.op) {
      case FlightOp::kPut:
        EXPECT_EQ(span.span_id, root_span);
        EXPECT_EQ(span.parent_span_id, 0u);
        EXPECT_STREQ(span.object, "tt-obj");
        EXPECT_NEAR(span.duration_ms(), 1.5, 1e-9);
        EXPECT_TRUE(span.ok());
        seen |= 1;
        break;
      case FlightOp::kEvent:
        EXPECT_EQ(span.parent_span_id, root_span);
        EXPECT_EQ(span.rule_id(), 9u);
        EXPECT_EQ(span.name(), "rule:trace-test");
        seen |= 2;
        break;
      case FlightOp::kRetry:
        EXPECT_EQ(span.parent_span_id, root_span);
        EXPECT_NE(span.span_id, root_span);
        EXPECT_EQ(span.code(), StatusCode::kUnavailable);
        EXPECT_STREQ(span.tier, "tt-m1");
        seen |= 4;
        break;
      default:
        ADD_FAILURE() << "unexpected span " << to_string(span.op);
    }
  }
  EXPECT_EQ(seen, 7);
}

TEST(TraceTest, LeafSpanWithoutContextIsItsOwnRoot) {
  const TimePoint start = now();
  record_leaf_span(FlightOp::kHedge, start, "hedge", "tt-lonely", "tt-b1",
                   StatusCode::kOk);
  std::vector<FlightEvent> mine;
  for (const FlightEvent& span : recent_spans(0)) {
    if (std::string(span.object) == "tt-lonely") mine.push_back(span);
  }
  ASSERT_EQ(mine.size(), 1u);
  EXPECT_NE(mine[0].trace_id, 0u);
  EXPECT_EQ(mine[0].parent_span_id, 0u);
  EXPECT_EQ(mine[0].name(), "hedge");
}

TEST(TraceTest, RecentSpansKeepsTheNewest) {
  for (int i = 0; i < 5; ++i) {
    TraceScope scope;
    record_span(scope, FlightOp::kGet, "", "tt-tail" + std::to_string(i), "",
                StatusCode::kOk, scope.elapsed());
  }
  const auto tail = recent_spans(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_STREQ(tail[0].object, "tt-tail3");
  EXPECT_STREQ(tail[1].object, "tt-tail4");
}

TEST(TraceTest, RenderSpansShowsVerbsTiersAndFailures) {
  EXPECT_NE(render_spans({}).find("no requests traced"), std::string::npos);
  std::vector<FlightEvent> spans = {
      make_span(FlightOp::kPut, "tenant-a", "obj1", "m1", 1000000, true),
      make_span(FlightOp::kGet, "", "ghost", "", 200000, false),
      make_span(FlightOp::kResponse, "move -> b1", "obj1", "b1", 5000, true),
  };
  spans[2].a = 12;  // the firing rule's id
  const std::string out = render_spans(spans);
  EXPECT_NE(out.find("PUT"), std::string::npos);
  EXPECT_NE(out.find("obj1"), std::string::npos);
  EXPECT_NE(out.find("tier=m1"), std::string::npos);
  EXPECT_NE(out.find("1.000ms"), std::string::npos);
  EXPECT_NE(out.find("FAILED"), std::string::npos);
  EXPECT_NE(out.find("move -> b1 rule=12"), std::string::npos);
  EXPECT_EQ(out.find("tenant-a"), std::string::npos);  // a tenant is no name
  EXPECT_EQ(out.find("rule=0"), std::string::npos);
}

TEST(TraceTest, SpanTreeNestsChildrenUnderParents) {
  std::vector<FlightEvent> spans = {
      make_span(FlightOp::kPut, "", "obj1", "m1", 1000000, true),
      make_span(FlightOp::kEvent, "rule:spill", "obj1", "", 500000, true),
      make_span(FlightOp::kResponse, "move -> b1", "obj1", "b1", 250000,
                false),
      make_span(FlightOp::kGet, "", "other", "m1", 1000, true),
  };
  for (std::size_t i = 0; i < 3; ++i) {
    spans[i].trace_id = 77;
    spans[i].span_id = i + 1;
    spans[i].parent_span_id = i;  // 0 for the PUT root
    spans[i].t_us = static_cast<std::int64_t>(i);
  }
  spans[1].a = spans[2].a = 3;  // the rule that fired and its response
  spans[3].trace_id = 78;
  spans[3].span_id = 9;
  EXPECT_EQ(render_span_tree(spans, 77),
            "PUT PUT obj1 tier=m1 1.000ms ok\n"
            "  EVENT rule:spill rule=3 obj1 tier=- 0.500ms ok\n"
            "    RESPONSE move -> b1 rule=3 obj1 tier=b1 0.250ms FAILED\n");
  EXPECT_NE(render_span_tree(spans, 5).find("trace not in ring"),
            std::string::npos);
}

}  // namespace
}  // namespace tiera
