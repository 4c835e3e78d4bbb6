// Golden tests for the Chrome trace-event exporter: the JSON shape is a
// contract with chrome://tracing / Perfetto, so the rendering of a fixed
// span set is asserted byte-for-byte, plus structural checks (monotonic
// timestamps, balanced/valid JSON, escaping).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace tiera {
namespace {

FlightEvent make_span(std::uint64_t trace, std::uint64_t span,
                      std::uint64_t parent, FlightOp op, const char* label,
                      const char* object, const char* tier,
                      std::int64_t start_us, double duration_ms, bool ok,
                      std::uint64_t rule = 0) {
  FlightEvent s;
  s.trace_id = trace;
  s.span_id = span;
  s.parent_span_id = parent;
  s.a = rule;
  s.op = op;
  copy_flight_text(s.label, label);
  copy_flight_text(s.object, object);
  copy_flight_text(s.tier, tier);
  s.t_us = start_us;
  s.b = static_cast<std::uint64_t>(duration_ms * 1e6);
  s.status = static_cast<std::uint8_t>(ok ? StatusCode::kOk
                                          : StatusCode::kInternal);
  return s;
}

TEST(ChromeTraceExportTest, GoldenRendering) {
  const std::vector<FlightEvent> spans = {
      make_span(5, 7, 0, FlightOp::kPut, "tenant-a", "obj1", "m1", 1000, 1.5,
                true),
      make_span(5, 8, 7, FlightOp::kEvent, "rule:spill", "obj1", "", 2000,
                0.25, true, /*rule=*/3),
      make_span(5, 9, 8, FlightOp::kResponse, "move -> b1", "obj1", "b1",
                2100, 0.125, false, /*rule=*/3),
  };

  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"PUT\",\"cat\":\"request\",\"ph\":\"X\",\"ts\":1000,"
      "\"dur\":1500.000,\"pid\":1,\"tid\":5,\"args\":{\"trace\":5,\"span\":7,"
      "\"parent\":0,\"rule\":0,\"object\":\"obj1\",\"tier\":\"m1\","
      "\"ok\":true}},\n"
      "{\"name\":\"rule:spill\",\"cat\":\"policy\",\"ph\":\"X\",\"ts\":2000,"
      "\"dur\":250.000,\"pid\":1,\"tid\":5,\"args\":{\"trace\":5,\"span\":8,"
      "\"parent\":7,\"rule\":3,\"object\":\"obj1\",\"tier\":\"\","
      "\"ok\":true}},\n"
      "{\"name\":\"move -> b1\",\"cat\":\"response\",\"ph\":\"X\",\"ts\":2100,"
      "\"dur\":125.000,\"pid\":1,\"tid\":5,\"args\":{\"trace\":5,\"span\":9,"
      "\"parent\":8,\"rule\":3,\"object\":\"obj1\",\"tier\":\"b1\","
      "\"ok\":false}}\n"
      "],\"displayTimeUnit\":\"ms\"}\n";

  EXPECT_EQ(render_chrome_trace(spans), expected);
}

TEST(ChromeTraceExportTest, EmptyInputIsStillValidJson) {
  EXPECT_EQ(render_chrome_trace({}),
            "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(ChromeTraceExportTest, SortsByTimestampKeepingInputOrderOnTies) {
  // Input deliberately out of order; ts ties keep their input order.
  const std::vector<FlightEvent> spans = {
      make_span(1, 4, 0, FlightOp::kGet, "", "c", "m1", 3000, 0.1, true),
      make_span(1, 2, 0, FlightOp::kGet, "", "a", "m1", 1000, 0.1, true),
      make_span(1, 3, 0, FlightOp::kGet, "", "b", "m1", 1000, 0.1, true),
  };
  const std::string out = render_chrome_trace(spans);

  // Extract the "ts": values in rendered order and check monotonicity.
  std::vector<long long> ts;
  for (std::size_t pos = out.find("\"ts\":"); pos != std::string::npos;
       pos = out.find("\"ts\":", pos + 1)) {
    ts.push_back(std::atoll(out.c_str() + pos + 5));
  }
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_TRUE(std::is_sorted(ts.begin(), ts.end()));
  // Tie at ts=1000: "a" came first in the input, so it renders first.
  EXPECT_LT(out.find("\"object\":\"a\""), out.find("\"object\":\"b\""));
  EXPECT_LT(out.find("\"object\":\"b\""), out.find("\"object\":\"c\""));
}

TEST(ChromeTraceExportTest, EscapesJsonSpecials) {
  const std::vector<FlightEvent> spans = {
      make_span(1, 1, 0, FlightOp::kEvent, "na\"me\\x", "ob\tj", "t\ni", 0,
                1.0, true),
  };
  const std::string out = render_chrome_trace(spans);
  EXPECT_NE(out.find("\"na\\\"me\\\\x\""), std::string::npos);
  EXPECT_NE(out.find("\"ob\\tj\""), std::string::npos);
  EXPECT_NE(out.find("\"t\\ni\""), std::string::npos);
}

// Minimal structural JSON validator: tracks brace/bracket nesting outside
// strings and rejects control characters inside strings. Enough to catch a
// malformed exporter without a JSON library in the tree.
bool structurally_valid_json(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control char inside a string literal
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': stack.push_back(c); break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

TEST(ChromeTraceExportTest, RendersStructurallyValidJson) {
  std::vector<FlightEvent> spans;
  for (int i = 0; i < 50; ++i) {
    spans.push_back(make_span(
        1, static_cast<std::uint64_t>(i + 1), static_cast<std::uint64_t>(i),
        i % 2 ? FlightOp::kGet : FlightOp::kResponse, "op \"quoted\"",
        ("obj" + std::to_string(i)).c_str(), "m\\1", i * 100, 0.5,
        i % 3 != 0));
  }
  const std::string out = render_chrome_trace(spans);
  EXPECT_TRUE(structurally_valid_json(out)) << out.substr(0, 500);

  // Spans read back from the flight rings render the same way.
  {
    TraceScope scope;
    record_span(scope, FlightOp::kPut, "", "obj", "m1", StatusCode::kOk,
                from_ms(1.0));
  }
  EXPECT_TRUE(structurally_valid_json(render_chrome_trace(recent_spans(16))));
}

}  // namespace
}  // namespace tiera
