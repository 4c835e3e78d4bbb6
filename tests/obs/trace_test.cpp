#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace tiera {
namespace {

TEST(RequestTracerTest, RecordsSpansInOrder) {
  RequestTracer tracer(16);
  tracer.record(TraceOp::kPut, "obj1", "m1", from_ms(1.5), true);
  tracer.record(TraceOp::kGet, "obj1", "m1", from_ms(0.5), true);
  tracer.record(TraceOp::kGet, "ghost", "", from_ms(0.1), false);

  const auto spans = tracer.snapshot(10);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].op, TraceOp::kPut);
  EXPECT_STREQ(spans[0].object_id, "obj1");
  EXPECT_STREQ(spans[0].tier, "m1");
  EXPECT_TRUE(spans[0].ok());
  EXPECT_NEAR(spans[0].duration_ms, 1.5, 1e-9);
  EXPECT_EQ(spans[2].op, TraceOp::kGet);
  EXPECT_FALSE(spans[2].ok());
  EXPECT_LT(spans[0].seq, spans[1].seq);
  EXPECT_LT(spans[1].seq, spans[2].seq);
}

TEST(RequestTracerTest, RingBufferWrapsKeepingNewest) {
  RequestTracer tracer(8);
  for (int i = 0; i < 20; ++i) {
    tracer.record(TraceOp::kPut, "obj" + std::to_string(i), "m1",
                  from_ms(1.0), true);
  }
  EXPECT_EQ(tracer.total_recorded(), 20u);
  EXPECT_EQ(tracer.capacity(), 8u);

  const auto spans = tracer.snapshot(100);
  ASSERT_EQ(spans.size(), 8u);
  // The ring keeps exactly the last 8 spans (seq 12..19), oldest first.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].seq, 12 + i);
    EXPECT_STREQ(spans[i].object_id,
                 ("obj" + std::to_string(12 + i)).c_str());
  }
  // snapshot(last_n) trims from the old end.
  const auto tail = tracer.snapshot(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].seq, 17u);
  EXPECT_EQ(tail[2].seq, 19u);
}

TEST(RequestTracerTest, LongIdsTruncatedSafely) {
  RequestTracer tracer(4);
  const std::string long_id(200, 'x');
  tracer.record(TraceOp::kGet, long_id, "a-tier-name-that-is-way-too-long",
                from_ms(1.0), true);
  const auto spans = tracer.snapshot(1);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(std::string(spans[0].object_id).size(), 47u);  // 48 - NUL
  EXPECT_EQ(std::string(spans[0].tier).size(), 23u);       // 24 - NUL
}

TEST(RequestTracerTest, DisabledRecordsNothing) {
  RequestTracer tracer(8);
  tracer.set_enabled(false);
  tracer.record(TraceOp::kPut, "obj", "m1", from_ms(1.0), true);
  EXPECT_EQ(tracer.total_recorded(), 0u);
  EXPECT_TRUE(tracer.snapshot(10).empty());
  tracer.set_enabled(true);
  tracer.record(TraceOp::kPut, "obj", "m1", from_ms(1.0), true);
  EXPECT_EQ(tracer.snapshot(10).size(), 1u);
}

TEST(RequestTracerTest, DumpRendersSpans) {
  RequestTracer tracer(8);
  EXPECT_NE(tracer.dump().find("no requests traced"), std::string::npos);
  tracer.record(TraceOp::kPut, "obj1", "m1", from_ms(1.0), true);
  tracer.record(TraceOp::kGet, "ghost", "", from_ms(0.2), false);
  const std::string out = tracer.dump(10);
  EXPECT_NE(out.find("PUT"), std::string::npos);
  EXPECT_NE(out.find("obj1"), std::string::npos);
  EXPECT_NE(out.find("tier=m1"), std::string::npos);
  EXPECT_NE(out.find("FAILED"), std::string::npos);
}

TEST(RequestTracerTest, OverflowCountsDroppedSpans) {
  Counter& global =
      MetricsRegistry::global().counter("tiera_trace_dropped_total");
  const std::uint64_t before = global.value();

  RequestTracer tracer(8);
  for (int i = 0; i < 20; ++i) {
    tracer.record(TraceOp::kPut, "obj" + std::to_string(i), "m1",
                  from_ms(1.0), true);
  }
  // The ring held 8 of 20 spans; the 12 overwritten ones are "dropped".
  EXPECT_EQ(tracer.dropped(), 12u);
  EXPECT_EQ(global.value() - before, 12u);

  RequestTracer roomy(64);
  for (int i = 0; i < 20; ++i) {
    roomy.record(TraceOp::kPut, "obj", "m1", from_ms(1.0), true);
  }
  EXPECT_EQ(roomy.dropped(), 0u);
}

TEST(RequestTracerTest, CapacityFromEnvOverridesFallback) {
  ::unsetenv("TIERA_TRACE_CAPACITY");
  EXPECT_EQ(RequestTracer::capacity_from_env(512), 512u);

  ::setenv("TIERA_TRACE_CAPACITY", "33", 1);
  EXPECT_EQ(RequestTracer::capacity_from_env(512), 33u);
  RequestTracer tracer(RequestTracer::capacity_from_env(512));
  EXPECT_EQ(tracer.capacity(), 33u);

  ::setenv("TIERA_TRACE_CAPACITY", "not-a-number", 1);
  EXPECT_EQ(RequestTracer::capacity_from_env(512), 512u);
  ::setenv("TIERA_TRACE_CAPACITY", "-4", 1);
  EXPECT_EQ(RequestTracer::capacity_from_env(512), 512u);
  ::unsetenv("TIERA_TRACE_CAPACITY");
}

TEST(RequestTracerTest, ConcurrentRecordersKeepCapacityInvariant) {
  RequestTracer tracer(32);
  constexpr int kThreads = 8;
  constexpr int kOps = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kOps; ++i) {
        tracer.record(TraceOp::kGet, "t" + std::to_string(t), "m1",
                      from_ms(0.1), true);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(tracer.total_recorded(),
            static_cast<std::uint64_t>(kThreads) * kOps);
  const auto spans = tracer.snapshot(1000);
  EXPECT_EQ(spans.size(), 32u);
  for (const auto& span : spans) EXPECT_TRUE(span.ok());
}

}  // namespace
}  // namespace tiera
