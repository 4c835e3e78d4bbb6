// Flight recorder: event capture and merge order, ring overwrite semantics,
// span fields and their truncation, tenant context, the fixed memory bound,
// ring recycling across thread exits, and the async-signal-safe dump
// (exercised via a pipe, not a signal — the fork+SIGSEGV end-to-end lives in
// incident_test.cpp).
#include "obs/flight_recorder.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace tiera {
namespace {

// Events recorded before a test ran stay in the rings (they are process
// lifetime); every assertion below diffs against what this test added by
// using unique labels/ids.
std::vector<FlightEvent> events_with_label(const std::string& label) {
  std::vector<FlightEvent> out;
  for (const FlightEvent& ev : FlightRecorder::global().merged()) {
    if (label == ev.label) out.push_back(ev);
  }
  return out;
}

TEST(FlightRecorderTest, RecordsSpansWithTenantStatusAndDigest) {
  set_flight_tenant("tenant-fr1");
  {
    TraceScope scope;
    record_span(scope, FlightOp::kGet, flight_tenant(), "fr-object-1", "fr-m1",
                StatusCode::kNotFound, std::chrono::microseconds(123), 0,
                0x05);
  }
  set_flight_tenant({});

  const auto events = events_with_label("tenant-fr1");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FlightKind::kSpan);
  EXPECT_EQ(events[0].op, FlightOp::kGet);
  EXPECT_EQ(events[0].code(), StatusCode::kNotFound);
  EXPECT_EQ(events[0].digest, 0x05);
  EXPECT_EQ(events[0].b, 123000u);  // elapsed ns
  EXPECT_STREQ(events[0].object, "fr-object-1");
  EXPECT_STREQ(events[0].tier, "fr-m1");
  EXPECT_EQ(events[0].name(), "GET");
  EXPECT_NE(events[0].trace_id, 0u);
  EXPECT_NE(events[0].span_id, 0u);
  EXPECT_EQ(events[0].parent_span_id, 0u);
  EXPECT_GT(std::strlen(events[0].thread), 0u);
}

TEST(FlightRecorderTest, SpanTextIsTruncatedToItsField) {
  const std::string long_id(200, 'x');
  {
    TraceScope scope;
    record_span(scope, FlightOp::kEvent, "fr-trunc-" + std::string(100, 'n'),
                long_id, "a-tier-name-that-is-way-too-long", StatusCode::kOk,
                scope.elapsed());
  }
  const auto events = events_with_label("fr-trunc-" + std::string(14, 'n'));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].object), std::string(23, 'x'));
  EXPECT_EQ(std::string(events[0].tier), "a-tier-name-tha");  // 15 chars
  EXPECT_EQ(events[0].name().size(), 23u);
}

TEST(FlightRecorderTest, RecordsTransitionsAndMetrics) {
  FlightRecorder::global().record_transition("fr-breaker-x", 0, 2);
  FlightRecorder::global().record_metric("fr-series-x", 10, 25);

  const auto transitions = events_with_label("fr-breaker-x");
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].kind, FlightKind::kTransition);
  EXPECT_EQ(transitions[0].a, 0u);
  EXPECT_EQ(transitions[0].b, 2u);

  const auto metrics = events_with_label("fr-series-x");
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metrics[0].kind, FlightKind::kMetric);
  EXPECT_EQ(metrics[0].a, 10u);
  EXPECT_EQ(metrics[0].b, 25u);
}

TEST(FlightRecorderTest, RingOverwritesOldestAndMergeIsTimeOrdered) {
  auto& recorder = FlightRecorder::global();
  // Overfill this thread's ring; only the newest `capacity` survive.
  const std::size_t n = recorder.capacity() + 64;
  for (std::size_t i = 0; i < n; ++i) {
    recorder.record_transition("fr-wrap", i, i + 1);
  }
  const auto events = events_with_label("fr-wrap");
  ASSERT_LE(events.size(), recorder.capacity());
  ASSERT_GE(events.size(), recorder.capacity() / 2);
  // The survivors are the most recent writes...
  EXPECT_EQ(events.back().a, n - 1);
  // ...and the merged timeline is oldest-first.
  const auto all = recorder.merged();
  EXPECT_TRUE(std::is_sorted(
      all.begin(), all.end(),
      [](const FlightEvent& x, const FlightEvent& y) { return x.t_us < y.t_us; }));
}

TEST(FlightRecorderTest, MergedMaxEventsKeepsNewest) {
  auto& recorder = FlightRecorder::global();
  for (int i = 0; i < 10; ++i) {
    recorder.record_transition("fr-capped", i, i);
  }
  const auto capped = recorder.merged(4);
  EXPECT_EQ(capped.size(), 4u);
  // The cap keeps the tail of the timeline, so the very last event we wrote
  // must be present.
  EXPECT_TRUE(std::any_of(capped.begin(), capped.end(), [](const FlightEvent& ev) {
    return std::string(ev.label) == "fr-capped" && ev.a == 9;
  }));
}

TEST(FlightRecorderTest, MemoryBoundIsFixedAndUsageStaysUnder) {
  auto& recorder = FlightRecorder::global();
  EXPECT_EQ(recorder.memory_bound_bytes(),
            FlightRecorder::kMaxThreads * recorder.capacity() *
                FlightRecorder::kSlotBytes);
  EXPECT_LE(recorder.memory_used_bytes(), recorder.memory_bound_bytes());
  // Registering more writer threads grows usage but never past the bound.
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&recorder] {
      recorder.record_transition("fr-bound", 0, 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(recorder.memory_used_bytes(), recorder.memory_bound_bytes());
}

TEST(FlightRecorderTest, DisabledRecordsNothing) {
  auto& recorder = FlightRecorder::global();
  recorder.set_enabled(false);
  recorder.record_transition("fr-disabled", 1, 2);
  recorder.set_enabled(true);
  EXPECT_TRUE(events_with_label("fr-disabled").empty());
}

TEST(FlightRecorderTest, ConcurrentWritersProduceNoTornReads) {
  auto& recorder = FlightRecorder::global();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&recorder, &stop, t] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // a == b in every slot; a torn read shows up as a mismatch.
        recorder.record_transition("fr-race", i + t, i + t);
        ++i;
      }
    });
  }
  for (int pass = 0; pass < 50; ++pass) {
    for (const FlightEvent& ev : recorder.merged()) {
      if (std::string(ev.label) == "fr-race") {
        EXPECT_EQ(ev.a, ev.b);
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();
}

TEST(FlightRecorderTest, ConcurrentSpanWritersKeepRingsBoundedAndUntorn) {
  auto& recorder = FlightRecorder::global();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kSpans = 5000;
  std::atomic<bool> stop{false};
  std::atomic<int> finished{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      FlightEvent span;
      copy_flight_text(span.label, "fr-span-race");
      copy_flight_text(span.object, "fr-w" + std::to_string(t));
      for (std::uint64_t i = 1; i <= kSpans; ++i) {
        // Every id word equals the rule id: a torn read shows a mismatch
        // across the slot's first and last payload words.
        span.a = span.trace_id = span.span_id = span.parent_span_id = i;
        recorder.record(span);
      }
      // Stay alive until checked: an exited thread's ring is handed to the
      // next thread that records, which clears it.
      finished.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  std::thread reader([&recorder, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const FlightEvent& ev : recorder.merged()) {
        if (std::string(ev.label) != "fr-span-race") continue;
        EXPECT_EQ(ev.trace_id, ev.a);
        EXPECT_EQ(ev.parent_span_id, ev.a);
      }
    }
  });
  while (finished.load() < kThreads) std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  // Each writer's ring kept at most `capacity` of its 5000 spans: the newest.
  for (int t = 0; t < kThreads; ++t) {
    std::vector<FlightEvent> mine;
    for (const FlightEvent& ev : events_with_label("fr-span-race")) {
      if (std::string(ev.object) == "fr-w" + std::to_string(t)) {
        mine.push_back(ev);
      }
    }
    if (mine.empty()) {
      ADD_FAILURE() << "writer " << t << " left no span";
      continue;
    }
    EXPECT_LE(mine.size(), recorder.capacity());
    EXPECT_EQ(mine.back().a, kSpans);
  }
  release.store(true);
  for (auto& w : writers) w.join();
}

TEST(FlightRecorderTest, ExitedThreadsHandTheirRingsBack) {
  auto& recorder = FlightRecorder::global();
  const std::uint64_t dropped_before = recorder.dropped();
  // More short-lived threads than the ring cap, one at a time.
  for (int i = 0; i < 300; ++i) {
    std::thread([&recorder] {
      recorder.record_transition("fr-recycle", 0, 1);
    }).join();
  }
  std::thread([&recorder] {
    recorder.record_transition("fr-recycle-fresh", 2, 3);
  }).join();

  const auto fresh = events_with_label("fr-recycle-fresh");
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].a, 2u);
  EXPECT_EQ(recorder.dropped(), dropped_before);
  EXPECT_LT(recorder.memory_used_bytes(),
            300 * recorder.capacity() * FlightRecorder::kSlotBytes);
  // A claimed ring forgets its last owner: at most the newest thread's
  // event survives.
  EXPECT_LE(events_with_label("fr-recycle").size(), 1u);
}

TEST(FlightRecorderTest, SignalSafeDumpWritesParseableEvents) {
  FlightRecorder::global().record_transition("fr-sigdump", 7, 8);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // The rings hold far more than one pipe buffer by now; drain concurrently
  // or the dump blocks on write(2).
  std::string dump;
  std::thread reader([&dump, fd = fds[0]] {
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
      dump.append(buf, static_cast<std::size_t>(n));
    }
  });
  FlightRecorder::global().dump_signal_safe(fds[1]);
  ::close(fds[1]);
  reader.join();
  ::close(fds[0]);
  EXPECT_NE(dump.find("fr-sigdump"), std::string::npos);
  EXPECT_NE(dump.find('7'), std::string::npos);
}

TEST(FlightRecorderTest, RenderMentionsVerbsAndComponents) {
  set_flight_tenant("tenant-render");
  {
    TraceScope scope;
    record_span(scope, FlightOp::kPut, flight_tenant(), "fr-render-obj", "",
                StatusCode::kOk, std::chrono::microseconds(42));
  }
  set_flight_tenant({});
  const std::string text = FlightRecorder::global().render();
  EXPECT_NE(text.find("op put obj=fr-render-obj"), std::string::npos);
  EXPECT_NE(text.find("tenant=tenant-render"), std::string::npos);
}

}  // namespace
}  // namespace tiera
