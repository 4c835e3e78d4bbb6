// RequestTracer: a lock-cheap ring buffer of causally-linked spans.
//
// Every application-interface operation (PUT/GET/DELETE) records one span;
// every policy-rule firing records an event span, and every response the
// rule executes (move, copy, delete, grow, ...) records a child span. Spans
// carry the TraceContext ids (trace id, span id, parent span id) minted at
// the application-interface boundary and propagated through the control
// layer's thread pool, so a background `move` triggered by a PUT is linked —
// same trace id, parent = the PUT's span — to the request that caused it.
// That is the "why did data move between tiers" record the paper's policy
// debugging needs.
//
// Renderings:
//   * dump()         — one line per span, newest last (tiera_cli trace);
//   * dump_chrome()  — Chrome trace-event JSON (chrome://tracing, Perfetto);
//   * slow-op log    — completed span trees whose root exceeds
//                      TIERA_SLOW_OP_MS are logged as indented trees.
//
// Design: a fixed array of slots; writers claim a slot with one relaxed
// fetch_add and then fill it under that slot's own mutex, so concurrent
// recorders only contend when the ring wraps onto the same slot. Spans are
// fixed-size (ids truncated) so recording never allocates. Overwriting a
// still-valid slot counts into `tiera_trace_dropped_total`; size the ring
// with TIERA_TRACE_CAPACITY when the default loses spans.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/trace_context.h"

namespace tiera {

class Counter;

enum class TraceOp : std::uint8_t {
  kPut,
  kGet,
  kDelete,
  kEvent,     // a policy rule firing (action/timer/threshold)
  kResponse,  // one response executed by a firing rule
  kRetry,     // a tier op that needed the resilience layer (retries/breaker)
  kHedge,     // a hedged read raced against a slow primary tier
};

std::string_view to_string(TraceOp op);

class RequestTracer {
 public:
  struct Span {
    std::uint64_t seq = 0;       // global order of recording
    std::uint64_t trace_id = 0;  // groups causally-linked spans
    std::uint64_t span_id = 0;
    std::uint64_t parent_span_id = 0;  // 0 = root span
    std::uint64_t rule_id = 0;         // policy rule involved (0 = none)
    TraceOp op = TraceOp::kPut;
    char name[40] = {};       // op verb / rule label / response, truncated
    char object_id[48] = {};  // truncated, NUL-terminated
    char tier[24] = {};       // tier served/stored ("" when none)
    std::int64_t start_us = 0;  // steady-clock microseconds at span start
    double duration_ms = 0;
    // An application op's result code. Spans recorded with only an ok flag
    // (rule firings, responses, retries, hedges) store kInternal for
    // "failed".
    StatusCode status = StatusCode::kOk;

    bool ok() const { return status == StatusCode::kOk; }
  };

  explicit RequestTracer(std::size_t capacity = 512);

  RequestTracer(const RequestTracer&) = delete;
  RequestTracer& operator=(const RequestTracer&) = delete;

  // `fallback` unless TIERA_TRACE_CAPACITY names a positive integer.
  static std::size_t capacity_from_env(std::size_t fallback);

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Spans slower than this (and eligible: root or rule-event) are logged
  // with their whole trace tree. 0 disables; TIERA_SLOW_OP_MS presets it.
  void set_slow_op_threshold_ms(double ms) {
    slow_op_ms_.store(ms, std::memory_order_relaxed);
  }
  double slow_op_threshold_ms() const {
    return slow_op_ms_.load(std::memory_order_relaxed);
  }

  // Legacy leaf-span record: allocates a fresh span under the thread's
  // ambient TraceContext; the span started `latency` ago.
  void record(TraceOp op, std::string_view object_id, std::string_view tier,
              Duration latency, bool ok);

  // Records the span a live TraceScope represents (ids + start time come
  // from the scope). `name` defaults to the op verb when empty.
  void record(const TraceScope& scope, TraceOp op, std::string_view name,
              std::string_view object_id, std::string_view tier, bool ok,
              std::uint64_t rule_id = 0);

  // Records an application op's root span (PUT/GET/DELETE) with its result
  // code; `elapsed` is the op's one latency value, shared with its other
  // completion records.
  void record_op(const TraceScope& scope, TraceOp op,
                 std::string_view object_id, std::string_view tier,
                 StatusCode status, Duration elapsed);

  // The newest `last_n` spans, oldest first.
  std::vector<Span> snapshot(std::size_t last_n) const;
  // Text rendering of snapshot(last_n), one line per span.
  std::string dump(std::size_t last_n = 32) const;
  // Chrome trace-event JSON of snapshot(last_n).
  std::string dump_chrome(std::size_t last_n = 512) const;
  // Indented parent/child tree of the spans recorded for one trace.
  std::string dump_tree(std::uint64_t trace_id) const;

  std::uint64_t total_recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  // Spans overwritten before any snapshot could keep them (ring full).
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    mutable std::mutex mu;
    Span span;
    bool valid = false;
  };

  void record_scope(const TraceScope& scope, TraceOp op,
                    std::string_view name, std::string_view object_id,
                    std::string_view tier, StatusCode status,
                    Duration elapsed, std::uint64_t rule_id);
  void fill_slot(Span span);
  void maybe_log_slow(const Span& span);

  std::atomic<bool> enabled_{true};
  std::atomic<double> slow_op_ms_{0};
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::vector<Slot> slots_;
  Counter* dropped_counter_;  // tiera_trace_dropped_total
};

// Chrome trace-event JSON ("traceEvents" array of complete events, one per
// span, ts/dur in microseconds, tid = trace id) — loadable in
// chrome://tracing and Perfetto. Deterministic: spans sort by start time.
std::string render_chrome_trace(const std::vector<RequestTracer::Span>& spans);

}  // namespace tiera
