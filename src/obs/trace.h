// Causal request tracing, recorded into the flight recorder.
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
// A span is one kSpan event in the calling thread's flight ring
// (src/obs/flight_recorder.h): recording is always on, lock-free and never
// allocates, and TIERA_FLIGHT_CAPACITY=0 turns it off with the rest of the
// recorder. Queries read the process-wide merged rings.
//
// Renderings:
//   * render_spans()       — one line per span, oldest first (tiera_cli trace);
//   * render_chrome_trace() — Chrome trace-event JSON (chrome://tracing,
//                            Perfetto);
//   * render_span_tree()   — one trace as an indented parent/child tree;
//   * slow-op log          — completed span trees whose root exceeds
//                            TIERA_SLOW_OP_MS are logged as indented trees.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/trace_context.h"
#include "obs/flight_recorder.h"

namespace tiera {

// Records the span a live TraceScope represents (ids and start come from
// the scope), `elapsed` after its start. `label` is the tenant of a
// PUT/GET/DELETE and the name of any other span.
void record_span(const TraceScope& scope, FlightOp op, std::string_view label,
                 std::string_view object_id, std::string_view tier,
                 StatusCode status, Duration elapsed,
                 std::uint64_t rule_id = 0, std::uint8_t stage_digest = 0);

// Records a leaf span that began at `start` under the thread's ambient
// context (a fresh root when there is none): work that opens no scope of
// its own, like a retried tier op or a hedged read.
void record_leaf_span(FlightOp op, TimePoint start, std::string_view label,
                      std::string_view object_id, std::string_view tier,
                      StatusCode status);

// The newest `last_n` spans in the flight rings, oldest first.
std::vector<FlightEvent> recent_spans(std::size_t last_n);

// One line per span, in the given order.
std::string render_spans(const std::vector<FlightEvent>& spans);
// Indented parent/child tree of the spans in `spans` that belong to one
// trace.
std::string render_span_tree(const std::vector<FlightEvent>& spans,
                             std::uint64_t trace_id);
// Chrome trace-event JSON ("traceEvents" array of complete events, one per
// span, ts/dur in microseconds, tid = trace id) — loadable in
// chrome://tracing and Perfetto. Deterministic: spans sort stably by start
// time.
std::string render_chrome_trace(const std::vector<FlightEvent>& spans);

}  // namespace tiera
