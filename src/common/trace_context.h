// TraceContext: the causal identity a request carries through the system.
//
// A context is (trace id, span id). The trace id groups every span that a
// single application-interface request (or a timer/threshold firing)
// ultimately causes; the span id names the currently-open span, so spans
// opened underneath it become its children. The context lives in a
// thread-local and hops threads explicitly: ThreadPool captures the
// submitter's context with each task and reinstates it in the worker, which
// is how a background `move` fired by a PUT stays causally linked to that
// PUT.
//
// This header lives in common (not obs) so ThreadPool can carry contexts
// without the common layer depending on the metrics/tracing library; span
// recording in src/obs/trace.h consumes these ids.
#pragma once

#include <cstdint>

#include "common/clock.h"

namespace tiera {

struct TraceContext {
  std::uint64_t trace_id = 0;  // 0 = no active trace
  std::uint64_t span_id = 0;   // span that spans opened now become children of
  bool valid() const { return trace_id != 0; }
};

// The calling thread's ambient context ({0,0} when none is installed).
TraceContext current_trace_context();

// Fresh process-unique ids (sequential, never 0). Sequential keeps them
// small enough to round-trip through JSON numbers in the trace exporter.
std::uint64_t next_trace_id();
std::uint64_t next_span_id();

// RAII: installs `ctx` as the thread's ambient context, restoring the
// previous one on destruction. Used by ThreadPool workers to adopt the
// submitter's context for the duration of a task.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

// RAII span: opens a new span under the ambient context (minting a fresh
// trace when there is none — i.e. this is a root span), installs itself as
// the ambient context, and remembers its start time. The owner records the
// span via `record_span(scope, ...)` (obs/trace.h) before the scope dies.
class TraceScope {
 public:
  TraceScope();
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  std::uint64_t trace_id() const { return self_.trace_id; }
  std::uint64_t span_id() const { return self_.span_id; }
  std::uint64_t parent_span_id() const { return parent_; }
  TimePoint start() const { return start_; }
  Duration elapsed() const { return now() - start_; }

 private:
  TraceContext saved_;
  std::uint64_t parent_;
  TraceContext self_;
  TimePoint start_;
};

}  // namespace tiera
