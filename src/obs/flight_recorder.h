// Black-box flight recorder: per-thread lock-free rings that continuously
// hold the last N events the process produced — one fixed-size slot per
// event, overwritten oldest-first — so a crash, stall or SLO violation can
// ship a forensic record of what the server was doing when it happened.
//
// Three event kinds share one 120-byte POD slot payload:
//   * kSpan        — one span of the causal trace (src/obs/trace.h): an
//                    application op (PUT/GET/DELETE: tenant, status code,
//                    stage digest), a policy-rule firing, a response it
//                    ran, a retried tier op or a hedged read. Each carries
//                    its trace/span/parent ids, start, elapsed time, object
//                    id (truncated to 23 chars) and tier (15 chars).
//   * kTransition  — a state machine moved: breaker open/close, SLO
//                    violated/recovered, admission rung change, journal
//                    flush error, watchdog stall/recovery.
//   * kMetric      — a periodic counter-delta snapshot (published by the
//                    watchdog thread), so the merged timeline shows request
//                    rate trends around an incident.
//
// Concurrency: each thread owns one ring; the owner is the only writer.
// Slots are arrays of relaxed std::atomic<u64> words framed by a per-slot
// sequence stamp (store 0, write payload, store seq) — a seqlock — so the
// dump path (another thread, or a fatal-signal handler) reads concurrently
// without locks and discards torn slots. Ring registration is a bounded
// append-only array of atomic pointers: no lock is ever needed to walk it,
// which is what makes dump_signal_safe() async-signal-safe.
//
// Memory bound (fixed, enforced at registration): at most kMaxThreads rings
// of `capacity()` slots each. With the default capacity of 512 events and
// 128 bytes/slot that is 64 KiB per ring and a 16 MiB process ceiling.
// A thread that exits hands its ring back; the next thread to record claims
// a free ring (clearing the old owner's events and name) before it appends
// a new one, so only threads alive at once count against kMaxThreads.
// Beyond that, events drop into `dropped()`. Rings are never freed (late
// dumps stay safe), so memory_used_bytes() is monotonic and <=
// memory_bound_bytes() always. TIERA_FLIGHT_CAPACITY overrides the
// per-thread slot count (rounded to a power of two; 0 disables recording
// entirely).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace tiera {

enum class FlightKind : std::uint8_t {
  kSpan = 1,
  kTransition = 2,
  kMetric = 3,
};

// What a span timed. PUT/GET/DELETE are the request roots; the rest is work
// done on a request's (or a timer's) behalf.
enum class FlightOp : std::uint8_t {
  kPut = 1,
  kGet = 2,
  kDelete = 3,
  kEvent = 4,     // a policy rule firing (action/timer/threshold)
  kResponse = 5,  // one response executed by a firing rule
  kRetry = 6,     // a tier op that needed the resilience layer (retries/breaker)
  kHedge = 7,     // a hedged read raced against a slow primary tier
};

std::string_view to_string(FlightOp op);  // "PUT", "GET", ..., "HEDGE"

// One event: what a slot stores (every field but `thread`) and what
// merged() returns.
struct FlightEvent {
  std::int64_t t_us = 0;  // steady-clock µs: a span's start, else the event
                          // time; the cross-thread merge key
  std::uint64_t a = 0;    // span: rule id    | transition: from | metric: prev
  std::uint64_t b = 0;    // span: elapsed ns | transition: to   | metric: now
  std::uint64_t trace_id = 0;        // spans: groups causally-linked spans
  std::uint64_t span_id = 0;         // spans
  std::uint64_t parent_span_id = 0;  // spans: 0 = root span
  FlightKind kind = FlightKind::kSpan;
  FlightOp op = FlightOp::kPut;  // spans
  std::uint8_t status = 0;       // spans: StatusCode of the result
  std::uint8_t digest = 0;       // request spans: stage bitmask (1 << Stage)
  char spare[4] = {};
  // Request span: tenant (from the RPC header) | other spans: rule or
  // response name | transition: component | metric: series name.
  char label[24] = {};
  char object[24] = {};  // spans: object id ("" = none)
  char tier[16] = {};    // spans: tier served/stored/hedged ("" = none)
  char thread[32] = {};  // filled by merged(); not stored per slot

  StatusCode code() const { return static_cast<StatusCode>(status); }
  bool ok() const { return code() == StatusCode::kOk; }
  // PUT/GET/DELETE spans, named by their verb; other spans by their label.
  bool is_request() const { return op <= FlightOp::kDelete; }
  std::string_view name() const;
  double duration_ms() const { return static_cast<double>(b) / 1e6; }
  std::uint64_t rule_id() const { return a; }
};

class FlightRecorder {
 public:
  static constexpr std::size_t kMaxThreads = 256;
  static constexpr std::size_t kSlotBytes = 128;  // payload words + stamp

  static FlightRecorder& global();

  // Always-on by default; set_enabled(false) turns record*() into one
  // relaxed load (used by the paired micro benchmark).
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool recording() const { return capacity_ != 0 && enabled(); }

  std::size_t capacity() const { return capacity_; }  // slots per thread
  std::size_t memory_bound_bytes() const {
    return kMaxThreads * capacity_ * kSlotBytes;
  }
  std::size_t memory_used_bytes() const;
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  // --- writers (any thread; lock-free; a few relaxed atomic stores) ------

  // Stores `ev`: every field but `thread` (spans: obs/trace.h fills them).
  void record(const FlightEvent& ev);
  void record_transition(std::string_view component, std::uint64_t from,
                         std::uint64_t to);
  void record_metric(std::string_view name, std::uint64_t prev,
                     std::uint64_t now_value);

  // --- readers -----------------------------------------------------------

  // Events from every ring, merged oldest-first, capped to the most recent
  // `max_events` (0 = everything still in the rings).
  std::vector<FlightEvent> merged(std::size_t max_events = 0) const;
  // Human-readable timeline of merged(max_events).
  std::string render(std::size_t max_events = 0) const;

  // Async-signal-safe dump: walks the pre-serialized rings and formats each
  // event with write(2) only — no allocation, no locks, no stdio. Safe to
  // call from a SIGSEGV handler.
  void dump_signal_safe(int fd) const;

 private:
  FlightRecorder();
  struct ThreadRing;
  ThreadRing* ring_for_this_thread();
  ThreadRing* claim_free_ring();

  std::size_t capacity_ = 0;  // 0 = recording disabled via env
  std::atomic<bool> enabled_{true};
  std::atomic<std::size_t> ring_count_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<ThreadRing*> rings_[kMaxThreads] = {};
};

// Tenant context for request spans: the RPC layer sets it around handler
// execution so instance-level records carry the caller's tenant. Stored in
// a fixed thread-local buffer; empty clears it.
void set_flight_tenant(std::string_view tenant);
std::string_view flight_tenant();

// Copies `src` into a fixed event field, truncated and NUL-padded.
template <std::size_t N>
void copy_flight_text(char (&dst)[N], std::string_view src) {
  const std::size_t n = src.copy(dst, N - 1);  // null-safe when empty
  std::memset(dst + n, 0, N - n);
}

// Renders one FlightEvent as a single text line (shared by render() and
// the incident report writer).
std::string render_flight_event(const FlightEvent& ev);

}  // namespace tiera
