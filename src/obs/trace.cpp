#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "common/logging.h"
#include "obs/metrics.h"

namespace tiera {

namespace {

void copy_truncated(char* dest, std::size_t dest_size, std::string_view src) {
  const std::size_t n = std::min(src.size(), dest_size - 1);
  std::memcpy(dest, src.data(), n);
  dest[n] = '\0';
}

std::int64_t to_us_ticks(TimePoint t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             t.time_since_epoch())
      .count();
}

double env_slow_op_ms() {
  const char* value = std::getenv("TIERA_SLOW_OP_MS");
  if (!value || !*value) return 0;
  const double ms = std::atof(value);
  return ms > 0 ? ms : 0;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string_view chrome_category(TraceOp op) {
  switch (op) {
    case TraceOp::kEvent: return "policy";
    case TraceOp::kResponse: return "response";
    case TraceOp::kRetry:
    case TraceOp::kHedge: return "resilience";
    default: return "request";
  }
}

}  // namespace

std::string_view to_string(TraceOp op) {
  switch (op) {
    case TraceOp::kPut: return "PUT";
    case TraceOp::kGet: return "GET";
    case TraceOp::kDelete: return "DELETE";
    case TraceOp::kEvent: return "EVENT";
    case TraceOp::kResponse: return "RESPONSE";
    case TraceOp::kRetry: return "RETRY";
    case TraceOp::kHedge: return "HEDGE";
  }
  return "?";
}

RequestTracer::RequestTracer(std::size_t capacity)
    : slots_(capacity ? capacity : 1),
      dropped_counter_(
          &MetricsRegistry::global().counter("tiera_trace_dropped_total")) {
  slow_op_ms_.store(env_slow_op_ms(), std::memory_order_relaxed);
}

std::size_t RequestTracer::capacity_from_env(std::size_t fallback) {
  const char* value = std::getenv("TIERA_TRACE_CAPACITY");
  if (!value || !*value) return fallback;
  const long parsed = std::atol(value);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

void RequestTracer::fill_slot(Span span) {
  span.seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[span.seq % slots_.size()];
  bool overwrote = false;
  {
    std::lock_guard lock(slot.mu);
    overwrote = slot.valid;
    slot.span = span;
    slot.valid = true;
  }
  if (overwrote) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    dropped_counter_->inc();
  }
  maybe_log_slow(span);
}

void RequestTracer::record(TraceOp op, std::string_view object_id,
                           std::string_view tier, Duration latency, bool ok) {
  if (!enabled()) return;
  const TraceContext ctx = current_trace_context();
  Span span;
  span.trace_id = ctx.valid() ? ctx.trace_id : next_trace_id();
  span.span_id = next_span_id();
  span.parent_span_id = ctx.valid() ? ctx.span_id : 0;
  span.op = op;
  copy_truncated(span.name, sizeof(span.name), to_string(op));
  copy_truncated(span.object_id, sizeof(span.object_id), object_id);
  copy_truncated(span.tier, sizeof(span.tier), tier);
  span.start_us = to_us_ticks(now() - latency);
  span.duration_ms = to_ms(latency);
  span.status = ok ? StatusCode::kOk : StatusCode::kInternal;
  fill_slot(span);
}

void RequestTracer::record(const TraceScope& scope, TraceOp op,
                           std::string_view name, std::string_view object_id,
                           std::string_view tier, bool ok,
                           std::uint64_t rule_id) {
  record_scope(scope, op, name, object_id, tier,
               ok ? StatusCode::kOk : StatusCode::kInternal, scope.elapsed(),
               rule_id);
}

void RequestTracer::record_op(const TraceScope& scope, TraceOp op,
                              std::string_view object_id,
                              std::string_view tier, StatusCode status,
                              Duration elapsed) {
  record_scope(scope, op, "", object_id, tier, status, elapsed, 0);
}

void RequestTracer::record_scope(const TraceScope& scope, TraceOp op,
                                 std::string_view name,
                                 std::string_view object_id,
                                 std::string_view tier, StatusCode status,
                                 Duration elapsed, std::uint64_t rule_id) {
  if (!enabled()) return;
  Span span;
  span.trace_id = scope.trace_id();
  span.span_id = scope.span_id();
  span.parent_span_id = scope.parent_span_id();
  span.rule_id = rule_id;
  span.op = op;
  copy_truncated(span.name, sizeof(span.name),
                 name.empty() ? to_string(op) : name);
  copy_truncated(span.object_id, sizeof(span.object_id), object_id);
  copy_truncated(span.tier, sizeof(span.tier), tier);
  span.start_us = to_us_ticks(scope.start());
  span.duration_ms = to_ms(elapsed);
  span.status = status;
  fill_slot(span);
}

std::vector<RequestTracer::Span> RequestTracer::snapshot(
    std::size_t last_n) const {
  std::vector<Span> spans;
  spans.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    std::lock_guard lock(slot.mu);
    if (slot.valid) spans.push_back(slot.span);
  }
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.seq < b.seq; });
  if (last_n < spans.size()) {
    spans.erase(spans.begin(),
                spans.begin() + static_cast<std::ptrdiff_t>(spans.size() - last_n));
  }
  return spans;
}

std::string RequestTracer::dump(std::size_t last_n) const {
  const std::vector<Span> spans = snapshot(last_n);
  std::string out;
  for (const Span& span : spans) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "#%llu %-8s %-24s tier=%-12s %8.3fms %-6s trace=%llu "
                  "span=%llu parent=%llu%s%s\n",
                  static_cast<unsigned long long>(span.seq),
                  std::string(to_string(span.op)).c_str(),
                  span.object_id[0] ? span.object_id : span.name,
                  span.tier[0] ? span.tier : "-", span.duration_ms,
                  span.ok() ? "ok" : "FAILED",
                  static_cast<unsigned long long>(span.trace_id),
                  static_cast<unsigned long long>(span.span_id),
                  static_cast<unsigned long long>(span.parent_span_id),
                  span.op == TraceOp::kEvent || span.op == TraceOp::kResponse
                      ? " "
                      : "",
                  span.op == TraceOp::kEvent || span.op == TraceOp::kResponse
                      ? span.name
                      : "");
    out += line;
  }
  if (out.empty()) out = "(no requests traced)\n";
  return out;
}

std::string RequestTracer::dump_chrome(std::size_t last_n) const {
  return render_chrome_trace(snapshot(last_n));
}

std::string RequestTracer::dump_tree(std::uint64_t trace_id) const {
  std::vector<Span> spans = snapshot(slots_.size());
  spans.erase(std::remove_if(spans.begin(), spans.end(),
                             [trace_id](const Span& s) {
                               return s.trace_id != trace_id;
                             }),
              spans.end());
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_us < b.start_us;
  });
  // parent span id -> children, insertion (= start) order preserved.
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) children[span.parent_span_id].push_back(&span);

  std::string out;
  const auto render = [&](const Span& span, int depth, const auto& self) -> void {
    char line[256];
    std::snprintf(line, sizeof(line), "%*s%s %s%s%s tier=%s %.3fms %s\n",
                  depth * 2, "", std::string(to_string(span.op)).c_str(),
                  span.name, span.object_id[0] ? " " : "", span.object_id,
                  span.tier[0] ? span.tier : "-", span.duration_ms,
                  span.ok() ? "ok" : "FAILED");
    out += line;
    const auto it = children.find(span.span_id);
    if (it == children.end()) return;
    for (const Span* child : it->second) self(*child, depth + 1, self);
  };
  // Roots: parent 0, or parent no longer in the ring (evicted).
  std::vector<bool> has_parent(spans.size(), false);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (const Span& other : spans) {
      if (spans[i].parent_span_id == other.span_id) {
        has_parent[i] = true;
        break;
      }
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!has_parent[i]) render(spans[i], 0, render);
  }
  if (out.empty()) out = "(trace not in ring)\n";
  return out;
}

void RequestTracer::maybe_log_slow(const Span& span) {
  const double threshold = slow_op_ms_.load(std::memory_order_relaxed);
  if (threshold <= 0 || span.duration_ms < threshold) return;
  // Only completed roots (requests, timer/threshold firings) and rule
  // events log: their subtree is complete at this point, and per-response
  // children would double-log the same trace.
  if (span.parent_span_id != 0 && span.op != TraceOp::kEvent) return;
  TIERA_LOG(kWarn, "trace") << "slow op (" << span.duration_ms << "ms >= "
                            << threshold << "ms) trace " << span.trace_id
                            << ":\n" << dump_tree(span.trace_id);
}

std::string render_chrome_trace(
    const std::vector<RequestTracer::Span>& spans) {
  std::vector<const RequestTracer::Span*> ordered;
  ordered.reserve(spans.size());
  for (const auto& span : spans) ordered.push_back(&span);
  std::sort(ordered.begin(), ordered.end(),
            [](const RequestTracer::Span* a, const RequestTracer::Span* b) {
              return a->start_us != b->start_us ? a->start_us < b->start_us
                                                : a->seq < b->seq;
            });
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const RequestTracer::Span* span : ordered) {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%lld,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":%llu,\"args\":{\"trace\":%llu,"
        "\"span\":%llu,\"parent\":%llu,\"rule\":%llu,\"object\":\"%s\","
        "\"tier\":\"%s\",\"ok\":%s}}",
        first ? "" : ",", json_escape(span->name).c_str(),
        std::string(chrome_category(span->op)).c_str(),
        static_cast<long long>(span->start_us), span->duration_ms * 1000.0,
        static_cast<unsigned long long>(span->trace_id),
        static_cast<unsigned long long>(span->trace_id),
        static_cast<unsigned long long>(span->span_id),
        static_cast<unsigned long long>(span->parent_span_id),
        static_cast<unsigned long long>(span->rule_id),
        json_escape(span->object_id).c_str(), json_escape(span->tier).c_str(),
        span->ok() ? "true" : "false");
    out += buf;
    first = false;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace tiera
