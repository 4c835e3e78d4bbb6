#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/logging.h"

namespace tiera {

namespace {

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

// Spans slower than this (roots and rule events) are logged with their
// whole trace tree; 0 disables.
const double g_slow_op_ms = env_slow_op_ms();

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

std::string_view chrome_category(FlightOp op) {
  switch (op) {
    case FlightOp::kEvent: return "policy";
    case FlightOp::kResponse: return "response";
    case FlightOp::kRetry:
    case FlightOp::kHedge: return "resilience";
    default: return "request";
  }
}

void record(const FlightEvent& span) {
  FlightRecorder::global().record(span);
  if (g_slow_op_ms <= 0 || span.duration_ms() < g_slow_op_ms) return;
  // Only completed roots (requests, timer/threshold firings) and rule
  // events log: their subtree is complete at this point, and per-response
  // children would double-log the same trace.
  if (span.parent_span_id != 0 && span.op != FlightOp::kEvent) return;
  TIERA_LOG(kWarn, "trace") << "slow op (" << span.duration_ms() << "ms >= "
                            << g_slow_op_ms << "ms) trace " << span.trace_id
                            << ":\n"
                            << render_span_tree(recent_spans(0),
                                                span.trace_id);
}

FlightEvent make_span(FlightOp op, TimePoint start, Duration elapsed,
                      std::string_view label, std::string_view object_id,
                      std::string_view tier, StatusCode status) {
  FlightEvent span;
  span.t_us = to_us_ticks(start);
  span.b = static_cast<std::uint64_t>(std::max<std::int64_t>(elapsed.count(), 0));
  span.op = op;
  span.status = static_cast<std::uint8_t>(status);
  copy_flight_text(span.label, label);
  copy_flight_text(span.object, object_id);
  copy_flight_text(span.tier, tier);
  return span;
}

}  // namespace

void record_span(const TraceScope& scope, FlightOp op, std::string_view label,
                 std::string_view object_id, std::string_view tier,
                 StatusCode status, Duration elapsed, std::uint64_t rule_id,
                 std::uint8_t stage_digest) {
  if (!FlightRecorder::global().recording()) return;
  FlightEvent span =
      make_span(op, scope.start(), elapsed, label, object_id, tier, status);
  span.a = rule_id;
  span.trace_id = scope.trace_id();
  span.span_id = scope.span_id();
  span.parent_span_id = scope.parent_span_id();
  span.digest = stage_digest;
  record(span);
}

void record_leaf_span(FlightOp op, TimePoint start, std::string_view label,
                      std::string_view object_id, std::string_view tier,
                      StatusCode status) {
  if (!FlightRecorder::global().recording()) return;
  const TraceContext ctx = current_trace_context();
  FlightEvent span =
      make_span(op, start, now() - start, label, object_id, tier, status);
  span.trace_id = ctx.valid() ? ctx.trace_id : next_trace_id();
  span.span_id = next_span_id();
  span.parent_span_id = ctx.valid() ? ctx.span_id : 0;
  record(span);
}

std::vector<FlightEvent> recent_spans(std::size_t last_n) {
  std::vector<FlightEvent> spans = FlightRecorder::global().merged();
  spans.erase(std::remove_if(spans.begin(), spans.end(),
                             [](const FlightEvent& ev) {
                               return ev.kind != FlightKind::kSpan;
                             }),
              spans.end());
  if (last_n != 0 && last_n < spans.size()) {
    spans.erase(spans.begin(),
                spans.begin() +
                    static_cast<std::ptrdiff_t>(spans.size() - last_n));
  }
  return spans;
}

namespace {

// A rule or response span's name is a label cut to 23 characters, which
// rules of one instance can share; its rule id tells them apart.
std::string span_title(const FlightEvent& span) {
  std::string title(span.name());
  if (!span.is_request() && span.rule_id() != 0) {
    title += " rule=" + std::to_string(span.rule_id());
  }
  return title;
}

}  // namespace

std::string render_spans(const std::vector<FlightEvent>& spans) {
  std::string out;
  for (const FlightEvent& span : spans) {
    const std::string name = span_title(span);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-8s %-24s tier=%-12s %8.3fms %-6s trace=%llu span=%llu "
                  "parent=%llu%s%s\n",
                  std::string(to_string(span.op)).c_str(),
                  span.object[0] ? span.object : name.c_str(),
                  span.tier[0] ? span.tier : "-", span.duration_ms(),
                  span.ok() ? "ok" : "FAILED",
                  static_cast<unsigned long long>(span.trace_id),
                  static_cast<unsigned long long>(span.span_id),
                  static_cast<unsigned long long>(span.parent_span_id),
                  span.is_request() ? "" : " ",
                  span.is_request() ? "" : name.c_str());
    out += line;
  }
  if (out.empty()) out = "(no requests traced)\n";
  return out;
}

std::string render_span_tree(const std::vector<FlightEvent>& all,
                             std::uint64_t trace_id) {
  std::vector<FlightEvent> spans;
  for (const FlightEvent& span : all) {
    if (span.kind == FlightKind::kSpan && span.trace_id == trace_id) {
      spans.push_back(span);
    }
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const FlightEvent& a, const FlightEvent& b) {
                     return a.t_us < b.t_us;
                   });
  // parent span id -> children, insertion (= start) order preserved.
  std::map<std::uint64_t, std::vector<const FlightEvent*>> children;
  for (const FlightEvent& span : spans) {
    children[span.parent_span_id].push_back(&span);
  }

  std::string out;
  const auto render = [&](const FlightEvent& span, int depth,
                          const auto& self) -> void {
    char line[256];
    std::snprintf(line, sizeof(line), "%*s%s %s%s%s tier=%s %.3fms %s\n",
                  depth * 2, "", std::string(to_string(span.op)).c_str(),
                  span_title(span).c_str(), span.object[0] ? " " : "",
                  span.object, span.tier[0] ? span.tier : "-",
                  span.duration_ms(), span.ok() ? "ok" : "FAILED");
    out += line;
    const auto it = children.find(span.span_id);
    if (it == children.end()) return;
    for (const FlightEvent* child : it->second) self(*child, depth + 1, self);
  };
  // Roots: parent 0, or parent no longer in the rings (overwritten).
  for (const FlightEvent& span : spans) {
    const bool has_parent = std::any_of(
        spans.begin(), spans.end(), [&](const FlightEvent& other) {
          return span.parent_span_id == other.span_id;
        });
    if (!has_parent) render(span, 0, render);
  }
  if (out.empty()) out = "(trace not in ring)\n";
  return out;
}

std::string render_chrome_trace(const std::vector<FlightEvent>& spans) {
  std::vector<const FlightEvent*> ordered;
  ordered.reserve(spans.size());
  for (const auto& span : spans) ordered.push_back(&span);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const FlightEvent* a, const FlightEvent* b) {
                     return a->t_us < b->t_us;
                   });
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const FlightEvent* span : ordered) {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%lld,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":%llu,\"args\":{\"trace\":%llu,"
        "\"span\":%llu,\"parent\":%llu,\"rule\":%llu,\"object\":\"%s\","
        "\"tier\":\"%s\",\"ok\":%s}}",
        first ? "" : ",", json_escape(span->name()).c_str(),
        std::string(chrome_category(span->op)).c_str(),
        static_cast<long long>(span->t_us),
        static_cast<double>(span->b) / 1000.0,
        static_cast<unsigned long long>(span->trace_id),
        static_cast<unsigned long long>(span->trace_id),
        static_cast<unsigned long long>(span->span_id),
        static_cast<unsigned long long>(span->parent_span_id),
        static_cast<unsigned long long>(span->rule_id()),
        json_escape(span->object).c_str(), json_escape(span->tier).c_str(),
        span->ok() ? "true" : "false");
    out += buf;
    first = false;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace tiera
