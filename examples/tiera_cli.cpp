// tiera_cli: command-line client for a running tierad server.
//
//   $ ./tiera_cli <port> put <id> <text> [tag ...]
//   $ ./tiera_cli <port> get <id>
//   $ ./tiera_cli <port> rm <id>
//   $ ./tiera_cli <port> stat <id>
//   $ ./tiera_cli <port> tiers
//   $ ./tiera_cli <port> grow <tier> <percent>
//   $ ./tiera_cli <port> stats [--format=prom|text]
//   $ ./tiera_cli <port> trace [--json] [n]
//   $ ./tiera_cli <port> top [--sections slo,pool,...] [--watch <secs>]
//                            [period-seconds]
//   $ ./tiera_cli <port> slo
//   $ ./tiera_cli <port> heat [--top N]
//   $ ./tiera_cli <port> profile [--seconds N] [--interval-us N]
//                                [--folded|--flamegraph-html]
//   $ ./tiera_cli <port> incident [--list|--latest]
//   $ ./tiera_cli <port> loglevel <debug|info|warn|error|off>
//
// `trace --json` emits Chrome trace-event JSON (open in chrome://tracing or
// https://ui.perfetto.dev); `top` refreshes live per-tier / per-rule activity
// tables until interrupted (`--sections` limits it to a comma-separated
// subset of header,tiers,slo,rules,pool,heat,cost). `heat` prints the
// per-tier hot-key top-K, heat histograms and the live cost-meter breakdown.
// `profile` runs the server's sampling profiler for N seconds and prints
// folded stacks (default) or a self-contained HTML flamegraph — redirect to
// a file and open in a browser.
//
// `incident` triggers a black-box incident report on the server (the path
// is printed); `incident --list` prints the paths of the reports currently
// retained, `incident --latest` dumps the newest report's contents. Needs
// tierad running with --incident-dir. `loglevel` flips the server's log
// level at runtime (it outranks the TIERA_LOG_LEVEL environment the server
// started with).
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/logging.h"
#include "net/tiera_service.h"
#include "obs/profiler.h"

using namespace tiera;

int main(int argc, char** argv) {
  set_log_level(LogLevel::kError);
  set_time_scale(0.0);  // the server models latency, not the CLI

  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <port> put|get|rm|stat|tiers|grow|stats|trace|top"
                 "|slo|heat|profile|incident|loglevel ...\n",
                 argv[0]);
    return 2;
  }
  const auto port = static_cast<std::uint16_t>(std::atoi(argv[1]));
  auto client = RemoteTieraClient::connect("127.0.0.1", port);
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().to_string().c_str());
    return 1;
  }
  const std::string command = argv[2];

  if (command == "put" && argc >= 5) {
    std::vector<std::string> tags;
    for (int i = 5; i < argc; ++i) tags.emplace_back(argv[i]);
    const Status s =
        (*client)->put(argv[3], as_view(std::string_view(argv[4])), tags);
    if (!s.ok()) {
      std::fprintf(stderr, "put failed: %s\n", s.to_string().c_str());
      return 1;
    }
    std::printf("ok\n");
    return 0;
  }
  if (command == "get" && argc == 4) {
    auto bytes = (*client)->get(argv[3]);
    if (!bytes.ok()) {
      std::fprintf(stderr, "get failed: %s\n",
                   bytes.status().to_string().c_str());
      return 1;
    }
    std::fwrite(bytes->data(), 1, bytes->size(), stdout);
    std::printf("\n");
    return 0;
  }
  if (command == "rm" && argc == 4) {
    const Status s = (*client)->remove(argv[3]);
    if (!s.ok()) {
      std::fprintf(stderr, "rm failed: %s\n", s.to_string().c_str());
      return 1;
    }
    std::printf("ok\n");
    return 0;
  }
  if (command == "stat" && argc == 4) {
    auto info = (*client)->stat(argv[3]);
    if (!info.ok()) {
      std::fprintf(stderr, "stat failed: %s\n",
                   info.status().to_string().c_str());
      return 1;
    }
    std::printf("id: %s\nsize: %llu\naccess_count: %llu\ndirty: %s\n",
                info->id.c_str(),
                static_cast<unsigned long long>(info->size),
                static_cast<unsigned long long>(info->access_count),
                info->dirty ? "true" : "false");
    std::printf("locations:");
    for (const auto& tier : info->locations) std::printf(" %s", tier.c_str());
    std::printf("\ntags:");
    for (const auto& tag : info->tags) std::printf(" %s", tag.c_str());
    std::printf("\n");
    return 0;
  }
  if (command == "tiers" && argc == 3) {
    auto tiers = (*client)->list_tiers();
    if (!tiers.ok()) return 1;
    for (const auto& tier : *tiers) std::printf("%s\n", tier.c_str());
    return 0;
  }
  if (command == "stats" && (argc == 3 || argc == 4)) {
    std::string format = "text";
    if (argc == 4) {
      const std::string arg = argv[3];
      const std::string prefix = "--format=";
      if (arg.rfind(prefix, 0) != 0) {
        std::fprintf(stderr, "usage: stats [--format=prom|text]\n");
        return 2;
      }
      format = arg.substr(prefix.size());
    }
    auto text = (*client)->stats(format);
    if (!text.ok()) {
      std::fprintf(stderr, "stats failed: %s\n",
                   text.status().to_string().c_str());
      return 1;
    }
    std::fputs(text->c_str(), stdout);
    return 0;
  }
  if (command == "trace" && argc >= 3 && argc <= 5) {
    bool json = false;
    std::uint32_t n = 0;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) {
        json = true;
      } else {
        n = static_cast<std::uint32_t>(std::atoi(argv[i]));
      }
    }
    // Fetch structured spans and render them locally: Chrome trace-event
    // JSON (a file chrome://tracing / Perfetto load directly) or text.
    auto spans = (*client)->trace_spans(n ? n : json ? 512u : 32u);
    if (!spans.ok()) {
      std::fprintf(stderr, "trace failed: %s\n",
                   spans.status().to_string().c_str());
      return 1;
    }
    std::fputs(json ? render_chrome_trace(*spans).c_str()
                    : render_spans(*spans).c_str(),
               stdout);
    return 0;
  }
  if (command == "top") {
    double period = 2.0;
    std::string format = "top";
    bool bad = false;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--sections" && i + 1 < argc) {
        format = std::string("top:") + argv[++i];
      } else if (arg == "--watch" && i + 1 < argc) {
        period = std::atof(argv[++i]);
      } else if (!arg.empty() && (std::isdigit(arg[0]) || arg[0] == '.')) {
        period = std::atof(arg.c_str());
      } else {
        bad = true;
      }
    }
    if (bad) {
      std::fprintf(stderr,
                   "usage: top [--sections header,tiers,slo,rules,pool,heat,"
                   "cost] [--watch <secs>] [period-seconds]\n");
      return 2;
    }
    for (;;) {
      auto text = (*client)->stats(format);
      if (!text.ok()) {
        std::fprintf(stderr, "top failed: %s\n",
                     text.status().to_string().c_str());
        return 1;
      }
      // ANSI clear + home, like top(1); harmless when redirected to a file.
      std::printf("\x1b[2J\x1b[H%s", text->c_str());
      std::fflush(stdout);
      if (period <= 0) return 0;  // one shot (scripting/tests)
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<int>(period * 1000)));
    }
  }
  if (command == "slo" && argc == 3) {
    auto rows = (*client)->slo();
    if (!rows.ok()) {
      std::fprintf(stderr, "slo failed: %s\n",
                   rows.status().to_string().c_str());
      return 1;
    }
    if (rows->empty()) {
      std::printf("no SLOs declared\n");
      return 0;
    }
    std::printf("%-18s %-10s %10s %10s %8s %8s %8s %9s %5s\n", "SLO", "TIER",
                "TARGET", "CURRENT", "WINDOW", "BURN-S", "BURN-L", "STATE",
                "VIOL");
    for (const auto& row : *rows) {
      char target[32], current[32];
      if (row.is_latency) {
        std::snprintf(target, sizeof(target), "%.2fms", row.target);
        std::snprintf(current, sizeof(current), "%.2fms", row.current);
      } else {
        std::snprintf(target, sizeof(target), "%.2f%%", row.target * 100.0);
        std::snprintf(current, sizeof(current), "%.2f%%", row.current * 100.0);
      }
      std::printf("%-18s %-10s %10s %10s %7.0fs %8.2f %8.2f %9s %5llu\n",
                  row.name.c_str(), row.tier.empty() ? "-" : row.tier.c_str(),
                  target, current, row.window_s, row.burn_short, row.burn_long,
                  row.violated ? "VIOLATED" : "ok",
                  static_cast<unsigned long long>(row.violations));
    }
    return 0;
  }
  if (command == "heat") {
    std::uint32_t top_n = 20;
    bool bad = false;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--top" && i + 1 < argc) {
        top_n = static_cast<std::uint32_t>(std::atoi(argv[++i]));
      } else {
        bad = true;
      }
    }
    if (bad || top_n == 0) {
      std::fprintf(stderr, "usage: heat [--top N]\n");
      return 2;
    }
    auto report = (*client)->heat(top_n);
    if (!report.ok()) {
      std::fprintf(stderr, "heat failed: %s\n",
                   report.status().to_string().c_str());
      return 1;
    }
    if (!report->enabled) {
      std::printf("heat tracking disabled on server (track_heat=false)\n");
      return 0;
    }
    std::printf("heat: half-life=%.0fs epochs=%llu mem=%llu bytes\n",
                report->half_life_s,
                static_cast<unsigned long long>(report->decay_epochs),
                static_cast<unsigned long long>(report->memory_bytes));
    for (const auto& tier : report->tiers) {
      std::printf("\n[%s] tracked=%llu records=%llu bytes=%llu "
                  "evictions=%llu\n",
                  tier.tier.c_str(),
                  static_cast<unsigned long long>(tier.tracked_keys),
                  static_cast<unsigned long long>(tier.records),
                  static_cast<unsigned long long>(tier.bytes),
                  static_cast<unsigned long long>(tier.evictions));
      std::printf("  %-40s %10s %10s\n", "KEY", "EST", "RATE/S");
      for (const auto& entry : tier.top) {
        std::printf("  %-40s %10llu %10.2f\n", entry.key.c_str(),
                    static_cast<unsigned long long>(entry.estimate),
                    entry.rate_per_s);
      }
      // Histogram buckets are [2^i, 2^(i+1)) decayed-estimate ranges; only
      // print the occupied ones.
      bool any = false;
      for (std::size_t b = 0; b < tier.histogram.size(); ++b) {
        if (tier.histogram[b] == 0) continue;
        if (!any) std::printf("  heat histogram (est range: keys):\n");
        any = true;
        std::printf("    [%llu, %llu): %llu\n",
                    static_cast<unsigned long long>(1ull << b),
                    static_cast<unsigned long long>(1ull << (b + 1)),
                    static_cast<unsigned long long>(tier.histogram[b]));
      }
    }
    std::printf("\ncost: total=$%.6f burn=$%.4f/mo modelled=%.0fs\n",
                report->total_dollars, report->monthly_burn_dollars,
                report->modelled_seconds);
    std::printf("%-10s %12s %12s %12s %12s %12s %12s\n", "TIER", "STORAGE$",
                "REQUEST$", "EGRESS$", "BURN$/MO", "READ-B", "WRITE-B");
    for (const auto& tier : report->tier_costs) {
      std::printf("%-10s %12.6f %12.6f %12.6f %12.4f %12llu %12llu\n",
                  tier.tier.c_str(), tier.storage_dollars,
                  tier.request_dollars, tier.egress_dollars,
                  tier.monthly_burn_dollars,
                  static_cast<unsigned long long>(tier.read_bytes),
                  static_cast<unsigned long long>(tier.write_bytes));
    }
    if (!report->rule_costs.empty()) {
      std::printf("%-10s %-18s %12s %8s %12s\n", "RULE", "NAME", "BYTES",
                  "OBJ", "$");
      for (const auto& rule : report->rule_costs) {
        std::printf("%-10llu %-18s %12llu %8llu %12.6f\n",
                    static_cast<unsigned long long>(rule.rule_id),
                    rule.name.c_str(),
                    static_cast<unsigned long long>(rule.bytes),
                    static_cast<unsigned long long>(rule.objects),
                    rule.dollars);
      }
    }
    return 0;
  }
  if (command == "profile") {
    double seconds = 2.0;
    std::uint32_t interval_us = 1000;
    bool html = false;
    bool bad = false;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--seconds" && i + 1 < argc) {
        seconds = std::atof(argv[++i]);
      } else if (arg == "--interval-us" && i + 1 < argc) {
        interval_us = static_cast<std::uint32_t>(std::atoi(argv[++i]));
      } else if (arg == "--flamegraph-html") {
        html = true;
      } else if (arg == "--folded") {
        html = false;
      } else {
        bad = true;
      }
    }
    if (bad || seconds <= 0) {
      std::fprintf(stderr,
                   "usage: profile [--seconds N] [--interval-us N] "
                   "[--folded|--flamegraph-html]\n");
      return 2;
    }
    auto folded = (*client)->profile(
        static_cast<std::uint32_t>(seconds * 1000.0), interval_us);
    if (!folded.ok()) {
      std::fprintf(stderr, "profile failed: %s\n",
                   folded.status().to_string().c_str());
      return 1;
    }
    if (html) {
      std::fputs(render_flamegraph_html(*folded, "tiera profile").c_str(),
                 stdout);
    } else {
      std::fputs(folded->c_str(), stdout);
    }
    return 0;
  }
  if (command == "incident" && (argc == 3 || argc == 4)) {
    enum { kTrigger, kList, kLatest } mode = kTrigger;
    if (argc == 4) {
      if (std::strcmp(argv[3], "--list") == 0) {
        mode = kList;
      } else if (std::strcmp(argv[3], "--latest") == 0) {
        mode = kLatest;
      } else {
        std::fprintf(stderr, "usage: incident [--list|--latest]\n");
        return 2;
      }
    }
    auto text = mode == kTrigger   ? (*client)->incident_trigger()
                : mode == kList    ? (*client)->incident_list()
                                   : (*client)->incident_latest();
    if (!text.ok()) {
      std::fprintf(stderr, "incident failed: %s\n",
                   text.status().to_string().c_str());
      return 1;
    }
    std::fputs(text->c_str(), stdout);
    if (!text->empty() && text->back() != '\n') std::printf("\n");
    return 0;
  }
  if (command == "loglevel" && argc == 4) {
    const Status s = (*client)->set_log_level(argv[3]);
    if (!s.ok()) {
      std::fprintf(stderr, "loglevel failed: %s\n", s.to_string().c_str());
      return 1;
    }
    std::printf("ok\n");
    return 0;
  }
  if (command == "grow" && argc == 5) {
    const Status s = (*client)->grow_tier(argv[3], std::atof(argv[4]));
    if (!s.ok()) {
      std::fprintf(stderr, "grow failed: %s\n", s.to_string().c_str());
      return 1;
    }
    std::printf("ok\n");
    return 0;
  }
  std::fprintf(stderr, "bad command/arguments\n");
  return 2;
}
