// tierad: the Tiera server as a standalone process (the paper deploys the
// prototype as a Thrift server on an EC2 instance). Reads an instance
// specification file, serves the PUT/GET application interface over the
// framed-RPC protocol, and prints stats on shutdown.
//
//   $ ./tierad <spec.tiera> [port] [param=value ...] [--stats-period=<sec>]
//            [--retries=<n>] [--deadline=<dur>] [--breaker[=<n>]] [--hedge[=<q>%]]
//            [--persist-metadata] [--journal-sync] [--journal-batch=<size>]
//            [--loops=<n>] [--shards=<n>]
//            [--admission] [--no-admission] [--tenant-rate=<req/s>]
//            [--tenant-burst=<dur>] [--shed-burn=<x>] [--shed-inflight=<f>]
//            [--incident-dir=<dir>] [--metrics-port=<port>]
//
// --incident-dir=<dir> arms the black box (DESIGN.md §15): the flight
// recorder is already always-on, and this flag makes its contents
// actionable — the liveness watchdog monitors the reactor loops, rpc
// shards, control tick and metadb journal, the fatal-signal handler is
// installed, and every trigger (watchdog stall, crash, SLO violation,
// `tiera_cli incident`) writes a self-contained report into <dir>.
//
// --metrics-port=<port> serves the Prometheus text exposition on
// `GET /metrics` (plain HTTP, one scrape per connection) so a scraper can
// be pointed at tierad directly; 0 picks an ephemeral port.
//
// --loops/--shards size the request core: epoll event loops owning the
// sockets and per-core worker shards running the handlers (0 = one per
// hardware thread). --journal-sync fsyncs the metadata journal on every
// acknowledged write; --journal-batch bounds the group-commit batches that
// amortize those fsyncs across concurrent writers (a `journal_batch:`
// declaration in the spec overrides the flag).
//
// --stats-period=N logs the metrics registry (human-readable rendering)
// every N seconds while serving. --persist-metadata journals object
// metadata to <data_dir>/metadb so a restarted tierad recovers its index
// (and the journal.append stage/profiler frames are exercised).
//
// Admission control (the overload front door, DESIGN.md §14): an
// `admission: { ... };` block in the spec enables it with the declared
// knobs; --admission enables it with defaults when the spec has no block;
// --no-admission forces it off either way. The --tenant-rate/--tenant-burst/
// --shed-burn/--shed-inflight flags override individual knobs. Shed
// requests fail fast with OVERLOADED and show up in
// tiera_admission_shed_total and the `top` ADMISSION table, not in
// tiera_rpc_errors_total.
//
// The resilience flags set the default ResiliencePolicy for tiers whose
// spec declaration carries no knobs of its own (same grammar as the spec
// fields — see DESIGN.md §8): --retries=3 --deadline=50ms --breaker=5
// --hedge=95%.
//
// Tracing knob: TIERA_SLOW_OP_MS logs completed span trees slower than the
// threshold. Spans live in the flight recorder's rings (TIERA_FLIGHT_CAPACITY
// sizes them); `tiera_cli trace [--json]` and `tiera_cli top` read them.
//
// A second process (or the remote client API) can then connect:
//   auto client = RemoteTieraClient::connect("127.0.0.1", port);
//
// With --demo, tierad spawns an in-process client, round-trips a few
// objects through the RPC surface, and exits (used for smoke testing).
#include <csignal>
#include <cstdio>

#include "common/logging.h"
#include <cstring>

#include "core/spec_parser.h"
#include "net/http_metrics.h"
#include "net/tiera_service.h"
#include "store/tier_factory.h"
#include "obs/metrics.h"

using namespace tiera;

namespace {
volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kInfo);
  set_time_scale(0.1);

  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <spec.tiera> [port] [k=v ...] [--demo]\n",
                 argv[0]);
    return 2;
  }
  bool demo = false;
  bool persist_metadata = false;
  bool journal_sync = false;
  bool force_admission = false;
  bool no_admission = false;
  std::string tenant_rate, tenant_burst, shed_burn, shed_inflight;
  std::string journal_batch;
  std::string incident_dir;
  int metrics_port = -1;  // -1 = no metrics endpoint
  ReactorOptions reactor;
  std::uint16_t port = 0;
  int stats_period_s = 0;
  std::string retries, deadline, breaker, hedge;
  std::map<std::string, std::string> args;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(argv[i], "--persist-metadata") == 0) {
      persist_metadata = true;
    } else if (std::strcmp(argv[i], "--journal-sync") == 0) {
      journal_sync = true;
    } else if (std::strncmp(argv[i], "--journal-batch=", 16) == 0) {
      journal_batch = argv[i] + 16;
    } else if (std::strncmp(argv[i], "--loops=", 8) == 0) {
      reactor.loops = static_cast<std::size_t>(std::atoi(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      reactor.shards = static_cast<std::size_t>(std::atoi(argv[i] + 9));
    } else if (std::strcmp(argv[i], "--admission") == 0) {
      force_admission = true;
    } else if (std::strcmp(argv[i], "--no-admission") == 0) {
      no_admission = true;
    } else if (std::strncmp(argv[i], "--tenant-rate=", 14) == 0) {
      tenant_rate = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--tenant-burst=", 15) == 0) {
      tenant_burst = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--shed-burn=", 12) == 0) {
      shed_burn = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--shed-inflight=", 16) == 0) {
      shed_inflight = argv[i] + 16;
    } else if (std::strncmp(argv[i], "--incident-dir=", 15) == 0) {
      incident_dir = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--metrics-port=", 15) == 0) {
      metrics_port = std::atoi(argv[i] + 15);
    } else if (std::strncmp(argv[i], "--stats-period=", 15) == 0) {
      stats_period_s = std::atoi(argv[i] + 15);
    } else if (std::strncmp(argv[i], "--retries=", 10) == 0) {
      retries = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--deadline=", 11) == 0) {
      deadline = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--breaker=", 10) == 0) {
      breaker = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--breaker") == 0) {
      breaker = "on";
    } else if (std::strncmp(argv[i], "--hedge=", 8) == 0) {
      hedge = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--hedge") == 0) {
      hedge = "on";
    } else if (std::strchr(argv[i], '=')) {
      const std::string kv = argv[i];
      const auto eq = kv.find('=');
      args[kv.substr(0, eq)] = kv.substr(eq + 1);
    } else {
      port = static_cast<std::uint16_t>(std::atoi(argv[i]));
    }
  }

  auto spec = InstanceSpec::parse_file(argv[1]);
  if (!spec.ok()) {
    std::fprintf(stderr, "spec error: %s\n",
                 spec.status().to_string().c_str());
    return 1;
  }
  for (const auto& param : spec->parameters()) {
    if (!args.count(param)) args[param] = "30s";  // default binding
  }
  TemplateOptions opts{.data_dir = "/tmp/tierad"};
  auto resilience =
      parse_resilience_fields(retries, deadline, breaker, hedge);
  if (!resilience.ok()) {
    std::fprintf(stderr, "resilience flag error: %s\n",
                 resilience.status().to_string().c_str());
    return 2;
  }
  opts.default_resilience = *resilience;
  opts.persist_metadata = persist_metadata;
  opts.journal_sync = journal_sync;
  if (!journal_batch.empty()) {
    auto batch = parse_size(journal_batch);
    if (!batch.ok()) {
      std::fprintf(stderr, "--journal-batch error: %s\n",
                   batch.status().to_string().c_str());
      return 2;
    }
    opts.journal_batch_bytes = *batch;
  }
  auto instance = spec->instantiate(opts, args);
  if (!instance.ok()) {
    std::fprintf(stderr, "instantiate error: %s\n",
                 instance.status().to_string().c_str());
    return 1;
  }
  TieraServer server(**instance, port, reactor);
  if ((spec->has_admission() || force_admission) && !no_admission) {
    auto admission = spec->admission_config();
    if (!admission.ok()) {
      std::fprintf(stderr, "admission spec error: %s\n",
                   admission.status().to_string().c_str());
      return 1;
    }
    if (!tenant_rate.empty()) admission->tenant_rate = std::atof(tenant_rate.c_str());
    if (!tenant_burst.empty()) {
      auto burst = parse_duration_text(tenant_burst);
      if (!burst.ok()) {
        std::fprintf(stderr, "--tenant-burst error: %s\n",
                     burst.status().to_string().c_str());
        return 2;
      }
      admission->tenant_burst_s = to_seconds(*burst);
    }
    if (!shed_burn.empty()) admission->shed_burn = std::atof(shed_burn.c_str());
    if (!shed_inflight.empty()) {
      admission->shed_inflight = std::atof(shed_inflight.c_str());
    }
    server.enable_admission(*admission);
    std::printf("tierad: admission control on (tenant_rate=%.0f/s "
                "shed_burn=%.2f shed_inflight=%.2f)\n",
                admission->tenant_rate, admission->shed_burn,
                admission->shed_inflight);
  }
  if (!incident_dir.empty()) {
    const Status armed = server.enable_incident_reporting(incident_dir);
    if (!armed.ok()) {
      std::fprintf(stderr, "--incident-dir error: %s\n",
                   armed.to_string().c_str());
      return 2;
    }
    std::printf("tierad: black box armed, incident reports land in %s\n",
                incident_dir.c_str());
  }
  MetricsHttpServer metrics_http(
      metrics_port >= 0 ? static_cast<std::uint16_t>(metrics_port) : 0);
  if (metrics_port >= 0) {
    const Status up = metrics_http.start();
    if (!up.ok()) {
      std::fprintf(stderr, "--metrics-port error: %s\n",
                   up.to_string().c_str());
      return 2;
    }
    std::printf("tierad: GET /metrics on 127.0.0.1:%u\n", metrics_http.port());
  }
  if (!server.start().ok()) {
    std::fprintf(stderr, "server failed to start\n");
    return 1;
  }
  std::printf("tierad: instance '%s' serving on 127.0.0.1:%u\n",
              spec->instance_name().c_str(), server.port());

  if (demo) {
    auto client = RemoteTieraClient::connect("127.0.0.1", server.port());
    if (!client.ok()) return 1;
    for (int i = 0; i < 5; ++i) {
      const std::string id = "demo" + std::to_string(i);
      if (!(*client)->put(id, as_view(make_payload(1024, i))).ok()) return 1;
      if (!(*client)->get(id).ok()) return 1;
    }
    auto tiers = (*client)->list_tiers();
    std::printf("demo client round-tripped 5 objects; server tiers:");
    if (tiers.ok()) {
      for (const auto& tier : *tiers) std::printf(" %s", tier.c_str());
    }
    std::printf("\n");
    server.stop();
    return 0;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  TimePoint next_stats = now() + std::chrono::seconds(
                                     stats_period_s > 0 ? stats_period_s : 0);
  while (!g_stop) {
    precise_sleep(from_ms(100));
    if (stats_period_s > 0 && now() >= next_stats) {
      next_stats = now() + std::chrono::seconds(stats_period_s);
      std::fprintf(stderr, "--- tierad stats ---\n%s",
                   MetricsRegistry::global().render_text().c_str());
    }
  }
  std::printf("tierad: shutting down (%llu objects stored)\n",
              static_cast<unsigned long long>((*instance)->object_count()));
  server.stop();
  return 0;
}
