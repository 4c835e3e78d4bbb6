// Tiera's RPC service: the application interface layer exposed over the
// network (the Thrift server of the prototype). `TieraServer` fronts a
// TieraInstance; `RemoteTieraClient` gives remote processes the same
// PUT/GET surface the in-process API offers.
#pragma once

#include <atomic>
#include <memory>
#include <thread>

#include "core/admission.h"
#include "core/instance.h"
#include "net/reactor.h"
#include "net/rpc.h"
#include "obs/trace.h"

namespace tiera {

enum class TieraMethod : std::uint8_t {
  kPut = 1,
  kGet = 2,
  kRemove = 3,
  kStat = 4,
  kAddTags = 5,
  kListTiers = 6,
  kGrowTier = 7,
  kStats = 8,
  // 9 stays unassigned: an older client may still send the removed
  // text-trace verb, which must keep failing as unknown.
  // Structured span export (u32 count + fixed-shape span records); the text
  // rendering — Chrome trace JSON included — happens client-side.
  kTraceSpans = 10,
  // SLO status rows (u32 count + fixed-shape records; doubles cross as
  // micro-unit u64 fixed point).
  kSlo = 11,
  // Sampling profiler capture: u32 duration_ms + u32 interval_us request,
  // perf-style folded stacks ("frame;frame count" lines) in the reply.
  kProfile = 12,
  // Heat & spend report: u32 top_n request; structured per-tier top-K hot
  // keys + heat histograms and the cost-meter tier/rule breakdown. Rates
  // cross as micro-unit u64; dollars as nano-unit u64 (request charges are
  // micro-dollar sized, so micro units would truncate them to zero).
  kHeat = 13,
  // Incident dumps: u8 mode (0 = trigger a report now, 1 = list report
  // paths, 2 = return the newest report's contents). Runs on the admin
  // pool like every non-data verb.
  kIncident = 14,
  // Runtime log-level control: one wire string ("debug".."off"). Applies
  // immediately via force_log_level (outranks TIERA_LOG_LEVEL).
  kLogLevel = 15,
};

class TieraServer {
 public:
  // `port` 0 picks an ephemeral port (see port() after start()).
  // `request_threads` becomes the reactor's shard count.
  TieraServer(TieraInstance& instance, std::uint16_t port,
              std::size_t request_threads = 8);
  // Full control over the event-loop/shard geometry.
  TieraServer(TieraInstance& instance, std::uint16_t port,
              ReactorOptions options);

  ~TieraServer();

  // Installs the overload front door (core/admission.h): requests are
  // admitted/shed on the reactor loop threads, and a poller thread feeds
  // the controller the SLO burn-rate and reactor-saturation signals every
  // ~20ms of wall time. Must be called before start(). Methods map to the
  // priority ladder as: stats/trace/profile/... -> admin (never shed),
  // GET/STAT -> get, PUT/REMOVE/ADD_TAGS -> put; the client-set background
  // flag demotes any non-admin request to background.
  void enable_admission(const AdmissionConfig& config);
  const AdmissionController* admission() const { return admission_.get(); }

  // Wires the black box: configures IncidentHub on `incident_dir`, installs
  // the fatal-signal crash handler, registers the reactor's loops/pools and
  // the control tick with the global watchdog, points incident reports at
  // this instance's state (render_top), and starts the watchdog thread.
  // Must be called before start().
  Status enable_incident_reporting(const std::string& incident_dir);

  Status start();
  void stop();
  std::uint16_t port() const { return server_.port(); }
  std::size_t loop_count() const { return server_.loop_count(); }
  std::size_t shard_count() const { return server_.shard_count(); }

 private:
  void register_handlers();
  void admission_poll_loop();

  TieraInstance& instance_;
  ReactorServer server_;
  std::unique_ptr<AdmissionController> admission_;
  std::thread admission_poller_;
  std::atomic<bool> poller_running_{false};
  bool incident_reporting_ = false;
  std::vector<std::uint64_t> watchdog_ids_;
};

// Legacy binary reply of the kStats verb (empty request body).
struct RemoteStatsSummary {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t removes = 0;
  std::uint64_t objects = 0;
};

// One SLO objective's live state, as reported by the kSlo verb. Latency
// targets/currents are milliseconds; error-rate ones are fractions.
struct RemoteSloRow {
  std::string name;
  std::string tier;     // empty = instance-wide
  std::string signal;   // e.g. get_p99, error_rate
  bool is_latency = true;
  bool violated = false;
  double target = 0;
  double current = 0;
  double window_s = 0;
  std::uint64_t samples = 0;
  double burn_short = 0;
  double burn_long = 0;
  std::uint64_t violations = 0;
};

// --- kHeat report rows -------------------------------------------------------

struct RemoteHeatEntry {
  std::string key;
  std::uint64_t estimate = 0;  // decayed access count
  double rate_per_s = 0;       // modelled time
};

struct RemoteTierHeat {
  std::string tier;
  std::vector<RemoteHeatEntry> top;        // hottest first
  std::vector<std::uint64_t> histogram;    // [2^i, 2^(i+1)) estimate buckets
  std::uint64_t tracked_keys = 0;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t evictions = 0;
};

struct RemoteTierCost {
  std::string tier;
  double storage_dollars = 0;
  double request_dollars = 0;
  double egress_dollars = 0;
  double monthly_burn_dollars = 0;
  std::uint64_t read_bytes = 0;   // client-facing, tiera_tier_read_bytes_total
  std::uint64_t write_bytes = 0;
};

struct RemoteRuleCost {
  std::uint64_t rule_id = 0;
  std::string name;
  std::uint64_t bytes = 0;
  std::uint64_t objects = 0;
  double dollars = 0;
};

// Everything `tiera_cli heat` renders. `enabled` is false when the server
// instance runs with track_heat off (all other fields are then empty).
struct RemoteHeatReport {
  bool enabled = false;
  double half_life_s = 0;
  std::uint64_t decay_epochs = 0;
  std::uint64_t memory_bytes = 0;
  std::vector<RemoteTierHeat> tiers;
  double total_dollars = 0;
  double monthly_burn_dollars = 0;
  double modelled_seconds = 0;
  std::vector<RemoteTierCost> tier_costs;
  std::vector<RemoteRuleCost> rule_costs;
};

struct RemoteObjectInfo {
  std::string id;
  std::uint64_t size = 0;
  std::uint64_t access_count = 0;
  bool dirty = false;
  std::vector<std::string> locations;
  std::vector<std::string> tags;
};

class RemoteTieraClient {
 public:
  static Result<std::unique_ptr<RemoteTieraClient>> connect(
      const std::string& host, std::uint16_t port);

  Status put(std::string_view id, ByteView data,
             const std::vector<std::string>& tags = {});
  Result<Bytes> get(std::string_view id);
  Status remove(std::string_view id);
  Result<RemoteObjectInfo> stat(std::string_view id);
  Status add_tags(std::string_view id, const std::vector<std::string>& tags);
  Result<std::vector<std::string>> list_tiers();
  Status grow_tier(std::string_view label, double percent);

  // Rendered metrics registry; `format` is "prom" (Prometheus text
  // exposition), "text" (human-readable) or "top" (live per-tier/per-rule
  // activity tables). "top:slo,pool,..." renders only the named top
  // sections (header,tiers,slo,rules,pool,heat,cost,admission).
  Result<std::string> stats(std::string_view format);
  Result<RemoteStatsSummary> stats_summary();
  // The server's newest `last_n` spans, oldest first; render them with
  // render_spans() or render_chrome_trace() (obs/trace.h).
  Result<std::vector<FlightEvent>> trace_spans(
      std::uint32_t last_n = 512);
  // Live state of every declared SLO.
  Result<std::vector<RemoteSloRow>> slo();
  // Run the server-side sampling profiler for `duration_ms` (sampling every
  // `interval_us`) and return the folded stacks. Blocks for the duration.
  Result<std::string> profile(std::uint32_t duration_ms,
                              std::uint32_t interval_us = 1000);
  // Per-tier hot keys (top `top_n`), heat histograms and the live cost
  // breakdown.
  Result<RemoteHeatReport> heat(std::uint32_t top_n = 20);

  // kIncident verb. trigger returns the new report's server-side path;
  // list returns one path per line; latest returns the newest report body.
  Result<std::string> incident_trigger();
  Result<std::string> incident_list();
  Result<std::string> incident_latest();
  // kLogLevel verb: "debug" | "info" | "warn" | "error" | "off".
  Status set_log_level(std::string_view level);

 private:
  explicit RemoteTieraClient(std::unique_ptr<RpcClient> client)
      : client_(std::move(client)) {}

  std::unique_ptr<RpcClient> client_;
};

}  // namespace tiera
