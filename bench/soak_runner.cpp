// Million-user soak harness: open-loop traffic against a real served
// instance, with admission control in the loop.
//
// Boots the SoakInstance spec (two tiers, GET-p99 SLO, an `admission`
// block) behind a TieraServer, then replays a time-compressed production
// day over RPC from pipelined async clients:
//
//   * a zipfian population of --users simulated users (default 1M)
//   * YCSB-B mix on a diurnal load curve
//   * one flash crowd that exceeds the fast tier's modelled service
//     capacity (io_slots pins it, so the saturation point is machine-
//     independent)
//   * one failure storm on the durable tier (Tier::inject_failure), with
//     the breaker riding it out
//   * a low-rate background scan stream carrying the background RPC flag,
//     so the priority ladder's bottom rung is exercised end to end
//
// GET misses are refilled read-through style (a miss schedules a PUT), so
// the keyspace populates the way a cache does in production.
//
// The run writes a soak report (timeline + phase table + gate verdicts)
// and exits non-zero if any gate fails:
//
//   gate 1  zero unexpected client errors (sheds/throttles and storm-window
//           casualties on the failed tier are expected, and reported)
//   gate 2  the shedder engaged during the crowd (admission runs only)
//   gate 3  peak RSS under the ceiling (--rss-mb, default 512)
//   gate 4  recovery: storms end with breakers closed, every SLO green,
//           and the shed level back to none
//
//   $ ./soak_runner [report.txt] [--users=N] [--rss-mb=N] [--no-admission]
//                   [--soak-scale=F]
//
// TIERA_SOAK_SCALE (or --soak-scale) multiplies every phase duration —
// the nightly lane runs 10x the PR-lane soak. TIERA_TIME_SCALE overrides
// the wall-per-modelled-second compression (default 0.25: the PR soak's
// 260 modelled seconds run in ~65 s of wall clock).
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/histogram.h"
#include "core/admission.h"
#include "core/spec_parser.h"
#include "net/async_client.h"
#include "net/tiera_service.h"
#include "obs/metrics.h"
#include "workload/traffic.h"

using namespace tiera;

namespace {

// Kept in sync with examples/specs/soak.tiera (embedded so the binary runs
// from any working directory — CI invokes it out of the build tree).
constexpr const char* kSoakSpec = R"(
Tiera SoakInstance(time t) {
  tier1: { name: Memcached, size: 64M };
  tier2: { name: EBS, size: 512M, retries: 2, deadline: 2s, breaker: 3 };

  slo get_p99 < 25ms window 10s burn 30s/5m;

  admission : {
    tenant_rate: 0,
    tenant_burst: 2s,
    max_tenants: 4096,
    shed_burn: 2.0,
    shed_inflight: 75%,
    resume_burn: 1.0,
    resume_inflight: 50%,
    resume_hold: 2s
  };

  event(insert.into) : response {
    if (tier1.filled) {
      move(what: tier1.oldest, to: tier2);
    }
    insert.object.dirty = true;
    store(what: insert.object, to: tier1);
  }

  event(time=t) : response {
    copy(what: object.location == tier1 && object.dirty == true,
         to: tier2);
  }

  background event(tier1.filled == 90%) : response {
    move(what: tier1.oldest, to: tier2);
  }
}
)";

constexpr std::size_t kClients = 4;       // foreground connections = tenants
constexpr std::size_t kValueSize = 1024;
constexpr double kBaseQps = 600;          // modelled req/s at curve baseline
constexpr double kCrowdMultiplier = 8;    // tier1 io_slots=1 caps GETs at
                                          // ~2.9k modelled qps; 8x600 floods it
constexpr double kBackgroundQps = 50;     // background scan stream

// Phase boundaries in modelled seconds, before the soak-scale multiplier.
constexpr double kSteadyEnd = 120;
constexpr double kCrowdEnd = 150;
constexpr double kCalmEnd = 170;
constexpr double kStormEnd = 190;
constexpr double kRunEnd = 260;
// Completions this long after a storm window may still carry the injected
// fault (in-flight retries, breaker reopen until its 500ms probe).
constexpr double kStormGraceS = 15;

struct Phase {
  const char* name;
  double start_s;
  double end_s;
};

enum class OpOutcome { kOk, kShed, kMiss, kStormErr, kUnexpectedErr };

struct SoakStats {
  explicit SoakStats(std::size_t buckets, std::size_t phases)
      : offered(buckets), ok(buckets), shed(buckets), errors(buckets),
        get_latency(phases) {}

  std::vector<std::atomic<std::uint64_t>> offered;
  std::vector<std::atomic<std::uint64_t>> ok;
  std::vector<std::atomic<std::uint64_t>> shed;
  std::vector<std::atomic<std::uint64_t>> errors;  // storm + unexpected
  std::vector<LatencyHistogram> get_latency;       // per phase, modelled ms

  std::atomic<std::uint64_t> total_ok{0};
  std::atomic<std::uint64_t> total_shed{0};
  std::atomic<std::uint64_t> total_miss{0};
  std::atomic<std::uint64_t> total_storm_err{0};
  std::atomic<std::uint64_t> total_unexpected{0};
  std::atomic<std::uint64_t> background_ok{0};
  std::atomic<std::uint64_t> background_shed{0};
};

std::uint64_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %llu kB",
                    reinterpret_cast<unsigned long long*>(&kb)) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

class SoakRun {
 public:
  SoakRun(double soak_scale, std::uint64_t users, bool admission_on)
      : scale_(soak_scale),
        admission_on_(admission_on),
        phases_{{"steady", 0, kSteadyEnd * scale_},
                {"crowd", kSteadyEnd * scale_, kCrowdEnd * scale_},
                {"calm", kCrowdEnd * scale_, kCalmEnd * scale_},
                {"storm", kCalmEnd * scale_, kStormEnd * scale_},
                {"recover", kStormEnd * scale_, kRunEnd * scale_}},
        bucket_s_(std::max(1.0, kRunEnd * scale_ / 60.0)),
        stats_(static_cast<std::size_t>(kRunEnd * scale_ / bucket_s_) + 2,
               phases_.size()) {
    options_.users = users;
    options_.mix = OpMix::ycsb_b();
    options_.curve.base_qps = kBaseQps;
    options_.curve.diurnal_amplitude = 0.3;
    options_.curve.diurnal_period_s = kSteadyEnd * scale_;
    options_.curve.crowds = {
        {kSteadyEnd * scale_, (kCrowdEnd - kSteadyEnd) * scale_,
         kCrowdMultiplier}};
    options_.storms = {{"tier2", kCalmEnd * scale_,
                        (kStormEnd - kCalmEnd) * scale_,
                        FailureMode::kFailStop}};
    options_.duration_s = kRunEnd * scale_;
    options_.tenants = kClients;
  }

  int run(const std::string& report_path);
  void set_rss_ceiling(std::uint64_t mb) { rss_ceiling_mb_ = mb; }
  // Arms the black box for the run: watchdog on the reactor/shards/control
  // tick, crash handler, incident reports into `dir` (CI uploads the dir as
  // an artifact when a lane fails).
  void set_incident_dir(std::string dir) { incident_dir_ = std::move(dir); }

 private:
  std::size_t bucket_of(double at_s) const {
    const auto b = static_cast<std::size_t>(at_s / bucket_s_);
    return b < stats_.offered.size() ? b : stats_.offered.size() - 1;
  }

  std::size_t phase_of(double at_s) const {
    for (std::size_t i = 0; i < phases_.size(); ++i) {
      if (at_s < phases_[i].end_s) return i;
    }
    return phases_.size() - 1;
  }

  bool in_storm_window(double at_s) const {
    for (const FailureStorm& storm : options_.storms) {
      if (at_s >= storm.start_s &&
          at_s < storm.start_s + storm.duration_s + kStormGraceS * scale_) {
        return true;
      }
    }
    return false;
  }

  void classify(double at_s, TrafficOpKind kind, const Status& status,
                std::uint64_t user, Duration wall_latency);
  void dispatch(AsyncRpcClient& client, TrafficOpKind kind,
                std::uint64_t user, double at_s);
  void drive_background(std::uint16_t port, std::atomic<bool>* stop);
  void write_report(const std::string& path, const std::string& body);

  const double scale_;
  const bool admission_on_;
  const std::vector<Phase> phases_;
  const double bucket_s_;
  TrafficOptions options_;
  SoakStats stats_;
  Bytes payload_ = make_payload(kValueSize, 7);

  std::mutex fill_mu_;
  std::deque<std::uint64_t> fill_queue_;  // users whose GET missed

  std::vector<std::unique_ptr<AsyncRpcClient>> clients_;
  std::atomic<std::uint64_t> rss_peak_{0};
  std::uint64_t rss_ceiling_mb_ = 512;
  std::string incident_dir_;
};

void SoakRun::classify(double at_s, TrafficOpKind kind, const Status& status,
                       std::uint64_t user, Duration wall_latency) {
  const std::size_t bucket = bucket_of(at_s);
  if (status.ok()) {
    stats_.ok[bucket].fetch_add(1, std::memory_order_relaxed);
    stats_.total_ok.fetch_add(1, std::memory_order_relaxed);
    if (kind == TrafficOpKind::kGet) {
      const double scale = time_scale() > 0 ? time_scale() : 1.0;
      stats_.get_latency[phase_of(at_s)].record_ms(to_ms(wall_latency) /
                                                   scale);
    }
    return;
  }
  if (status.is_overloaded()) {
    stats_.shed[bucket].fetch_add(1, std::memory_order_relaxed);
    stats_.total_shed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (status.is_not_found() && kind == TrafficOpKind::kGet) {
    // Cold key: refill read-through style. The fill rides the normal PUT
    // path (and can itself be shed under pressure — it just re-misses).
    stats_.total_miss.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(fill_mu_);
    fill_queue_.push_back(user);
    return;
  }
  stats_.errors[bucket].fetch_add(1, std::memory_order_relaxed);
  if (in_storm_window(at_s)) {
    stats_.total_storm_err.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.total_unexpected.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "soak: unexpected error at t=%.1fs: %s\n", at_s,
                 status.to_string().c_str());
  }
}

void SoakRun::dispatch(AsyncRpcClient& client, TrafficOpKind kind,
                       std::uint64_t user, double at_s) {
  WireWriter w;
  std::uint8_t method;
  const std::string key = "u" + std::to_string(user);
  if (kind == TrafficOpKind::kGet) {
    method = static_cast<std::uint8_t>(TieraMethod::kGet);
    w.str(key);
  } else {
    method = static_cast<std::uint8_t>(TieraMethod::kPut);
    w.str(key);
    w.bytes(as_view(payload_));
    w.u32(0);  // no tags
  }
  stats_.offered[bucket_of(at_s)].fetch_add(1, std::memory_order_relaxed);
  const TimePoint sent = now();
  const Status rc = client.call_async(
      method, as_view(w.data()),
      [this, at_s, kind, user, sent](Status status, Bytes) {
        classify(at_s, kind, status, user, now() - sent);
      });
  if (!rc.ok()) classify(at_s, kind, rc, user, Duration::zero());
}

// Low-rate scan stream with the background RPC flag set: the first traffic
// the shedder drops, visible as `background_shed` in the report.
void SoakRun::drive_background(std::uint16_t port, std::atomic<bool>* stop) {
  auto client = AsyncRpcClient::connect("127.0.0.1", port);
  if (!client.ok()) return;
  (*client)->set_tenant("scan");
  (*client)->set_background(true);
  const double wall_per_model = time_scale() > 0 ? time_scale() : 1.0;
  Rng rng(99);
  const TimePoint start = now();
  double t = 0;
  while (!stop->load(std::memory_order_acquire) && t < options_.duration_s) {
    t += 1.0 / kBackgroundQps;
    const TimePoint target =
        start + std::chrono::duration_cast<Duration>(
                    std::chrono::duration<double>(t * wall_per_model));
    std::this_thread::sleep_until(target);
    WireWriter w;
    w.str("u" + std::to_string(rng.next_below(options_.users)));
    (void)(*client)->call_async(
        static_cast<std::uint8_t>(TieraMethod::kGet), as_view(w.data()),
        [this](Status status, Bytes) {
          if (status.ok() || status.is_not_found()) {
            stats_.background_ok.fetch_add(1);
          } else if (status.is_overloaded()) {
            stats_.background_shed.fetch_add(1);
          }
        });
  }
  // Let stragglers land before the client (and its callbacks) go away.
  for (int i = 0; i < 100 && (*client)->outstanding() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void SoakRun::write_report(const std::string& path, const std::string& body) {
  std::fputs(body.c_str(), stdout);
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(body.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "soak: cannot write report to %s\n", path.c_str());
  }
}

int SoakRun::run(const std::string& report_path) {
  const std::string dir = bench::scratch_dir("soak");
  auto spec = InstanceSpec::parse(kSoakSpec);
  if (!spec.ok()) {
    std::fprintf(stderr, "soak: spec error: %s\n",
                 spec.status().to_string().c_str());
    return 2;
  }
  TemplateOptions opts{.data_dir = dir};
  auto instance = spec->instantiate(opts, {{"t", "10s"}});
  if (!instance.ok()) {
    std::fprintf(stderr, "soak: instantiate error: %s\n",
                 instance.status().to_string().c_str());
    return 2;
  }
  // Pin the fast tier's modelled service concurrency so the flash crowd
  // saturates by model, not by host CPU: 1 slot x 0.35ms GETs ~= 2.9k
  // modelled qps of capacity against the crowd's 4.8k offered.
  (*instance)->tier("tier1")->set_io_slots(1);

  ReactorOptions reactor;
  reactor.loops = 1;
  reactor.shards = 4;
  TieraServer server(**instance, 0, reactor);
  if (admission_on_) {
    auto admission = spec->admission_config();
    if (!admission.ok()) {
      std::fprintf(stderr, "soak: admission spec error: %s\n",
                   admission.status().to_string().c_str());
      return 2;
    }
    server.enable_admission(*admission);
  }
  if (!incident_dir_.empty()) {
    const Status armed = server.enable_incident_reporting(incident_dir_);
    if (!armed.ok()) {
      std::fprintf(stderr, "soak: --incident-dir error: %s\n",
                   armed.to_string().c_str());
      return 2;
    }
  }
  if (!server.start().ok()) {
    std::fprintf(stderr, "soak: server failed to start\n");
    return 2;
  }

  for (std::size_t i = 0; i < kClients; ++i) {
    auto client = AsyncRpcClient::connect("127.0.0.1", server.port());
    if (!client.ok()) {
      std::fprintf(stderr, "soak: connect failed: %s\n",
                   client.status().to_string().c_str());
      return 2;
    }
    (*client)->set_tenant("t" + std::to_string(i));
    clients_.push_back(std::move(*client));
  }

  std::atomic<bool> stop_aux{false};
  std::thread background(
      [this, port = server.port(), &stop_aux] {
        drive_background(port, &stop_aux);
      });
  std::thread rss_monitor([this, &stop_aux] {
    while (!stop_aux.load(std::memory_order_acquire)) {
      const std::uint64_t rss = rss_bytes();
      if (rss > rss_peak_.load()) rss_peak_.store(rss);
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
  });

  // --- the open-loop replay --------------------------------------------
  const double wall_per_model = time_scale() > 0 ? time_scale() : 1.0;
  TrafficSchedule schedule(options_);
  TrafficOp op;
  std::vector<bool> storm_active(options_.storms.size(), false);
  const TimePoint start = now();
  while (schedule.next(&op)) {
    // Storm boundaries ride the schedule clock.
    for (std::size_t s = 0; s < options_.storms.size(); ++s) {
      const FailureStorm& storm = options_.storms[s];
      if (!storm_active[s] && storm.active_at(op.at_s)) {
        storm_active[s] = true;
        std::fprintf(stderr, "soak: t=%.0fs storm begins on %s\n", op.at_s,
                     storm.tier_label.c_str());
        (*instance)->tier(storm.tier_label)->inject_failure(storm.mode);
      } else if (storm_active[s] &&
                 op.at_s >= storm.start_s + storm.duration_s) {
        storm_active[s] = false;
        std::fprintf(stderr, "soak: t=%.0fs storm ends on %s\n", op.at_s,
                     storm.tier_label.c_str());
        (*instance)->tier(storm.tier_label)->heal();
      }
    }
    const TimePoint target =
        start + std::chrono::duration_cast<Duration>(
                    std::chrono::duration<double>(op.at_s * wall_per_model));
    if (now() < target) std::this_thread::sleep_until(target);
    // Read-through fills queued by GET misses ride along as PUTs.
    std::vector<std::uint64_t> fills;
    {
      std::lock_guard<std::mutex> lock(fill_mu_);
      while (!fill_queue_.empty()) {
        fills.push_back(fill_queue_.front());
        fill_queue_.pop_front();
      }
    }
    for (std::uint64_t user : fills) {
      dispatch(*clients_[user % kClients], TrafficOpKind::kPut, user,
               op.at_s);
    }
    dispatch(*clients_[op.tenant % kClients], op.kind, op.user, op.at_s);
  }
  for (std::size_t s = 0; s < options_.storms.size(); ++s) {
    if (storm_active[s]) {
      (*instance)->tier(options_.storms[s].tier_label)->heal();
    }
  }

  // Drain: wait for outstanding responses, then give the control layer a
  // beat of wall time so breakers probe shut and the SLO window clears.
  for (int i = 0; i < 750; ++i) {
    std::size_t outstanding = 0;
    for (const auto& client : clients_) outstanding += client->outstanding();
    if (outstanding == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::this_thread::sleep_for(std::chrono::seconds(2));
  stop_aux.store(true, std::memory_order_release);
  background.join();
  rss_monitor.join();

  // --- gates ------------------------------------------------------------
  const std::uint64_t unexpected = stats_.total_unexpected.load();
  const std::uint64_t shed_total = stats_.total_shed.load();
  const std::uint64_t rss_mb = rss_peak_.load() / (1024 * 1024);

  bool breakers_closed = true;
  std::string breaker_detail;
  for (const TierPtr& tier : (*instance)->tiers()) {
    if (tier->has_breaker() &&
        tier->breaker_state() != BreakerState::kClosed) {
      breakers_closed = false;
      breaker_detail += " " + tier->name();
    }
  }
  bool slo_green = true;
  std::string slo_detail;
  for (const SloStatus& row : (*instance)->slo().status()) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  slo %s: current=%.2f target=%.2f %s\n",
                  row.name.c_str(), row.current, row.target,
                  row.violated ? "VIOLATED" : "ok");
    slo_detail += buf;
    if (row.violated) slo_green = false;
  }
  int shed_level = AdmissionController::kShedNone;
  AdmissionController::Snapshot admission_snap{};
  if (server.admission() != nullptr) {
    admission_snap = server.admission()->snapshot();
    shed_level = admission_snap.shed_level;
  }

  // --- report -----------------------------------------------------------
  std::string out;
  char line[320];
  std::snprintf(line, sizeof line,
                "soak: users=%llu tenants=%zu admission=%s soak_scale=%.1f "
                "time_scale=%.3f modelled=%.0fs\n",
                static_cast<unsigned long long>(options_.users), kClients,
                admission_on_ ? "on" : "off", scale_, time_scale(),
                options_.duration_s);
  out += line;

  out += "\nphase      window(model s)   get_p99(model ms)  get_p50\n";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    std::snprintf(line, sizeof line, "%-10s [%5.0f,%5.0f)       %8.2f  %8.2f\n",
                  phases_[i].name, phases_[i].start_s, phases_[i].end_s,
                  stats_.get_latency[i].percentile_ms(0.99),
                  stats_.get_latency[i].percentile_ms(0.50));
    out += line;
  }

  out += "\ntimeline (bucket=" + std::to_string(static_cast<int>(bucket_s_)) +
         " model s): t offered ok shed err\n";
  for (std::size_t b = 0; b < stats_.offered.size(); ++b) {
    if (stats_.offered[b].load() == 0 && stats_.ok[b].load() == 0) continue;
    std::snprintf(line, sizeof line, "%6.0f %8llu %8llu %8llu %6llu\n",
                  b * bucket_s_,
                  static_cast<unsigned long long>(stats_.offered[b].load()),
                  static_cast<unsigned long long>(stats_.ok[b].load()),
                  static_cast<unsigned long long>(stats_.shed[b].load()),
                  static_cast<unsigned long long>(stats_.errors[b].load()));
    out += line;
  }

  std::snprintf(line, sizeof line,
                "\ntotals: ok=%llu shed=%llu miss_fill=%llu storm_err=%llu "
                "unexpected_err=%llu background_ok=%llu background_shed=%llu\n",
                static_cast<unsigned long long>(stats_.total_ok.load()),
                static_cast<unsigned long long>(shed_total),
                static_cast<unsigned long long>(stats_.total_miss.load()),
                static_cast<unsigned long long>(stats_.total_storm_err.load()),
                static_cast<unsigned long long>(unexpected),
                static_cast<unsigned long long>(stats_.background_ok.load()),
                static_cast<unsigned long long>(stats_.background_shed.load()));
  out += line;
  if (server.admission() != nullptr) {
    std::snprintf(line, sizeof line,
                  "admission: admitted=%llu shed=%llu throttled=%llu "
                  "final_shed_level=%d\n",
                  static_cast<unsigned long long>(admission_snap.admitted),
                  static_cast<unsigned long long>(admission_snap.shed),
                  static_cast<unsigned long long>(admission_snap.throttled),
                  shed_level);
    out += line;
  }
  out += slo_detail;

  bool pass = true;
  auto gate = [&](const char* name, bool ok, const std::string& detail) {
    std::snprintf(line, sizeof line, "gate %-34s %s%s\n", name,
                  ok ? "PASS" : "FAIL", detail.c_str());
    out += line;
    if (!ok) pass = false;
  };
  out += "\n";
  gate("zero unexpected client errors", unexpected == 0,
       " (" + std::to_string(unexpected) + ")");
  if (admission_on_) {
    gate("shedder engaged under pressure", shed_total > 0,
         " (shed=" + std::to_string(shed_total) + ")");
  }
  gate("peak RSS under ceiling", rss_mb < rss_ceiling_mb_,
       " (" + std::to_string(rss_mb) + " MB / " +
           std::to_string(rss_ceiling_mb_) + " MB)");
  gate("breakers closed after storm", breakers_closed, breaker_detail);
  if (admission_on_) {
    gate("SLO green after recovery", slo_green, "");
    gate("shed level back to none", shed_level == AdmissionController::kShedNone,
         " (level=" + std::to_string(shed_level) + ")");
  } else if (!slo_green) {
    out += "note: SLO violated with admission off (expected under the same "
           "crowd; this mode exists to demonstrate the contrast)\n";
  }
  std::snprintf(line, sizeof line, "\nRESULT: %s\n", pass ? "PASS" : "FAIL");
  out += line;

  write_report(report_path, out);
  server.stop();
  clients_.clear();
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bench::setup_time_scale(0.25);
  std::string report_path = "soak_report.txt";
  std::uint64_t users = 1'000'000;
  bool admission_on = true;
  double soak_scale = 1.0;
  if (const char* env = std::getenv("TIERA_SOAK_SCALE")) {
    const double v = std::atof(env);
    if (v > 0) soak_scale = v;
  }
  std::uint64_t rss_mb = 512;
  std::string incident_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--users=", 8) == 0) {
      users = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strncmp(argv[i], "--rss-mb=", 9) == 0) {
      rss_mb = std::strtoull(argv[i] + 9, nullptr, 10);
    } else if (std::strncmp(argv[i], "--soak-scale=", 13) == 0) {
      soak_scale = std::atof(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--incident-dir=", 15) == 0) {
      incident_dir = argv[i] + 15;
    } else if (std::strcmp(argv[i], "--no-admission") == 0) {
      admission_on = false;
    } else if (argv[i][0] != '-') {
      report_path = argv[i];
    }
  }
  SoakRun run(soak_scale, users, admission_on);
  run.set_rss_ceiling(rss_mb);
  if (!incident_dir.empty()) run.set_incident_dir(incident_dir);
  return run.run(report_path);
}
