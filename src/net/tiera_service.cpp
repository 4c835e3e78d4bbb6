#include "net/tiera_service.h"

#include <algorithm>
#include <cstdio>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/incident.h"
#include "obs/profiler.h"
#include "obs/stage.h"
#include "obs/watchdog.h"

namespace tiera {

namespace {

void write_string_list(WireWriter& w, const std::vector<std::string>& items) {
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const auto& item : items) w.str(item);
}

Status read_string_list(WireReader& r, std::vector<std::string>& items) {
  std::uint32_t n;
  TIERA_RETURN_IF_ERROR(r.u32(n));
  items.clear();
  items.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string s;
    TIERA_RETURN_IF_ERROR(r.str(s));
    items.push_back(std::move(s));
  }
  return Status::Ok();
}

// Routes each request to an execution shard before the body is fully
// parsed. Data verbs carry the object id as the leading wire string, so the
// same object always lands on the same single-threaded shard (its requests
// run FIFO on one core and never contend on the instance's striped object
// locks). Everything else — stats, traces, and especially the blocking
// kProfile capture — goes to the admin pool so it cannot stall a shard.
std::uint64_t tiera_shard_key(std::uint8_t method, ByteView body) {
  switch (static_cast<TieraMethod>(method)) {
    case TieraMethod::kPut:
    case TieraMethod::kGet:
    case TieraMethod::kRemove:
    case TieraMethod::kStat:
    case TieraMethod::kAddTags: {
      if (body.size() < 4) return ReactorServer::kAdminKey;  // malformed
      std::uint32_t len = 0;
      for (int i = 0; i < 4; ++i) len |= std::uint32_t(body[i]) << (8 * i);
      if (body.size() - 4 < len) return ReactorServer::kAdminKey;
      // Clear the top bit so a hash can never collide with kAdminKey.
      return fnv1a64(ByteView(body.data() + 4, len)) & 0x7fffffffffffffffull;
    }
    default:
      return ReactorServer::kAdminKey;
  }
}

// Maps a wire method to its rung on the admission ladder. Data verbs carry
// real priorities; everything else is admin — precisely the traffic an
// operator needs while the server sheds (top, stats, traces).
RequestPriority tiera_priority(std::uint8_t method, bool background) {
  switch (static_cast<TieraMethod>(method)) {
    case TieraMethod::kGet:
    case TieraMethod::kStat:
      return background ? RequestPriority::kBackground : RequestPriority::kGet;
    case TieraMethod::kPut:
    case TieraMethod::kRemove:
    case TieraMethod::kAddTags:
      return background ? RequestPriority::kBackground : RequestPriority::kPut;
    default:
      return RequestPriority::kAdmin;
  }
}

}  // namespace

TieraServer::TieraServer(TieraInstance& instance, std::uint16_t port,
                         std::size_t request_threads)
    : instance_(instance), server_(port, ReactorOptions{.shards = request_threads}) {
  server_.set_shard_key(tiera_shard_key);
  register_handlers();
}

TieraServer::TieraServer(TieraInstance& instance, std::uint16_t port,
                         ReactorOptions options)
    : instance_(instance), server_(port, options) {
  server_.set_shard_key(tiera_shard_key);
  register_handlers();
}

TieraServer::~TieraServer() { stop(); }

void TieraServer::enable_admission(const AdmissionConfig& config) {
  admission_ =
      std::make_unique<AdmissionController>(config, MetricsRegistry::global());
  server_.set_admission(
      [this](std::uint8_t method, std::string_view tenant, bool background) {
        return admission_->admit(tenant, tiera_priority(method, background));
      });
  instance_.set_admission_view(admission_.get());
}

Status TieraServer::enable_incident_reporting(const std::string& incident_dir) {
  IncidentConfig config;
  config.dir = incident_dir;
  TIERA_RETURN_IF_ERROR(IncidentHub::global().configure(std::move(config)));
  IncidentHub::global().set_context_provider([this] {
    return instance_.render_top("header,tiers,slo,pool,admission,heat");
  });
  IncidentHub::global().install_crash_handler();

  // Keep annotation frames on permanently so incident reports always carry
  // per-thread stacks (normally they only run during a profiler capture).
  set_profile_frames_enabled(true);

  Watchdog& watchdog = Watchdog::global();
  server_.attach_watchdog(&watchdog);
  // The control tick sleeps a scaled wall tick between passes; its "queue"
  // is simply whether the loop should still be running. Give it a long
  // leash — large time_scale values legitimately stretch the tick.
  ControlLayer* control = &instance_.control();
  watchdog_ids_.push_back(watchdog.add_component(
      "control-tick", [control] { return control->timer_ticks(); },
      [control] { return control->timer_running() ? std::size_t(1) : 0; },
      /*stall_checks_override=*/40));
  // The metadb journal: progress = flushed batches, queue = unflushed
  // records some commit waits for (a PUT still in its tier I/O is not
  // queued on the journal).
  MetaDb* meta = instance_.metadata().db();
  if (meta != nullptr) {
    watchdog_ids_.push_back(watchdog.add_component(
        "metadb-journal", [meta] { return meta->journal_batches(); },
        [meta] { return static_cast<std::size_t>(meta->journal_pending()); }));
  }
  // Metric-delta snapshots for the merged timeline.
  watchdog.add_metric_watch("rpc-requests",
                            [this] { return server_.requests_served(); });
  watchdog.start();
  incident_reporting_ = true;
  return Status::Ok();
}

// Feeds the controller its two pressure signals: the worst short-window
// burn rate across the instance's SLOs, and how full the reactor's
// in-flight budget is. 20ms of wall time per tick is fast enough to catch
// a flash crowd well before the SLO windows fill, and cheap enough to
// leave running for the server's lifetime.
void TieraServer::admission_poll_loop() {
  while (poller_running_.load(std::memory_order_acquire)) {
    double burn = 0.0;
    for (const SloStatus& row : instance_.slo().status()) {
      burn = std::max(burn, row.burn_short);
    }
    const std::size_t capacity = server_.inflight_capacity();
    const double inflight_fraction =
        capacity == 0 ? 0.0
                      : static_cast<double>(server_.inflight()) /
                            static_cast<double>(capacity);
    admission_->update_signals(burn, inflight_fraction);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

Status TieraServer::start() {
  TIERA_RETURN_IF_ERROR(server_.start());
  if (admission_ && !admission_poller_.joinable()) {
    poller_running_.store(true, std::memory_order_release);
    admission_poller_ = std::thread([this] { admission_poll_loop(); });
  }
  return Status::Ok();
}

void TieraServer::stop() {
  if (admission_poller_.joinable()) {
    poller_running_.store(false, std::memory_order_release);
    admission_poller_.join();
  }
  server_.stop();
  if (incident_reporting_) {
    // Our probes reference the instance's control layer and metadb; drop
    // them (and the watchdog thread) before either can go away.
    for (std::uint64_t id : watchdog_ids_) {
      Watchdog::global().remove_component(id);
    }
    watchdog_ids_.clear();
    Watchdog::global().stop();
    incident_reporting_ = false;
  }
  // The controller dies with this server; stop `top` from dereferencing it.
  if (admission_) instance_.set_admission_view(nullptr);
}

void TieraServer::register_handlers() {
  server_.register_handler(
      static_cast<std::uint8_t>(TieraMethod::kPut),
      [this](ByteView body) -> Result<Bytes> {
        // The RPC-level scope owns the breakdown for remote ops; the nested
        // instance-level scope inside put() is inert, so rpc.decode and the
        // engine stages land in the same per-op rows.
        OpStageScope stage_scope(StageOp::kPut);
        WireReader r(body);
        std::string id;
        Bytes data;
        std::vector<std::string> tags;
        {
          StageTimer decode_stage(Stage::kRpcDecode);
          TIERA_RETURN_IF_ERROR(r.str(id));
          TIERA_RETURN_IF_ERROR(r.bytes(data));
          TIERA_RETURN_IF_ERROR(read_string_list(r, tags));
        }
        TIERA_RETURN_IF_ERROR(instance_.put(id, as_view(data), tags));
        return Bytes{};
      });

  server_.register_handler(
      static_cast<std::uint8_t>(TieraMethod::kGet),
      [this](ByteView body) -> Result<Bytes> {
        OpStageScope stage_scope(StageOp::kGet);
        WireReader r(body);
        std::string id;
        {
          StageTimer decode_stage(Stage::kRpcDecode);
          TIERA_RETURN_IF_ERROR(r.str(id));
        }
        return instance_.get(id);
      });

  server_.register_handler(
      static_cast<std::uint8_t>(TieraMethod::kRemove),
      [this](ByteView body) -> Result<Bytes> {
        OpStageScope stage_scope(StageOp::kDelete);
        WireReader r(body);
        std::string id;
        {
          StageTimer decode_stage(Stage::kRpcDecode);
          TIERA_RETURN_IF_ERROR(r.str(id));
        }
        TIERA_RETURN_IF_ERROR(instance_.remove(id));
        return Bytes{};
      });

  server_.register_handler(
      static_cast<std::uint8_t>(TieraMethod::kStat),
      [this](ByteView body) -> Result<Bytes> {
        WireReader r(body);
        std::string id;
        TIERA_RETURN_IF_ERROR(r.str(id));
        Result<ObjectMeta> meta = instance_.stat(id);
        if (!meta.ok()) return meta.status();
        WireWriter w;
        w.str(meta->id);
        w.u64(meta->size);
        w.u64(meta->access_count);
        w.u8(meta->dirty ? 1 : 0);
        write_string_list(w, {meta->locations.begin(), meta->locations.end()});
        write_string_list(w, {meta->tags.begin(), meta->tags.end()});
        return w.take();
      });

  server_.register_handler(
      static_cast<std::uint8_t>(TieraMethod::kAddTags),
      [this](ByteView body) -> Result<Bytes> {
        WireReader r(body);
        std::string id;
        std::vector<std::string> tags;
        TIERA_RETURN_IF_ERROR(r.str(id));
        TIERA_RETURN_IF_ERROR(read_string_list(r, tags));
        TIERA_RETURN_IF_ERROR(instance_.add_tags(id, tags));
        return Bytes{};
      });

  server_.register_handler(
      static_cast<std::uint8_t>(TieraMethod::kListTiers),
      [this](ByteView) -> Result<Bytes> {
        WireWriter w;
        write_string_list(w, instance_.tier_labels());
        return w.take();
      });

  server_.register_handler(
      static_cast<std::uint8_t>(TieraMethod::kGrowTier),
      [this](ByteView body) -> Result<Bytes> {
        WireReader r(body);
        std::string label;
        std::uint64_t percent_milli;
        TIERA_RETURN_IF_ERROR(r.str(label));
        TIERA_RETURN_IF_ERROR(r.u64(percent_milli));
        TIERA_RETURN_IF_ERROR(instance_.engine_grow(
            label, static_cast<double>(percent_milli) / 1000.0));
        return Bytes{};
      });

  server_.register_handler(
      static_cast<std::uint8_t>(TieraMethod::kStats),
      [this](ByteView body) -> Result<Bytes> {
        // With a format string in the body, render the process-wide metrics
        // registry; an empty body keeps the legacy binary reply.
        if (!body.empty()) {
          WireReader r(body);
          std::string format;
          TIERA_RETURN_IF_ERROR(r.str(format));
          std::string text;
          if (format == "prom") {
            text = MetricsRegistry::global().render_prometheus();
          } else if (format == "text") {
            text = MetricsRegistry::global().render_text();
          } else if (format == "top") {
            text = instance_.render_top();
          } else if (format.rfind("top:", 0) == 0) {
            // "top:slo,pool" renders only the named sections.
            text = instance_.render_top(
                std::string_view(format).substr(4));  // skip "top:"
          } else {
            return Status::InvalidArgument("unknown stats format: " + format);
          }
          return to_bytes(text);
        }
        WireWriter w;
        w.u64(instance_.stats().puts.load());
        w.u64(instance_.stats().gets.load());
        w.u64(instance_.stats().removes.load());
        w.u64(instance_.object_count());
        return w.take();
      });

  server_.register_handler(
      static_cast<std::uint8_t>(TieraMethod::kSlo),
      [this](ByteView) -> Result<Bytes> {
        const std::vector<SloStatus> rows = instance_.slo().status();
        WireWriter w;
        // Doubles cross as micro-unit u64 fixed point (the wire only does
        // integers), same convention as kTraceSpans durations.
        const auto micros = [](double v) {
          return static_cast<std::uint64_t>(v < 0 ? 0 : v * 1e6);
        };
        w.u32(static_cast<std::uint32_t>(rows.size()));
        for (const auto& row : rows) {
          w.str(row.name);
          w.str(row.tier);
          w.str(row.signal);
          w.u8(row.is_latency ? 1 : 0);
          w.u8(row.violated ? 1 : 0);
          w.u64(micros(row.target));
          w.u64(micros(row.current));
          w.u64(micros(row.window_s));
          w.u64(row.samples);
          w.u64(micros(row.burn_short));
          w.u64(micros(row.burn_long));
          w.u64(row.violations);
        }
        return w.take();
      });

  server_.register_handler(
      static_cast<std::uint8_t>(TieraMethod::kProfile),
      [](ByteView body) -> Result<Bytes> {
        std::uint32_t duration_ms = 1000;
        std::uint32_t interval_us = 1000;
        if (!body.empty()) {
          WireReader r(body);
          TIERA_RETURN_IF_ERROR(r.u32(duration_ms));
          TIERA_RETURN_IF_ERROR(r.u32(interval_us));
        }
        // Blocks one request-pool worker for the capture window; the
        // profiler itself refuses concurrent captures.
        Result<std::string> folded =
            Profiler::global().capture(duration_ms, interval_us);
        if (!folded.ok()) return folded.status();
        return to_bytes(*folded);
      });

  server_.register_handler(
      static_cast<std::uint8_t>(TieraMethod::kHeat),
      [this](ByteView body) -> Result<Bytes> {
        std::uint32_t top_n = 20;
        if (!body.empty()) {
          WireReader r(body);
          TIERA_RETURN_IF_ERROR(r.u32(top_n));
        }
        WireWriter w;
        const HeatTracker* heat = instance_.heat();
        const CostMeter* cost = instance_.cost_meter();
        w.u8(heat != nullptr ? 1 : 0);
        if (heat == nullptr) return w.take();
        // Rates cross as micro units, dollars as nano units (see header).
        const auto micros = [](double v) {
          return static_cast<std::uint64_t>(v < 0 ? 0 : v * 1e6);
        };
        const auto nanos = [](double v) {
          return static_cast<std::uint64_t>(v < 0 ? 0 : v * 1e9);
        };
        const HeatSnapshot snap = heat->snapshot(top_n);
        w.u64(micros(snap.half_life_s));
        w.u64(snap.decay_epochs);
        w.u64(snap.memory_bytes);
        w.u32(static_cast<std::uint32_t>(snap.tiers.size()));
        for (const auto& tier : snap.tiers) {
          w.str(tier.tier);
          w.u32(static_cast<std::uint32_t>(tier.top.size()));
          for (const auto& hot : tier.top) {
            w.str(hot.key);
            w.u64(hot.estimate);
            w.u64(micros(hot.rate_per_s));
          }
          w.u32(static_cast<std::uint32_t>(tier.histogram.size()));
          for (const std::uint64_t bucket : tier.histogram) w.u64(bucket);
          w.u64(tier.tracked_keys);
          w.u64(tier.records);
          w.u64(tier.bytes);
          w.u64(tier.evictions);
        }
        const CostSnapshot costs =
            cost != nullptr ? cost->snapshot() : CostSnapshot{};
        w.u64(nanos(costs.total_dollars));
        w.u64(nanos(costs.monthly_burn_dollars));
        w.u64(micros(costs.modelled_seconds));
        w.u32(static_cast<std::uint32_t>(costs.tiers.size()));
        for (const auto& tier : costs.tiers) {
          w.str(tier.tier);
          w.u64(nanos(tier.storage_dollars));
          w.u64(nanos(tier.request_dollars));
          w.u64(nanos(tier.egress_dollars));
          w.u64(nanos(tier.monthly_burn_dollars));
          w.u64(tier.client_read_bytes);
          w.u64(tier.client_write_bytes);
        }
        w.u32(static_cast<std::uint32_t>(costs.rules.size()));
        for (const auto& rule : costs.rules) {
          w.u64(rule.rule_id);
          w.str(rule.rule_name);
          w.u64(rule.bytes_moved);
          w.u64(rule.objects_moved);
          w.u64(nanos(rule.dollars));
        }
        return w.take();
      });

  server_.register_handler(
      static_cast<std::uint8_t>(TieraMethod::kTraceSpans),
      [this](ByteView body) -> Result<Bytes> {
        std::uint32_t last_n = 512;
        if (!body.empty()) {
          WireReader r(body);
          TIERA_RETURN_IF_ERROR(r.u32(last_n));
        }
        const std::vector<FlightEvent> spans = recent_spans(last_n);
        WireWriter w;
        w.u32(static_cast<std::uint32_t>(spans.size()));
        for (const auto& span : spans) {
          w.u64(span.trace_id);
          w.u64(span.span_id);
          w.u64(span.parent_span_id);
          w.u64(span.rule_id());
          w.u8(static_cast<std::uint8_t>(span.op));
          w.str(span.label);
          w.str(span.object);
          w.str(span.tier);
          w.u64(static_cast<std::uint64_t>(span.t_us));
          w.u64(span.b);  // elapsed ns
          w.u8(span.status);
          w.u8(span.digest);
        }
        return w.take();
      });

  server_.register_handler(
      static_cast<std::uint8_t>(TieraMethod::kIncident),
      [](ByteView body) -> Result<Bytes> {
        std::uint8_t mode = 0;  // trigger
        if (!body.empty()) {
          WireReader r(body);
          TIERA_RETURN_IF_ERROR(r.u8(mode));
        }
        IncidentHub& hub = IncidentHub::global();
        switch (mode) {
          case 0: {
            auto path = hub.trigger("rpc", "requested via kIncident RPC");
            if (!path.ok()) return path.status();
            return to_bytes(*path);
          }
          case 1: {
            std::string joined;
            for (const std::string& path : hub.list()) {
              joined += path;
              joined += '\n';
            }
            return to_bytes(joined);
          }
          case 2: {
            auto body_result = hub.latest();
            if (!body_result.ok()) return body_result.status();
            return to_bytes(*body_result);
          }
          default:
            return Status::InvalidArgument("unknown incident mode");
        }
      });

  server_.register_handler(
      static_cast<std::uint8_t>(TieraMethod::kLogLevel),
      [](ByteView body) -> Result<Bytes> {
        WireReader r(body);
        std::string name;
        TIERA_RETURN_IF_ERROR(r.str(name));
        LogLevel level;
        if (!parse_log_level(name, &level)) {
          return Status::InvalidArgument("unknown log level: " + name);
        }
        force_log_level(level);
        TIERA_LOG(kWarn, "rpc") << "log level forced to "
                                << log_level_name(level) << " via RPC";
        return Bytes{};
      });
}

Result<std::unique_ptr<RemoteTieraClient>> RemoteTieraClient::connect(
    const std::string& host, std::uint16_t port) {
  auto client = RpcClient::connect(host, port);
  if (!client.ok()) return client.status();
  return std::unique_ptr<RemoteTieraClient>(
      new RemoteTieraClient(std::move(client).value()));
}

Status RemoteTieraClient::put(std::string_view id, ByteView data,
                              const std::vector<std::string>& tags) {
  WireWriter w;
  w.str(id);
  w.bytes(data);
  write_string_list(w, tags);
  return client_
      ->call(static_cast<std::uint8_t>(TieraMethod::kPut), as_view(w.data()))
      .status();
}

Result<Bytes> RemoteTieraClient::get(std::string_view id) {
  WireWriter w;
  w.str(id);
  return client_->call(static_cast<std::uint8_t>(TieraMethod::kGet),
                       as_view(w.data()));
}

Status RemoteTieraClient::remove(std::string_view id) {
  WireWriter w;
  w.str(id);
  return client_
      ->call(static_cast<std::uint8_t>(TieraMethod::kRemove),
             as_view(w.data()))
      .status();
}

Result<RemoteObjectInfo> RemoteTieraClient::stat(std::string_view id) {
  WireWriter w;
  w.str(id);
  Result<Bytes> reply = client_->call(
      static_cast<std::uint8_t>(TieraMethod::kStat), as_view(w.data()));
  if (!reply.ok()) return reply.status();
  WireReader r(as_view(*reply));
  RemoteObjectInfo info;
  std::uint8_t dirty = 0;
  TIERA_RETURN_IF_ERROR(r.str(info.id));
  TIERA_RETURN_IF_ERROR(r.u64(info.size));
  TIERA_RETURN_IF_ERROR(r.u64(info.access_count));
  TIERA_RETURN_IF_ERROR(r.u8(dirty));
  TIERA_RETURN_IF_ERROR(read_string_list(r, info.locations));
  TIERA_RETURN_IF_ERROR(read_string_list(r, info.tags));
  info.dirty = dirty != 0;
  return info;
}

Status RemoteTieraClient::add_tags(std::string_view id,
                                   const std::vector<std::string>& tags) {
  WireWriter w;
  w.str(id);
  write_string_list(w, tags);
  return client_
      ->call(static_cast<std::uint8_t>(TieraMethod::kAddTags),
             as_view(w.data()))
      .status();
}

Result<std::vector<std::string>> RemoteTieraClient::list_tiers() {
  Result<Bytes> reply =
      client_->call(static_cast<std::uint8_t>(TieraMethod::kListTiers), {});
  if (!reply.ok()) return reply.status();
  WireReader r(as_view(*reply));
  std::vector<std::string> tiers;
  TIERA_RETURN_IF_ERROR(read_string_list(r, tiers));
  return tiers;
}

Result<std::string> RemoteTieraClient::stats(std::string_view format) {
  WireWriter w;
  w.str(format);
  Result<Bytes> reply = client_->call(
      static_cast<std::uint8_t>(TieraMethod::kStats), as_view(w.data()));
  if (!reply.ok()) return reply.status();
  return std::string(reply->begin(), reply->end());
}

Result<RemoteStatsSummary> RemoteTieraClient::stats_summary() {
  Result<Bytes> reply =
      client_->call(static_cast<std::uint8_t>(TieraMethod::kStats), {});
  if (!reply.ok()) return reply.status();
  WireReader r(as_view(*reply));
  RemoteStatsSummary s;
  TIERA_RETURN_IF_ERROR(r.u64(s.puts));
  TIERA_RETURN_IF_ERROR(r.u64(s.gets));
  TIERA_RETURN_IF_ERROR(r.u64(s.removes));
  TIERA_RETURN_IF_ERROR(r.u64(s.objects));
  return s;
}

Result<std::vector<FlightEvent>> RemoteTieraClient::trace_spans(
    std::uint32_t last_n) {
  WireWriter w;
  w.u32(last_n);
  Result<Bytes> reply = client_->call(
      static_cast<std::uint8_t>(TieraMethod::kTraceSpans), as_view(w.data()));
  if (!reply.ok()) return reply.status();
  WireReader r(as_view(*reply));
  std::uint32_t count = 0;
  TIERA_RETURN_IF_ERROR(r.u32(count));
  std::vector<FlightEvent> spans;
  spans.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    FlightEvent span;
    std::uint64_t start_us = 0;
    std::uint8_t op = 0;
    std::string label, object_id, tier;
    TIERA_RETURN_IF_ERROR(r.u64(span.trace_id));
    TIERA_RETURN_IF_ERROR(r.u64(span.span_id));
    TIERA_RETURN_IF_ERROR(r.u64(span.parent_span_id));
    TIERA_RETURN_IF_ERROR(r.u64(span.a));
    TIERA_RETURN_IF_ERROR(r.u8(op));
    TIERA_RETURN_IF_ERROR(r.str(label));
    TIERA_RETURN_IF_ERROR(r.str(object_id));
    TIERA_RETURN_IF_ERROR(r.str(tier));
    TIERA_RETURN_IF_ERROR(r.u64(start_us));
    TIERA_RETURN_IF_ERROR(r.u64(span.b));
    TIERA_RETURN_IF_ERROR(r.u8(span.status));
    TIERA_RETURN_IF_ERROR(r.u8(span.digest));
    span.op = static_cast<FlightOp>(op);
    copy_flight_text(span.label, label);
    copy_flight_text(span.object, object_id);
    copy_flight_text(span.tier, tier);
    span.t_us = static_cast<std::int64_t>(start_us);
    spans.push_back(span);
  }
  return spans;
}

Result<std::vector<RemoteSloRow>> RemoteTieraClient::slo() {
  Result<Bytes> reply =
      client_->call(static_cast<std::uint8_t>(TieraMethod::kSlo), {});
  if (!reply.ok()) return reply.status();
  WireReader r(as_view(*reply));
  std::uint32_t count = 0;
  TIERA_RETURN_IF_ERROR(r.u32(count));
  std::vector<RemoteSloRow> rows;
  rows.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    RemoteSloRow row;
    std::uint8_t is_latency = 0, violated = 0;
    std::uint64_t target = 0, current = 0, window = 0, burn_short = 0,
                  burn_long = 0;
    TIERA_RETURN_IF_ERROR(r.str(row.name));
    TIERA_RETURN_IF_ERROR(r.str(row.tier));
    TIERA_RETURN_IF_ERROR(r.str(row.signal));
    TIERA_RETURN_IF_ERROR(r.u8(is_latency));
    TIERA_RETURN_IF_ERROR(r.u8(violated));
    TIERA_RETURN_IF_ERROR(r.u64(target));
    TIERA_RETURN_IF_ERROR(r.u64(current));
    TIERA_RETURN_IF_ERROR(r.u64(window));
    TIERA_RETURN_IF_ERROR(r.u64(row.samples));
    TIERA_RETURN_IF_ERROR(r.u64(burn_short));
    TIERA_RETURN_IF_ERROR(r.u64(burn_long));
    TIERA_RETURN_IF_ERROR(r.u64(row.violations));
    row.is_latency = is_latency != 0;
    row.violated = violated != 0;
    row.target = static_cast<double>(target) / 1e6;
    row.current = static_cast<double>(current) / 1e6;
    row.window_s = static_cast<double>(window) / 1e6;
    row.burn_short = static_cast<double>(burn_short) / 1e6;
    row.burn_long = static_cast<double>(burn_long) / 1e6;
    rows.push_back(std::move(row));
  }
  return rows;
}

Result<std::string> RemoteTieraClient::profile(std::uint32_t duration_ms,
                                               std::uint32_t interval_us) {
  WireWriter w;
  w.u32(duration_ms);
  w.u32(interval_us);
  Result<Bytes> reply = client_->call(
      static_cast<std::uint8_t>(TieraMethod::kProfile), as_view(w.data()));
  if (!reply.ok()) return reply.status();
  return std::string(reply->begin(), reply->end());
}

Result<RemoteHeatReport> RemoteTieraClient::heat(std::uint32_t top_n) {
  WireWriter w;
  w.u32(top_n);
  Result<Bytes> reply = client_->call(
      static_cast<std::uint8_t>(TieraMethod::kHeat), as_view(w.data()));
  if (!reply.ok()) return reply.status();
  WireReader r(as_view(*reply));
  RemoteHeatReport report;
  std::uint8_t enabled = 0;
  TIERA_RETURN_IF_ERROR(r.u8(enabled));
  report.enabled = enabled != 0;
  if (!report.enabled) return report;
  const auto from_micros = [](std::uint64_t v) {
    return static_cast<double>(v) / 1e6;
  };
  const auto from_nanos = [](std::uint64_t v) {
    return static_cast<double>(v) / 1e9;
  };
  std::uint64_t half_life = 0;
  TIERA_RETURN_IF_ERROR(r.u64(half_life));
  report.half_life_s = from_micros(half_life);
  TIERA_RETURN_IF_ERROR(r.u64(report.decay_epochs));
  TIERA_RETURN_IF_ERROR(r.u64(report.memory_bytes));
  std::uint32_t tier_count = 0;
  TIERA_RETURN_IF_ERROR(r.u32(tier_count));
  report.tiers.reserve(tier_count);
  for (std::uint32_t i = 0; i < tier_count; ++i) {
    RemoteTierHeat tier;
    TIERA_RETURN_IF_ERROR(r.str(tier.tier));
    std::uint32_t top_count = 0;
    TIERA_RETURN_IF_ERROR(r.u32(top_count));
    tier.top.reserve(top_count);
    for (std::uint32_t j = 0; j < top_count; ++j) {
      RemoteHeatEntry entry;
      std::uint64_t rate = 0;
      TIERA_RETURN_IF_ERROR(r.str(entry.key));
      TIERA_RETURN_IF_ERROR(r.u64(entry.estimate));
      TIERA_RETURN_IF_ERROR(r.u64(rate));
      entry.rate_per_s = from_micros(rate);
      tier.top.push_back(std::move(entry));
    }
    std::uint32_t bucket_count = 0;
    TIERA_RETURN_IF_ERROR(r.u32(bucket_count));
    tier.histogram.resize(bucket_count);
    for (std::uint32_t j = 0; j < bucket_count; ++j) {
      TIERA_RETURN_IF_ERROR(r.u64(tier.histogram[j]));
    }
    TIERA_RETURN_IF_ERROR(r.u64(tier.tracked_keys));
    TIERA_RETURN_IF_ERROR(r.u64(tier.records));
    TIERA_RETURN_IF_ERROR(r.u64(tier.bytes));
    TIERA_RETURN_IF_ERROR(r.u64(tier.evictions));
    report.tiers.push_back(std::move(tier));
  }
  std::uint64_t total = 0, burn = 0, modelled = 0;
  TIERA_RETURN_IF_ERROR(r.u64(total));
  TIERA_RETURN_IF_ERROR(r.u64(burn));
  TIERA_RETURN_IF_ERROR(r.u64(modelled));
  report.total_dollars = from_nanos(total);
  report.monthly_burn_dollars = from_nanos(burn);
  report.modelled_seconds = from_micros(modelled);
  std::uint32_t cost_count = 0;
  TIERA_RETURN_IF_ERROR(r.u32(cost_count));
  report.tier_costs.reserve(cost_count);
  for (std::uint32_t i = 0; i < cost_count; ++i) {
    RemoteTierCost tier;
    std::uint64_t storage = 0, request = 0, egress = 0, tier_burn = 0;
    TIERA_RETURN_IF_ERROR(r.str(tier.tier));
    TIERA_RETURN_IF_ERROR(r.u64(storage));
    TIERA_RETURN_IF_ERROR(r.u64(request));
    TIERA_RETURN_IF_ERROR(r.u64(egress));
    TIERA_RETURN_IF_ERROR(r.u64(tier_burn));
    TIERA_RETURN_IF_ERROR(r.u64(tier.read_bytes));
    TIERA_RETURN_IF_ERROR(r.u64(tier.write_bytes));
    tier.storage_dollars = from_nanos(storage);
    tier.request_dollars = from_nanos(request);
    tier.egress_dollars = from_nanos(egress);
    tier.monthly_burn_dollars = from_nanos(tier_burn);
    report.tier_costs.push_back(std::move(tier));
  }
  std::uint32_t rule_count = 0;
  TIERA_RETURN_IF_ERROR(r.u32(rule_count));
  report.rule_costs.reserve(rule_count);
  for (std::uint32_t i = 0; i < rule_count; ++i) {
    RemoteRuleCost rule;
    std::uint64_t dollars = 0;
    TIERA_RETURN_IF_ERROR(r.u64(rule.rule_id));
    TIERA_RETURN_IF_ERROR(r.str(rule.name));
    TIERA_RETURN_IF_ERROR(r.u64(rule.bytes));
    TIERA_RETURN_IF_ERROR(r.u64(rule.objects));
    TIERA_RETURN_IF_ERROR(r.u64(dollars));
    rule.dollars = from_nanos(dollars);
    report.rule_costs.push_back(std::move(rule));
  }
  return report;
}

Status RemoteTieraClient::grow_tier(std::string_view label, double percent) {
  WireWriter w;
  w.str(label);
  w.u64(static_cast<std::uint64_t>(percent * 1000.0));
  return client_
      ->call(static_cast<std::uint8_t>(TieraMethod::kGrowTier),
             as_view(w.data()))
      .status();
}

namespace {

Result<std::string> incident_call(RpcClient& client, std::uint8_t mode) {
  WireWriter w;
  w.u8(mode);
  Result<Bytes> reply = client.call(
      static_cast<std::uint8_t>(TieraMethod::kIncident), as_view(w.data()));
  if (!reply.ok()) return reply.status();
  return std::string(reply->begin(), reply->end());
}

}  // namespace

Result<std::string> RemoteTieraClient::incident_trigger() {
  return incident_call(*client_, 0);
}

Result<std::string> RemoteTieraClient::incident_list() {
  return incident_call(*client_, 1);
}

Result<std::string> RemoteTieraClient::incident_latest() {
  return incident_call(*client_, 2);
}

Status RemoteTieraClient::set_log_level(std::string_view level) {
  WireWriter w;
  w.str(level);
  return client_
      ->call(static_cast<std::uint8_t>(TieraMethod::kLogLevel),
             as_view(w.data()))
      .status();
}

}  // namespace tiera
