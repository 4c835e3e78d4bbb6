#include "core/admission.h"

#include <algorithm>
#include <cstdio>

#include "common/hash.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace tiera {

std::string_view to_string(RequestPriority p) {
  switch (p) {
    case RequestPriority::kAdmin: return "admin";
    case RequestPriority::kGet: return "get";
    case RequestPriority::kPut: return "put";
    case RequestPriority::kBackground: return "background";
  }
  return "unknown";
}

namespace {
// Shared bucket for tenants beyond max_tenants; keeps the map bounded when
// a client floods distinct tenant ids.
constexpr std::string_view kOverflowTenant = "~overflow";
}  // namespace

AdmissionController::AdmissionController(AdmissionConfig config,
                                         MetricsRegistry& registry)
    : config_(config),
      wall_per_model_(time_scale() > 0.0 ? time_scale() : 1.0),
      registry_(registry) {
  // Materialize the families up front so scrapes see zeros, not absence.
  registry_.counter("tiera_admission_admitted_total");
  registry_.counter("tiera_admission_shed_total");
  registry_.counter("tiera_admission_throttled_total");
  registry_.gauge("tiera_admission_shed_level").set(kShedNone);
}

AdmissionController::Stripe& AdmissionController::stripe_for(
    std::string_view tenant) {
  return stripes_[fnv1a64(tenant) % kStripes];
}

int AdmissionController::target_level(double pressure) {
  if (pressure >= 2.0) return kShedReads;
  if (pressure >= 1.0) return kShedWrites;
  if (pressure >= 0.75) return kShedBackground;
  return kShedNone;
}

void AdmissionController::update_signals(double burn_short,
                                         double inflight_fraction) {
  update_signals(burn_short, inflight_fraction, now());
}

void AdmissionController::update_signals(double burn_short,
                                         double inflight_fraction,
                                         TimePoint now_tp) {
  burn_short_.store(burn_short, std::memory_order_relaxed);
  inflight_fraction_.store(inflight_fraction, std::memory_order_relaxed);

  const double pressure =
      std::max(config_.shed_burn > 0 ? burn_short / config_.shed_burn : 0.0,
               config_.shed_inflight > 0
                   ? inflight_fraction / config_.shed_inflight
                   : 0.0);
  const int target = target_level(pressure);

  std::lock_guard<std::mutex> lock(signal_mu_);
  int level = shed_level_.load(std::memory_order_relaxed);
  if (target < level) {
    // Escalate immediately: overload is now, hysteresis only delays relief.
    level = target;
    calm_valid_ = false;
  } else if (level < kShedNone) {
    // De-escalation path: require both signals calm for resume_hold before
    // relaxing, one rung at a time, so a spiky burn signal cannot flap the
    // shedder between levels.
    const bool calm = burn_short <= config_.resume_burn &&
                      inflight_fraction <= config_.resume_inflight;
    if (!calm) {
      calm_valid_ = false;
    } else if (!calm_valid_) {
      calm_since_ = now_tp;
      calm_valid_ = true;
    } else {
      const auto hold = std::chrono::duration_cast<Duration>(
          std::chrono::duration<double>(to_seconds(config_.resume_hold) *
                                        wall_per_model_));
      if (now_tp - calm_since_ >= hold) {
        level += 1;
        calm_since_ = now_tp;  // next rung needs its own hold period
      }
    }
  }
  const int before = shed_level_.load(std::memory_order_relaxed);
  shed_level_.store(level, std::memory_order_relaxed);
  registry_.gauge("tiera_admission_shed_level").set(level);
  if (level != before) {
    FlightRecorder::global().record_transition(
        "admission", static_cast<std::uint64_t>(before),
        static_cast<std::uint64_t>(level));
  }
}

std::string_view AdmissionController::resolve_tenant(std::string_view tenant) {
  if (tenant.empty()) tenant = "default";
  {
    Stripe& stripe = stripe_for(tenant);
    std::lock_guard<std::mutex> lock(stripe.mu);
    if (stripe.tenants.count(std::string(tenant)) != 0) return tenant;
    // Reserve a slot before inserting: a load-then-add check lets two
    // stripes both pass the bound and grow the map past max_tenants.
    if (tenant_count_.fetch_add(1, std::memory_order_relaxed) <
        config_.max_tenants) {
      stripe.tenants.emplace(std::string(tenant), TenantState{});
      return tenant;
    }
    tenant_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  // Map is full: this tenant shares the overflow bucket (and its metric
  // series), so a tenant-id flood cannot grow memory unboundedly. Created
  // lazily; the two stripe locks are never held together.
  Stripe& stripe = stripe_for(kOverflowTenant);
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (stripe.tenants.count(std::string(kOverflowTenant)) == 0) {
    stripe.tenants.emplace(std::string(kOverflowTenant), TenantState{});
    tenant_count_.fetch_add(1, std::memory_order_relaxed);
  }
  return kOverflowTenant;
}

bool AdmissionController::take_token(std::string_view tenant,
                                     TimePoint now_tp) {
  Stripe& stripe = stripe_for(tenant);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.tenants.find(std::string(tenant));
  if (it == stripe.tenants.end()) return true;  // resolve_tenant creates it
  TenantState& st = it->second;
  const double burst = config_.tenant_rate * config_.tenant_burst_s;
  if (!st.primed) {
    st.tokens = burst;
    st.last_refill = now_tp;
    st.primed = true;
  } else {
    // Refill in modelled time: wall elapsed / wall_per_model_ modelled
    // seconds have passed, each worth tenant_rate tokens.
    const double wall_s = to_seconds(now_tp - st.last_refill);
    if (wall_s > 0) {
      st.tokens = std::min(
          burst, st.tokens + config_.tenant_rate * (wall_s / wall_per_model_));
      st.last_refill = now_tp;
    }
  }
  if (st.tokens < 1.0) return false;
  st.tokens -= 1.0;
  return true;
}

void AdmissionController::count(std::string_view tenant, AdmitResult result) {
  const char* name = nullptr;
  switch (result) {
    case AdmitResult::kAdmitted:
      admitted_total_.fetch_add(1, std::memory_order_relaxed);
      name = "tiera_admission_admitted_total";
      break;
    case AdmitResult::kShed:
      shed_total_.fetch_add(1, std::memory_order_relaxed);
      name = "tiera_admission_shed_total";
      break;
    case AdmitResult::kThrottled:
      throttled_total_.fetch_add(1, std::memory_order_relaxed);
      name = "tiera_admission_throttled_total";
      break;
  }
  registry_.counter(name).inc();
  registry_.counter(name, {{"tenant", std::string(tenant)}}).inc();

  Stripe& stripe = stripe_for(tenant);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.tenants.find(std::string(tenant));
  if (it == stripe.tenants.end()) return;  // resolve_tenant creates it
  switch (result) {
    case AdmitResult::kAdmitted: it->second.admitted++; break;
    case AdmitResult::kShed: it->second.shed++; break;
    case AdmitResult::kThrottled: it->second.throttled++; break;
  }
}

Status AdmissionController::admit(std::string_view tenant,
                                  RequestPriority priority) {
  return admit(tenant, priority, now());
}

Status AdmissionController::admit(std::string_view tenant,
                                  RequestPriority priority,
                                  TimePoint now_tp) {
  if (!config_.enabled) return Status::Ok();
  tenant = resolve_tenant(tenant);

  // Admin bypasses both the ladder and the buckets: when the server is
  // shedding, `top`/stats are exactly the requests that must still work.
  if (priority == RequestPriority::kAdmin) {
    count(tenant, AdmitResult::kAdmitted);
    return Status::Ok();
  }

  const int level = shed_level_.load(std::memory_order_relaxed);
  if (static_cast<int>(priority) >= level) {
    count(tenant, AdmitResult::kShed);
    char msg[96];
    std::snprintf(msg, sizeof(msg), "shedding %s traffic (shed level %d)",
                  std::string(to_string(priority)).c_str(), level);
    return Status::Overloaded(msg);
  }

  if (config_.tenant_rate > 0 && !take_token(tenant, now_tp)) {
    count(tenant, AdmitResult::kThrottled);
    return Status::Overloaded("tenant '" + std::string(tenant) +
                              "' over rate limit");
  }

  count(tenant, AdmitResult::kAdmitted);
  return Status::Ok();
}

AdmissionController::Snapshot AdmissionController::snapshot() const {
  Snapshot snap;
  snap.enabled = config_.enabled;
  snap.shed_level = shed_level_.load(std::memory_order_relaxed);
  snap.burn_short = burn_short_.load(std::memory_order_relaxed);
  snap.inflight_fraction = inflight_fraction_.load(std::memory_order_relaxed);
  snap.admitted = admitted_total_.load(std::memory_order_relaxed);
  snap.shed = shed_total_.load(std::memory_order_relaxed);
  snap.throttled = throttled_total_.load(std::memory_order_relaxed);
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const auto& [tenant, st] : stripe.tenants) {
      TenantRow row;
      row.tenant = tenant;
      row.admitted = st.admitted;
      row.shed = st.shed;
      row.throttled = st.throttled;
      snap.tenants.push_back(std::move(row));
    }
  }
  std::sort(snap.tenants.begin(), snap.tenants.end(),
            [](const TenantRow& a, const TenantRow& b) {
              return a.tenant < b.tenant;
            });
  return snap;
}

}  // namespace tiera
