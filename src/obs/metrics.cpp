#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace tiera {

namespace {

const double kQuantiles[] = {0.5, 0.9, 0.95, 0.99};

// Prometheus label values escape backslash, double quote, and newline.
std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

// Canonical rendering of a label set: `tier="m1",op="put"`, keys sorted.
std::string render_labels(MetricsRegistry::Labels labels) {
  std::sort(labels.begin(), labels.end());
  std::string out;
  for (const auto& [key, value] : labels) {
    if (!out.empty()) out += ',';
    out += key;
    out += "=\"";
    out += escape_label_value(value);
    out += '"';
  }
  return out;
}

// `name{labels}` or `name{labels,extra}`; plain `name` when both empty.
std::string series_name(const std::string& name, const std::string& labels,
                        const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return name;
  std::string out = name;
  out += '{';
  out += labels;
  if (!labels.empty() && !extra.empty()) out += ',';
  out += extra;
  out += '}';
  return out;
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

MetricsRegistry::Series& MetricsRegistry::get_or_create(Kind kind,
                                                        std::string_view name,
                                                        const Labels& labels) {
  const std::string label_key = render_labels(labels);
  std::lock_guard lock(mu_);
  auto [fam_it, fam_created] = families_.try_emplace(std::string(name));
  Family& family = fam_it->second;
  if (fam_created) family.kind = kind;
  if (family.kind != kind) {
    // Kind conflict: a bug in instrumentation code, but a serving instance
    // must not crash — hand back a detached metric instead.
    TIERA_LOG(kError, "obs")
        << "metric '" << std::string(name) << "' re-registered with a "
        << "different kind; returning detached metric";
    static Series detached = [] {
      Series s;
      s.counter = std::make_unique<Counter>();
      s.gauge = std::make_unique<Gauge>();
      s.histogram = std::make_unique<LatencyHistogram>();
      return s;
    }();
    return detached;
  }
  auto [it, created] = family.series.try_emplace(label_key);
  if (created) {
    switch (kind) {
      case Kind::kCounter: it->second.counter = std::make_unique<Counter>(); break;
      case Kind::kGauge: it->second.gauge = std::make_unique<Gauge>(); break;
      case Kind::kHistogram:
        it->second.histogram = std::make_unique<LatencyHistogram>();
        break;
    }
  }
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name, const Labels& labels) {
  return *get_or_create(Kind::kCounter, name, labels).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  return *get_or_create(Kind::kGauge, name, labels).gauge;
}

LatencyHistogram& MetricsRegistry::histogram(std::string_view name,
                                             const Labels& labels) {
  return *get_or_create(Kind::kHistogram, name, labels).histogram;
}

std::size_t MetricsRegistry::series_count() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& [name, family] : families_) n += family.series.size();
  return n;
}

MetricsRegistry::CollectorId MetricsRegistry::add_collector(
    std::function<void()> fn) {
  std::lock_guard lock(collectors_mu_);
  const CollectorId id = next_collector_id_++;
  collectors_.emplace(id, std::move(fn));
  return id;
}

void MetricsRegistry::remove_collector(CollectorId id) {
  std::lock_guard lock(collectors_mu_);
  collectors_.erase(id);
}

void MetricsRegistry::collect() const {
  std::lock_guard lock(collectors_mu_);
  for (const auto& [id, fn] : collectors_) fn();
}

std::string MetricsRegistry::render_prometheus() const {
  collect();
  std::lock_guard lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    out += "# TYPE ";
    out += name;
    switch (family.kind) {
      case Kind::kCounter: out += " counter\n"; break;
      case Kind::kGauge: out += " gauge\n"; break;
      case Kind::kHistogram: out += " summary\n"; break;
    }
    for (const auto& [labels, series] : family.series) {
      switch (family.kind) {
        case Kind::kCounter:
          out += series_name(name, labels) + ' ' +
                 std::to_string(series.counter->value()) + '\n';
          break;
        case Kind::kGauge:
          out += series_name(name, labels) + ' ' +
                 format_value(series.gauge->value()) + '\n';
          break;
        case Kind::kHistogram: {
          const LatencyHistogram& hist = *series.histogram;
          for (const double q : kQuantiles) {
            out += series_name(name, labels,
                               "quantile=\"" + format_value(q) + "\"") +
                   ' ' + format_value(hist.percentile_ms(q)) + '\n';
          }
          out += series_name(name + "_sum", labels) + ' ' +
                 format_value(hist.sum_ms()) + '\n';
          out += series_name(name + "_count", labels) + ' ' +
                 std::to_string(hist.count()) + '\n';
          break;
        }
      }
    }
  }
  return out;
}

std::string MetricsRegistry::render_text() const {
  collect();
  std::lock_guard lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    for (const auto& [labels, series] : family.series) {
      out += series_name(name, labels) + " = ";
      switch (family.kind) {
        case Kind::kCounter:
          out += std::to_string(series.counter->value());
          break;
        case Kind::kGauge:
          out += format_value(series.gauge->value());
          break;
        case Kind::kHistogram:
          out += series.histogram->summary();
          break;
      }
      out += '\n';
    }
  }
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace tiera
