#include "telemetry/metrics.h"

#include <cassert>
#include <sstream>
#include <utility>

#include "telemetry/json.h"

namespace fpopt::telemetry {
namespace {

/// Bucket upper bound in seconds, rendered once so JSON and Prometheus
/// agree byte-for-byte on the `le` values.
std::string le_seconds(std::size_t i) {
  return json_number(static_cast<double>(Histogram::upper_ns(i)) * 1e-9);
}

}  // namespace

std::uint64_t Histogram::count() const {
  std::uint64_t n = 0;
  for (const auto& b : buckets_) {
    // relaxed: monitoring read; see observe_ns.
    n += b.load(std::memory_order_relaxed);
  }
  return n;
}

double Histogram::sum_seconds() const {
  // relaxed: monitoring read; see observe_ns.
  return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) * 1e-9;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(kBuckets + 1, 0);
  for (std::size_t i = 0; i <= kBuckets; ++i) {
    // relaxed: monitoring read; see observe_ns.
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

MetricsRegistry::Family& MetricsRegistry::family_slot(const std::string& name,
                                                      const std::string& help, Kind kind) {
  for (auto& fam : families_) {
    if (fam->name == name) {
      assert(fam->kind == kind && "metric family re-registered with a different type");
      return *fam;
    }
  }
  families_.push_back(std::make_unique<Family>());
  Family& fam = *families_.back();
  fam.name = name;
  fam.help = help;
  fam.kind = kind;
  return fam;
}

MetricsRegistry::Series& MetricsRegistry::series_slot(Family& fam, const std::string& label_key,
                                                      const std::string& label_value) {
  for (Series& s : fam.series) {
    if (s.label_key == label_key && s.label_value == label_value) return s;
  }
  fam.series.emplace_back();
  Series& s = fam.series.back();
  s.label_key = label_key;
  s.label_value = label_value;
  return s;
}

Counter& MetricsRegistry::counter(const std::string& family, const std::string& help,
                                  const std::string& label_key, const std::string& label_value) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& s = series_slot(family_slot(family, help, Kind::kCounter), label_key, label_value);
  if (!s.counter) s.counter = std::make_unique<Counter>();
  return *s.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& family, const std::string& help,
                              const std::string& label_key, const std::string& label_value) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& s = series_slot(family_slot(family, help, Kind::kGauge), label_key, label_value);
  if (!s.gauge) s.gauge = std::make_unique<Gauge>();
  return *s.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& family, const std::string& help,
                                      const std::string& label_key,
                                      const std::string& label_value) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& s = series_slot(family_slot(family, help, Kind::kHistogram), label_key, label_value);
  if (!s.histogram) s.histogram = std::make_unique<Histogram>();
  return *s.histogram;
}

void MetricsRegistry::counter_fn(const std::string& family, const std::string& help,
                                 std::function<std::uint64_t()> fn, const std::string& label_key,
                                 const std::string& label_value) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& s = series_slot(family_slot(family, help, Kind::kCounterFn), label_key, label_value);
  s.counter_fn = std::move(fn);
}

void MetricsRegistry::gauge_fn(const std::string& family, const std::string& help,
                               std::function<double()> fn, const std::string& label_key,
                               const std::string& label_value) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& s = series_slot(family_slot(family, help, Kind::kGaugeFn), label_key, label_value);
  s.gauge_fn = std::move(fn);
}

namespace {

/// Callback metrics read state owned by other subsystems; when telemetry
/// is compiled out the whole layer must be inert, so render zeros.
std::uint64_t eval_counter_fn(const std::function<std::uint64_t()>& fn) {
  if constexpr (!kEnabled) return 0;
  return fn ? fn() : 0;
}
double eval_gauge_fn(const std::function<double()>& fn) {
  if constexpr (!kEnabled) return 0;
  return fn ? fn() : 0;
}

}  // namespace

std::uint64_t MetricsRegistry::counter_value(const Family& fam, const Series& s) {
  return fam.kind == Kind::kCounter ? s.counter->get() : eval_counter_fn(s.counter_fn);
}

double MetricsRegistry::gauge_value(const Family& fam, const Series& s) {
  return fam.kind == Kind::kGauge ? s.gauge->get() : eval_gauge_fn(s.gauge_fn);
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.begin_object().key("fpopt_metrics").begin_object();
  w.key("schema_version").u64(1).key("telemetry").boolean(kEnabled);
  // One pass over the families per section, in registration order.
  const struct {
    const char* name;
    Kind a;
    Kind b;
  } kSections[] = {{"counters", Kind::kCounter, Kind::kCounterFn},
                   {"gauges", Kind::kGauge, Kind::kGaugeFn},
                   {"histograms", Kind::kHistogram, Kind::kHistogram}};
  for (const auto& section : kSections) {
    w.key(section.name).begin_array();
    for (const auto& fam_ptr : families_) {
      const Family& fam = *fam_ptr;
      if (fam.kind != section.a && fam.kind != section.b) continue;
      w.begin_object().key("name").str(fam.name).key("help").str(fam.help);
      w.key("series").begin_array();
      for (const Series& s : fam.series) {
        w.begin_object().key("labels").begin_object();
        if (!s.label_key.empty()) w.key(s.label_key).str(s.label_value);
        w.end_object();
        if (fam.kind == Kind::kHistogram) {
          w.key("buckets").begin_array();
          std::uint64_t cumulative = 0;
          const std::vector<std::uint64_t> buckets = s.histogram->bucket_counts();
          for (std::size_t b = 0; b < buckets.size(); ++b) {
            cumulative += buckets[b];
            w.begin_object().key("le");
            if (b == Histogram::kBuckets) {
              w.str("+Inf");
            } else {
              w.raw(le_seconds(b));
            }
            w.key("count").u64(cumulative).end_object();
          }
          w.end_array().key("count").u64(cumulative);
          w.key("sum_seconds").num(s.histogram->sum_seconds());
        } else if (section.a == Kind::kCounter) {
          w.key("value").u64(counter_value(fam, s));
        } else {
          w.key("value").num(gauge_value(fam, s));
        }
        w.end_object();
      }
      w.end_array().end_object();
    }
    w.end_array();
  }
  w.end_object().end_object();
  return std::move(w).text() + "\n";
}

std::string MetricsRegistry::to_prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  auto label_block = [](const Series& s) {
    if (s.label_key.empty()) return std::string();
    return "{" + s.label_key + "=" + json_quote(s.label_value) + "}";
  };
  for (const auto& fam_ptr : families_) {
    const Family& fam = *fam_ptr;
    const bool is_counter = fam.kind == Kind::kCounter || fam.kind == Kind::kCounterFn;
    const bool is_histogram = fam.kind == Kind::kHistogram;
    out << "# HELP " << fam.name << " " << fam.help << "\n";
    out << "# TYPE " << fam.name << " "
        << (is_histogram ? "histogram" : (is_counter ? "counter" : "gauge")) << "\n";
    for (const Series& s : fam.series) {
      if (is_histogram) {
        const std::vector<std::uint64_t> buckets = s.histogram->bucket_counts();
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < buckets.size(); ++b) {
          cumulative += buckets[b];
          out << fam.name << "_bucket{";
          if (!s.label_key.empty()) out << s.label_key << "=" << json_quote(s.label_value) << ",";
          out << "le=";
          if (b == Histogram::kBuckets) {
            out << "\"+Inf\"";
          } else {
            out << "\"" << le_seconds(b) << "\"";
          }
          out << "} " << cumulative << "\n";
        }
        out << fam.name << "_sum" << label_block(s) << " " << json_number(s.histogram->sum_seconds())
            << "\n";
        out << fam.name << "_count" << label_block(s) << " " << cumulative << "\n";
      } else if (is_counter) {
        out << fam.name << label_block(s) << " " << counter_value(fam, s) << "\n";
      } else {
        out << fam.name << label_block(s) << " " << json_number(gauge_value(fam, s)) << "\n";
      }
    }
  }
  return out.str();
}

}  // namespace fpopt::telemetry
