// Lock-cheap service metrics: monotonic counters, gauges, and
// log2-bucketed latency histograms with exact counts, collected in a
// MetricsRegistry that renders deterministic JSON snapshots and
// Prometheus text exposition.
//
// Design contract (docs/OBSERVABILITY.md):
//  * The hot path touches only relaxed atomics — registration happens
//    once at startup under a mutex and hands back stable pointers, so
//    publishing a sample is a handful of fetch_adds with no lock.
//  * Families and series render in registration order, so two snapshots
//    with equal values are byte-identical (scrape output is diffable).
//  * Histogram buckets are Prometheus-style cumulative with inclusive
//    upper bounds: b0 covers (..1us], b_i covers (..1us*2^i], plus a
//    final +Inf overflow bucket. `count` is derived from the buckets at
//    render time so a snapshot is always self-consistent.
//  * Under FPOPT_TELEMETRY=OFF every mutation is a real empty function
//    and callback metrics are not evaluated: snapshots keep their full
//    shape with all-zero values (validators still pass).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"

namespace fpopt::telemetry {

/// Wall-clock stopwatch for latency measurement. Lives in the telemetry
/// layer so instrumented code outside src/telemetry/ never touches a
/// clock primitive directly (fpopt_lint wall-clock rule); compiles to a
/// no-op returning 0 under FPOPT_TELEMETRY=OFF.
class StopWatch {
 public:
  StopWatch() {
    if constexpr (kEnabled) start_ = std::chrono::steady_clock::now();
  }
  [[nodiscard]] double seconds() const {
    if constexpr (kEnabled) {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    }
    return 0;
  }

 private:
  std::chrono::steady_clock::time_point start_{};
};

/// Log2-bucketed latency histogram. Thread-safe, relaxed-atomic buckets;
/// exact total count (sum of buckets) and an exact nanosecond sum.
class Histogram {
 public:
  /// Finite bucket upper bounds are 1us * 2^i for i in [0, kBuckets);
  /// the last finite bound is ~134 seconds. Index kBuckets is +Inf.
  static constexpr std::size_t kBuckets = 28;

  /// Upper bound of finite bucket `i` in nanoseconds (inclusive).
  [[nodiscard]] static constexpr std::uint64_t upper_ns(std::size_t i) {
    return std::uint64_t{1000} << i;
  }

  void observe_ns(std::uint64_t ns) {
    if constexpr (kEnabled) {
      std::size_t i = 0;
      while (i < kBuckets && ns > upper_ns(i)) ++i;
      // relaxed: commutative increments; snapshots are taken either after
      // quiescence (tests) or as monitoring reads that tolerate a sample
      // landing between the bucket and sum loads.
      buckets_[i].fetch_add(1, std::memory_order_relaxed);
      sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    }
  }
  void observe_seconds(double seconds) {
    if constexpr (kEnabled) {
      if (seconds < 0) seconds = 0;
      observe_ns(static_cast<std::uint64_t>(seconds * 1e9));
    }
  }

  /// Total observations (sum of all buckets, including overflow).
  [[nodiscard]] std::uint64_t count() const;
  /// Total observed time in seconds.
  [[nodiscard]] double sum_seconds() const;
  /// Non-cumulative per-bucket counts, kBuckets + 1 entries (last = +Inf).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets + 1> buckets_{};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// Registry of metric families. Register every series once at startup
/// (mutex-protected, returns stable pointers), then publish lock-free.
/// Callback-backed series (counter_fn/gauge_fn) read a value owned
/// elsewhere (e.g. DispatchGate queue depth) at render time.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register (or fetch) a counter series. `label_key`/`label_value`
  /// distinguish series within one family ("" = unlabeled singleton).
  Counter& counter(const std::string& family, const std::string& help,
                   const std::string& label_key = "", const std::string& label_value = "");
  Gauge& gauge(const std::string& family, const std::string& help,
               const std::string& label_key = "", const std::string& label_value = "");
  Histogram& histogram(const std::string& family, const std::string& help,
                       const std::string& label_key = "", const std::string& label_value = "");
  /// Counter whose value lives elsewhere; `fn` is called at render time.
  void counter_fn(const std::string& family, const std::string& help,
                  std::function<std::uint64_t()> fn, const std::string& label_key = "",
                  const std::string& label_value = "");
  void gauge_fn(const std::string& family, const std::string& help,
                std::function<double()> fn, const std::string& label_key = "",
                const std::string& label_value = "");

  /// Compact one-line JSON snapshot: {"fpopt_metrics":{...}}\n.
  [[nodiscard]] std::string to_json() const;
  /// Prometheus text exposition (HELP/TYPE per family, then samples).
  [[nodiscard]] std::string to_prometheus() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kCounterFn, kGaugeFn };

  struct Series {
    std::string label_key;
    std::string label_value;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<std::uint64_t()> counter_fn;
    std::function<double()> gauge_fn;
  };
  struct Family {
    std::string name;
    std::string help;
    Kind kind;
    std::vector<Series> series;
  };

  Family& family_slot(const std::string& name, const std::string& help, Kind kind);
  /// A counter (or counter_fn) series' value; zero when telemetry is off.
  static std::uint64_t counter_value(const Family& fam, const Series& s);
  /// A gauge (or gauge_fn) series' value; zero when telemetry is off.
  static double gauge_value(const Family& fam, const Series& s);
  Series& series_slot(Family& fam, const std::string& label_key, const std::string& label_value);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Family>> families_;
};

}  // namespace fpopt::telemetry
