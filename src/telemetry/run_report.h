// The per-run telemetry document: everything a run wants to report,
// rendered as deterministic JSON (--stats-json, BENCH_*.json blocks) or a
// human-readable table (--stats).
//
// Section layout and the determinism contract (docs/ALGORITHMS.md §9):
//  * config  — string key/values describing the run's knobs.
//  * counters — named u64 monotonic counters, dotted naming scheme
//    "<subsystem>.<counter>" (optimizer.total_generated, cache.hits,
//    anneal.moves, pool.tasks_run). For a serial run these are
//    byte-identical across repeat runs; for a parallel run every
//    non-pool counter equals the serial value (order-independent sums).
//  * gauges  — named doubles *derived from counters or exact run state*
//    (prune ratio, hit rate, selection error sums): same determinism as
//    the counters they derive from.
//  * phases  — scoped wall-time per phase; timing, never compared.
//  * pool    — per-worker thread-pool stats; scheduling-dependent by
//    nature, never compared.
//  * seconds — total wall time of the run.
//
// JSON schema (schema_version 1) — validated by schema.h:
//   {"fpopt_run_report": {
//      "schema_version": 1, "tool": str, "command": str,
//      "aborted": bool, "telemetry": bool,
//      "config": {str: str, ...},
//      "counters": {str: uint, ...},
//      "gauges": {str: number, ...},
//      "phases": [{"name": str, "count": uint, "seconds": number}, ...],
//      "pool": {"workers": [{"tasks_run": uint, "steals": uint,
//                            "shared_pops": uint, "idle_seconds": number}]},
//      "seconds": number}}
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.h"
#include "telemetry/telemetry.h"

namespace fpopt::telemetry {

inline constexpr int kRunReportSchemaVersion = 1;

class RunReport {
 public:
  RunReport(std::string tool, std::string command)
      : tool_(std::move(tool)), command_(std::move(command)) {}

  void set_aborted(bool aborted) { aborted_ = aborted; }
  void set_seconds(double seconds) { seconds_ = seconds; }
  void add_config(std::string key, std::string value) {
    config_.emplace_back(std::move(key), std::move(value));
  }
  void add_counter(std::string name, std::uint64_t value) {
    counters_.emplace_back(std::move(name), value);
  }
  void add_gauge(std::string name, double value) {
    gauges_.emplace_back(std::move(name), value);
  }
  void add_phase(PhaseSample sample) { phases_.push_back(std::move(sample)); }
  void add_phases(const std::vector<PhaseSample>& samples) {
    for (const PhaseSample& s : samples) phases_.push_back(s);
  }
  void set_pool(PoolStats pool) { pool_ = std::move(pool); }

  [[nodiscard]] bool aborted() const { return aborted_; }
  [[nodiscard]] const std::string& tool() const { return tool_; }
  [[nodiscard]] const std::string& command() const { return command_; }
  [[nodiscard]] const std::vector<std::pair<std::string, std::uint64_t>>& counters() const {
    return counters_;
  }

  /// The full document. `pretty` indents for files meant to be read
  /// (and ends in a newline); compact single-line form embeds inside
  /// other JSON (BENCH_*.json).
  [[nodiscard]] std::string to_json(bool pretty = true) const;

  /// The compact inner object alone (the value of "fpopt_run_report"),
  /// for documents that carry the report as a member (fpoptd responses).
  [[nodiscard]] std::string body_json() const;

  /// Human-readable table for --stats.
  [[nodiscard]] std::string to_table() const;

 private:
  void write(JsonWriter& w) const;

  std::string tool_;
  std::string command_;
  bool aborted_ = false;
  double seconds_ = 0;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
  std::vector<std::pair<std::string, double>> gauges_;
  std::vector<PhaseSample> phases_;
  PoolStats pool_;
};

}  // namespace fpopt::telemetry
