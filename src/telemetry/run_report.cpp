#include "telemetry/run_report.h"

#include <algorithm>
#include <sstream>

#include "telemetry/json.h"

namespace fpopt::telemetry {

void RunReport::write(JsonWriter& w) const {
  w.begin_object();
  w.key("schema_version").i64(kRunReportSchemaVersion);
  w.key("tool").str(tool_);
  w.key("command").str(command_);
  w.key("aborted").boolean(aborted_);
  w.key("telemetry").boolean(kEnabled);
  w.key("config").begin_object();
  for (const auto& [k, v] : config_) w.key(k).str(v);
  w.end_object();
  w.key("counters").begin_object();
  for (const auto& [k, v] : counters_) w.key(k).u64(v);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [k, v] : gauges_) w.key(k).num(v);
  w.end_object();
  w.key("phases").begin_array();
  for (const PhaseSample& p : phases_) {
    w.begin_object().key("name").str(p.name).key("count").u64(p.count);
    w.key("seconds").num(p.seconds).end_object();
  }
  w.end_array();
  w.key("pool").begin_object().key("workers").begin_array();
  for (const WorkerStats& s : pool_.workers) {
    w.begin_object().key("tasks_run").u64(s.tasks_run).key("steals").u64(s.steals);
    w.key("shared_pops").u64(s.shared_pops).key("idle_seconds").num(s.idle_seconds);
    w.end_object();
  }
  w.end_array().end_object();
  w.key("seconds").num(seconds_);
  w.end_object();
}

std::string RunReport::to_json(bool pretty) const {
  JsonWriter w(pretty);
  w.begin_object().key("fpopt_run_report");
  write(w);
  w.end_object();
  std::string text = std::move(w).text();
  if (pretty) text += '\n';
  return text;
}

std::string RunReport::body_json() const {
  JsonWriter w;
  write(w);
  return std::move(w).text();
}

std::string RunReport::to_table() const {
  std::ostringstream s;
  s << "run report (" << tool_ << ' ' << command_ << ")"
    << (aborted_ ? "  ** ABORTED **" : "") << '\n';
  if (!kEnabled) s << "  [built with FPOPT_TELEMETRY=OFF: timers and pool stats are off]\n";

  std::size_t width = 12;
  for (const auto& [k, _] : counters_) width = std::max(width, k.size());
  for (const auto& [k, _] : gauges_) width = std::max(width, k.size());

  if (!config_.empty()) {
    s << "  config:\n";
    for (const auto& [k, v] : config_) {
      s << "    " << k << std::string(width > k.size() ? width - k.size() : 0, ' ') << "  "
        << v << '\n';
    }
  }
  s << "  counters:\n";
  for (const auto& [k, v] : counters_) {
    s << "    " << k << std::string(width > k.size() ? width - k.size() : 0, ' ') << "  " << v
      << '\n';
  }
  if (!gauges_.empty()) {
    s << "  gauges:\n";
    for (const auto& [k, v] : gauges_) {
      s << "    " << k << std::string(width > k.size() ? width - k.size() : 0, ' ') << "  "
        << json_number(v) << '\n';
    }
  }
  if (!phases_.empty()) {
    s << "  phases:\n";
    for (const PhaseSample& p : phases_) {
      s << "    " << p.name << std::string(width > p.name.size() ? width - p.name.size() : 0, ' ')
        << "  " << json_number(p.seconds) << " s (" << p.count
        << (p.count == 1 ? " scope)" : " scopes)") << '\n';
    }
  }
  if (!pool_.workers.empty()) {
    s << "  pool:\n";
    for (std::size_t i = 0; i < pool_.workers.size(); ++i) {
      const WorkerStats& w = pool_.workers[i];
      s << "    " << (i + 1 == pool_.workers.size() ? "external" : "worker " + std::to_string(i))
        << ": " << w.tasks_run << " tasks, " << w.steals << " steals, " << w.shared_pops
        << " shared pops, idle " << json_number(w.idle_seconds) << " s\n";
    }
  }
  s << "  seconds: " << json_number(seconds_) << '\n';
  return s.str();
}

}  // namespace fpopt::telemetry
