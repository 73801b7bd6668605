#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>

#include "floorplan/serialize.h"
#include "telemetry/trace_analysis.h"
#include "workload/rng.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile(v, 0.5);
}

std::size_t beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto at = static_cast<std::size_t>(std::floor(q * static_cast<double>(n - 1)));
  return n - 1 - at;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

unsigned cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

std::size_t op_count(double seconds, double measured_ops_per_s, std::size_t min_ops) {
  const auto n = static_cast<std::size_t>(std::llround(seconds * measured_ops_per_s));
  return std::max(n, min_ops);
}

void RunResult::tally(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failed <= 5) std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

bool LayerRollup::add(const fpopt::telemetry::TraceSession& session, std::size_t ops,
                      std::string& error) {
  fpopt::telemetry::LoadedTrace trace;
  if (!fpopt::telemetry::load_trace(session.to_json(), trace, error)) return false;
  dropped_ += session.dropped_events();
  ops_ += ops;

  std::map<int, std::vector<const fpopt::telemetry::LoadedEvent*>> spans_by_thread;
  std::set<int> op_threads;
  for (const fpopt::telemetry::LoadedEvent& e : trace.events) {
    count_[e.name] += 1;
    if (e.instant) continue;
    spans_by_thread[e.tid].push_back(&e);
    if (e.name == "bench.op") {
      op_threads.insert(e.tid);
      op_wall_ms_ += e.dur_us / 1000.0;
    }
  }

  struct Open {
    const fpopt::telemetry::LoadedEvent* event;
    double end_us;
    double child_us = 0;
  };
  // Timestamps are exported in microseconds with sub-ns digits; a sibling
  // that starts where the previous one ended may read a rounding step
  // earlier than ts + dur.
  constexpr double kTouchUs = 1e-4;
  for (auto& [tid, spans] : spans_by_thread) {
    const bool op_thread = op_threads.count(tid) != 0;
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    std::vector<Open> stack;
    const auto close = [&](const Open& o) {
      const double self = (o.event->dur_us - o.child_us) / 1000.0;
      self_ms_[o.event->name] += self;
      if (op_thread) op_self_ms_[o.event->name] += self;
    };
    for (const auto* e : spans) {
      while (!stack.empty() && stack.back().end_us <= e->ts_us + kTouchUs) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().child_us += e->dur_us;
      if (op_thread) op_total_ms_[e->name] += e->dur_us / 1000.0;
      stack.push_back({e, e->ts_us + e->dur_us});
    }
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) close(*it);
  }
  return true;
}

namespace {

double lookup(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

// Which layer each span's self time belongs to. Library spans first, then
// the driver's own spans around public calls; "bench.op" self time is the
// residue no layer call covers.
const std::map<std::string, std::string>& span_layers() {
  static const std::map<std::string, std::string> kMap = {
      {"restructure", "floorplan"},
      {"bench.parse_floorplan", "floorplan"},
      {"evaluate", "optimize"},
      {"eval_node", "optimize"},
      {"bench.optimize_floorplan", "optimize"},
      {"bench.trace_command_placement", "optimize"},
      {"cspp", "core"},
      {"cspp_monge", "core"},
      {"reduce_l_set", "core"},
      {"serve_pass", "cache"},
      {"publish_pass", "cache"},
      {"bench.epoch", "cache"},
      {"bench.random_move", "topology"},
      {"bench.to_tree", "topology"},
      {"bench.optimize_for_command", "io"},
      {"bench.handle_frame", "service"},
      {"bench.op", "residue"},
  };
  return kMap;
}

}  // namespace

double LayerRollup::self_ms(const std::string& name) const { return lookup(self_ms_, name); }
double LayerRollup::op_total_ms(const std::string& name) const {
  return lookup(op_total_ms_, name);
}
double LayerRollup::count(const std::string& name) const { return lookup(count_, name); }

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"floorplan.parse_ms", "ms"},
      {"floorplan.restructure_ms", "ms"},
      {"optimize.eval_node_self_ms", "ms"},
      {"optimize.evaluate_self_ms", "ms"},
      {"optimize.place_ms", "ms"},
      {"optimize.generated", "count"},
      {"optimize.nodes_evaluated", "count"},
      {"optimize.prune_ratio", "fraction"},
      {"core.cspp_ms", "ms"},
      {"core.reduce_l_set_ms", "ms"},
      {"core.cspp_calls", "count"},
      {"core.r_selection_calls", "count"},
      {"core.l_selection_calls", "count"},
      {"core.selected_away", "count"},
      {"cache.hit_rate", "fraction"},
      {"cache.serve_ms", "ms"},
      {"cache.publish_ms", "ms"},
      {"cache.insertions", "count"},
      {"cache.evictions", "count"},
      {"cache.rollback_discards", "count"},
      {"cache.peak_mb", "MiB"},
      {"topology.move_ms", "ms"},
      {"topology.accept_frac", "fraction"},
      {"runtime.steals", "count"},
      {"runtime.shared_pops", "count"},
      {"io.execute_ms", "ms"},
      {"io.self_ms", "ms"},
      {"service.decode_ms", "ms"},
      {"service.encode_ms", "ms"},
      {"service.execute_ms", "ms"},
      {"service.queue_wait_ms", "ms"},
      {"service.handle_self_ms", "ms"},
      {"trace.residue_ms", "ms"},
      {"trace.dropped_events", "count"},
      {"trace.overhead_frac", "fraction"},
  };
  return kNames;
}

void rollup_layers(const LayerRollup& roll, RunResult& r) {
  const double ops = static_cast<double>(std::max<std::size_t>(roll.ops(), 1));
  const auto per_op = [&](const char* span) { return roll.self_ms(span) / ops; };
  const auto count = [&](const char* name) { return roll.count(name) / ops; };
  auto& v = r.layers;
  v["floorplan.restructure_ms"] = per_op("restructure");
  v["optimize.evaluate_self_ms"] = per_op("evaluate");
  v["optimize.eval_node_self_ms"] = per_op("eval_node");
  v["optimize.nodes_evaluated"] = count("eval_node");
  v["core.cspp_ms"] = per_op("cspp") + per_op("cspp_monge");
  v["core.reduce_l_set_ms"] = per_op("reduce_l_set");
  v["core.cspp_calls"] = count("cspp") + count("cspp_monge");
  v["cache.serve_ms"] = per_op("serve_pass");
  v["cache.publish_ms"] = per_op("publish_pass");
  v["runtime.steals"] = count("steal");
  v["runtime.shared_pops"] = count("shared_pop");
  v["trace.residue_ms"] = per_op("bench.op");
  v["trace.dropped_events"] = static_cast<double>(roll.dropped());

  static const std::vector<std::string> kRows = {"floorplan", "optimize", "core",
                                                 "cache",     "topology", "runtime",
                                                 "io",        "service",  "residue"};
  std::map<std::string, double> rows;
  for (const auto& [span, ms] : roll.op_self()) {
    const auto it = span_layers().find(span);
    rows[it == span_layers().end() ? "unattributed" : it->second] += ms / ops;
  }
  r.wall_rows.clear();
  for (const std::string& layer : kRows) r.wall_rows.emplace_back(layer, lookup(rows, layer));
  if (rows.count("unattributed") != 0) {
    r.wall_rows.emplace_back("unattributed", rows["unattributed"]);
  }
  r.op_wall_ms = roll.op_wall_ms() / ops;
}

std::size_t leaf_impls(const std::vector<fpopt::Module>& modules) {
  std::size_t n = 0;
  for (const fpopt::Module& m : modules) n += m.impls.size();
  return n;
}

void stats_layers(const std::vector<fpopt::OptimizerStats>& stats,
                  const std::vector<std::size_t>& leaf_impls, RunResult& r) {
  const double n = static_cast<double>(std::max<std::size_t>(stats.size(), 1));
  double generated = 0;
  double kept = 0;
  auto& v = r.layers;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const fpopt::OptimizerStats& s = stats[i];
    generated += static_cast<double>(s.total_generated);
    kept += static_cast<double>(s.peak_stored) - static_cast<double>(leaf_impls[i]);
    v["core.r_selection_calls"] += static_cast<double>(s.r_selection_calls) / n;
    v["core.l_selection_calls"] += static_cast<double>(s.l_selection_calls) / n;
    v["core.selected_away"] += static_cast<double>(s.r_selected_away + s.l_selected_away) / n;
  }
  v["optimize.generated"] = generated / n;
  v["optimize.prune_ratio"] = generated > 0 ? 1.0 - kept / generated : 0.0;
}

void move_wall_time(RunResult& r, const std::string& from, const std::string& to, double ms) {
  for (auto& [layer, value] : r.wall_rows) {
    if (layer == from) value -= ms;
    if (layer == to) value += ms;
  }
}

namespace {

std::unique_ptr<fpopt::FloorplanNode> clone(const fpopt::FloorplanNode& node) {
  auto copy = std::make_unique<fpopt::FloorplanNode>();
  copy->kind = node.kind;
  copy->dir = node.dir;
  copy->chirality = node.chirality;
  copy->module_id = node.module_id;
  for (const auto& child : node.children) copy->children.push_back(clone(*child));
  return copy;
}

template <class T>
void shuffle(std::vector<T>& v, fpopt::Pcg32& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(static_cast<std::uint32_t>(i))]);
  }
}

}  // namespace

InputTexts seeded_inputs(const fpopt::FloorplanTree& tree, std::uint64_t seed) {
  fpopt::Pcg32 rng(seed, 0x7065726662656e63ULL);
  std::vector<fpopt::Module> modules = tree.modules();
  for (std::size_t i = 0; i < modules.size(); ++i) {
    modules[i].name = "b" + std::to_string(rng.below(1u << 20)) + "_" + std::to_string(i);
  }
  std::vector<std::size_t> order(modules.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  shuffle(order, rng);
  std::string library;
  for (const std::size_t id : order) {
    std::vector<fpopt::RectImpl> impls(modules[id].impls.begin(), modules[id].impls.end());
    shuffle(impls, rng);
    library += modules[id].name;
    for (const fpopt::RectImpl& r : impls) {
      library += ' ' + std::to_string(r.w) + 'x' + std::to_string(r.h);
    }
    library += '\n';
  }
  const fpopt::FloorplanTree renamed(std::move(modules), clone(tree.root()));
  return {fpopt::to_topology_string(renamed), std::move(library)};
}

double overhead_frac(std::vector<double> traced_ms, std::vector<double> untraced_ms) {
  const double base = median(std::move(untraced_ms));
  return base > 0 ? median(std::move(traced_ms)) / base - 1.0 : 0.0;
}

}  // namespace perfbench
