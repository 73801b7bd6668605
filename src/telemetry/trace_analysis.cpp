#include "telemetry/trace_analysis.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "telemetry/schema.h"

namespace fpopt::telemetry {
namespace {

/// otherData.dropped_events: a decimal count that fits in 64 bits.
std::optional<std::uint64_t> parse_count(const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto res = std::from_chars(text.data(), end, value);
  if (text.empty() || res.ec != std::errc() || res.ptr != end) return std::nullopt;
  return value;
}

std::string event_label(std::size_t index, const JsonValue& e) {
  const JsonValue* name = e.find("name");
  const std::string at = "traceEvents[" + std::to_string(index) + "]";
  return name != nullptr && name->is_string() ? at + " (" + name->string + ")" : at;
}

/// Multiset key for the determinism contract: everything an event
/// promises to reproduce across runs, nothing it measures.
struct Identity {
  std::string cat;
  std::string name;
  std::uint64_t id;
  std::uint64_t arg;

  bool operator<(const Identity& o) const {
    if (cat != o.cat) return cat < o.cat;
    if (name != o.name) return name < o.name;
    if (id != o.id) return id < o.id;
    return arg < o.arg;
  }
};

std::map<Identity, std::uint64_t> identity_multiset(const LoadedTrace& trace) {
  std::map<Identity, std::uint64_t> out;
  for (const LoadedEvent& e : trace.events) {
    if (e.cat == "pool") continue;
    ++out[Identity{e.cat, e.name, e.id, e.arg}];
  }
  return out;
}

std::string identity_str(const Identity& id) {
  std::ostringstream out;
  out << id.cat << "/" << id.name << " id=" << id.id << " arg=" << id.arg;
  return out.str();
}

}  // namespace

bool validate_trace_document(const JsonValue& doc, std::vector<std::string>& errors) {
  SchemaCheck c;
  if (!c.is(doc, Want::kObject, "top level")) {
    errors.insert(errors.end(), c.errors.begin(), c.errors.end());
    return false;
  }
  if (const JsonValue* other = c.member(doc, "otherData", Want::kObject, "")) {
    for (const auto& [key, value] : other->object) {
      if (key != "dropped_events") c.is(value, Want::kString, "otherData." + key);
    }
    if (const JsonValue* dropped =
            c.member(*other, "dropped_events", Want::kString, "otherData")) {
      c.require(parse_count(dropped->string).has_value(),
                "otherData.dropped_events must be a decimal count that fits in 64 bits");
    }
  }
  const JsonValue* events = c.member(doc, "traceEvents", Want::kArray, "");
  for (std::size_t i = 0; events != nullptr && i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    const std::string at = event_label(i, e);
    if (!c.is(e, Want::kObject, at)) continue;
    const JsonValue* ph = c.member(e, "ph", Want::kString, at);
    if (ph == nullptr) continue;
    c.member(e, "name", Want::kString, at);
    c.member(e, "pid", Want::kNonNegInteger, at);
    c.member(e, "tid", Want::kNonNegInteger, at);
    if (ph->string == "M") continue;  // metadata events carry no timestamps
    if (!c.require(ph->string == "X" || ph->string == "i",
                   at + ".ph \"" + ph->string + "\" is unsupported")) {
      continue;
    }
    c.member(e, "ts", Want::kNonNegNumber, at);
    if (ph->string == "X") c.member(e, "dur", Want::kNonNegNumber, at);
    c.member(e, "cat", Want::kString, at);
    if (const JsonValue* args = c.member(e, "args", Want::kObject, at)) {
      c.member(*args, "id", Want::kNonNegInteger, at + ".args");
    }
  }
  errors.insert(errors.end(), c.errors.begin(), c.errors.end());
  return c.errors.empty();
}

bool load_trace(const std::string& text, LoadedTrace& out, std::string& error) {
  JsonParseResult parsed = parse_json(text);
  if (!parsed.value.has_value()) {
    error = "parse error: " + parsed.error;
    return false;
  }
  const JsonValue& doc = *parsed.value;
  std::vector<std::string> errors;
  if (!validate_trace_document(doc, errors)) {
    error.clear();
    for (const std::string& e : errors) error += (error.empty() ? "" : "\n") + e;
    return false;
  }

  out = LoadedTrace{};
  for (const auto& [key, value] : doc.find("otherData")->object) {
    out.other_data.emplace_back(key, value.string);
    if (key == "dropped_events") out.dropped_events = *parse_count(value.string);
  }
  for (const JsonValue& e : doc.find("traceEvents")->array) {
    const std::string& ph = e.find("ph")->string;
    if (ph == "M") continue;
    LoadedEvent ev;
    ev.name = e.find("name")->string;
    ev.cat = e.find("cat")->string;
    ev.instant = ph == "i";
    ev.tid = static_cast<int>(e.find("tid")->integer);
    ev.ts_us = e.find("ts")->number;
    if (const JsonValue* dur = e.find("dur"); dur != nullptr) ev.dur_us = dur->number;
    const JsonValue* args = e.find("args");
    ev.id = static_cast<std::uint64_t>(args->find("id")->integer);
    if (const JsonValue* arg = args->find("arg");
        arg != nullptr && arg->is_integer && arg->integer >= 0) {
      ev.arg = static_cast<std::uint64_t>(arg->integer);
    }
    if (const JsonValue* left = args->find("left"); left != nullptr && left->is_number()) {
      ev.left = left->integer;
    }
    if (const JsonValue* right = args->find("right"); right != nullptr && right->is_number()) {
      ev.right = right->integer;
    }
    out.events.push_back(std::move(ev));
  }
  return true;
}

std::vector<FlameRow> flame_rows(const LoadedTrace& trace) {
  // Group spans per thread and recover nesting by interval containment:
  // within one thread, spans sorted by (start asc, end desc) visit every
  // parent before its children, so a stack of open intervals yields the
  // directly-enclosing span for self-time accounting.
  struct Interval {
    double start, end;
    std::size_t row;
  };
  std::map<std::pair<std::string, std::string>, FlameRow> rows;
  auto row_of = [&](const LoadedEvent& e) -> FlameRow& {
    FlameRow& row = rows[{e.cat, e.name}];
    if (row.name.empty()) {
      row.cat = e.cat;
      row.name = e.name;
    }
    return row;
  };

  std::map<int, std::vector<const LoadedEvent*>> by_tid;
  for (const LoadedEvent& e : trace.events) {
    if (e.instant) {
      ++row_of(e).count;
      continue;
    }
    by_tid[e.tid].push_back(&e);
  }

  // Stable row addresses are needed below, so materialize rows for every
  // span name first (std::map nodes never move).
  for (auto& [tid, spans] : by_tid) {
    for (const LoadedEvent* e : spans) row_of(*e);
  }

  for (auto& [tid, spans] : by_tid) {
    std::sort(spans.begin(), spans.end(), [](const LoadedEvent* a, const LoadedEvent* b) {
      const double a_end = a->ts_us + a->dur_us;
      const double b_end = b->ts_us + b->dur_us;
      if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
      return a_end > b_end;
    });
    struct Open {
      double end;
      FlameRow* row;
    };
    std::vector<Open> stack;
    for (const LoadedEvent* e : spans) {
      const double end = e->ts_us + e->dur_us;
      while (!stack.empty() && stack.back().end <= e->ts_us) {
        stack.pop_back();
      }
      FlameRow& row = row_of(*e);
      ++row.count;
      row.total_us += e->dur_us;
      row.self_us += e->dur_us;
      if (!stack.empty()) {
        // Attribute this span's extent as child time of its parent.
        stack.back().row->self_us -= e->dur_us;
      }
      stack.push_back(Open{end, &row});
    }
  }

  std::vector<FlameRow> out;
  out.reserve(rows.size());
  for (auto& [key, row] : rows) out.push_back(std::move(row));
  std::sort(out.begin(), out.end(), [](const FlameRow& a, const FlameRow& b) {
    if (a.self_us != b.self_us) return a.self_us > b.self_us;
    if (a.total_us != b.total_us) return a.total_us > b.total_us;
    if (a.cat != b.cat) return a.cat < b.cat;
    return a.name < b.name;
  });
  return out;
}

CriticalPathResult critical_path(const LoadedTrace& trace) {
  CriticalPathResult result;

  struct NodeSpan {
    double dur_us = 0;
    double start_us = 0;
    std::int64_t left = -1;
    std::int64_t right = -1;
  };
  std::unordered_map<std::uint64_t, NodeSpan> nodes;
  double min_start = 0, max_end = 0;
  bool any = false;
  for (const LoadedEvent& e : trace.events) {
    if (e.cat != "node" || e.instant) continue;
    auto [it, inserted] = nodes.emplace(e.id, NodeSpan{e.dur_us, e.ts_us, e.left, e.right});
    if (!inserted) {
      result.error =
          "duplicate node id " + std::to_string(e.id) +
          " — trace covers more than one optimize run; critpath needs a single-run trace";
      return result;
    }
    const double end = e.ts_us + e.dur_us;
    if (!any || e.ts_us < min_start) min_start = e.ts_us;
    if (!any || end > max_end) max_end = end;
    any = true;
  }
  if (!any) {
    result.error = "no node-category spans in trace (was it captured with telemetry on?)";
    return result;
  }

  // cp(v) = dur(v) + max(cp(left), cp(right)), memoized with an explicit
  // stack (T' can be arbitrarily skewed; no recursion).
  std::unordered_map<std::uint64_t, double> cp;
  cp.reserve(nodes.size());
  auto compute_cp = [&](std::uint64_t root) {
    std::vector<std::uint64_t> stack{root};
    while (!stack.empty()) {
      const std::uint64_t id = stack.back();
      if (cp.count(id) != 0) {
        stack.pop_back();
        continue;
      }
      const auto it = nodes.find(id);
      if (it == nodes.end()) {
        // A child referenced but never traced (dropped event): treat as
        // zero-cost so the path stays a lower bound.
        cp[id] = 0;
        stack.pop_back();
        continue;
      }
      const NodeSpan& node = it->second;
      bool ready = true;
      double best_child = 0;
      for (const std::int64_t child : {node.left, node.right}) {
        if (child < 0) continue;
        const auto child_cp = cp.find(static_cast<std::uint64_t>(child));
        if (child_cp == cp.end()) {
          stack.push_back(static_cast<std::uint64_t>(child));
          ready = false;
        } else {
          best_child = std::max(best_child, child_cp->second);
        }
      }
      if (!ready) continue;
      cp[id] = node.dur_us + best_child;
      stack.pop_back();
    }
  };
  // Iterate node ids in sorted order: cp values are order-independent
  // (memoized pure function), but the argmax below breaks ties by visit
  // order, and the winning chain is printed — unordered_map order here
  // would leak into the report (rule unordered-iter, docs/LINT.md).
  std::vector<std::uint64_t> sorted_ids;
  sorted_ids.reserve(nodes.size());
  for (auto it = nodes.begin(); it != nodes.end(); ++it) {  // FPOPT-LINT-OK(unordered-iter): collects keys for an explicit sort two lines down
    sorted_ids.push_back(it->first);
  }
  std::sort(sorted_ids.begin(), sorted_ids.end());
  for (const std::uint64_t id : sorted_ids) compute_cp(id);

  std::uint64_t best_id = 0;
  double best = -1;
  for (const std::uint64_t id : sorted_ids) {
    if (cp[id] > best) {
      best = cp[id];
      best_id = id;
    }
  }
  result.path_us = best;
  result.makespan_us = max_end - min_start;

  // Walk the argmax chain root-first.
  std::int64_t cursor = static_cast<std::int64_t>(best_id);
  while (cursor >= 0) {
    const std::uint64_t id = static_cast<std::uint64_t>(cursor);
    result.chain.push_back(id);
    const auto it = nodes.find(id);
    if (it == nodes.end()) break;
    std::int64_t next = -1;
    double next_cp = -1;
    for (const std::int64_t child : {it->second.left, it->second.right}) {
      if (child < 0) continue;
      const double child_cp = cp.count(static_cast<std::uint64_t>(child)) != 0
                                  ? cp[static_cast<std::uint64_t>(child)]
                                  : 0;
      if (child_cp > next_cp) {
        next_cp = child_cp;
        next = child;
      }
    }
    cursor = next;
  }
  result.ok = true;
  return result;
}

TraceDiff diff_traces(const LoadedTrace& a, const LoadedTrace& b) {
  TraceDiff diff;
  const std::map<Identity, std::uint64_t> ma = identity_multiset(a);
  const std::map<Identity, std::uint64_t> mb = identity_multiset(b);

  auto report = [&](const Identity& id, std::uint64_t count_a, std::uint64_t count_b) {
    std::ostringstream line;
    line << identity_str(id) << ": " << count_a << " vs " << count_b;
    diff.differences.push_back(line.str());
  };
  auto it_a = ma.begin();
  auto it_b = mb.begin();
  while (it_a != ma.end() || it_b != mb.end()) {
    if (it_b == mb.end() || (it_a != ma.end() && it_a->first < it_b->first)) {
      report(it_a->first, it_a->second, 0);
      ++it_a;
    } else if (it_a == ma.end() || it_b->first < it_a->first) {
      report(it_b->first, 0, it_b->second);
      ++it_b;
    } else {
      if (it_a->second != it_b->second) report(it_a->first, it_a->second, it_b->second);
      ++it_a;
      ++it_b;
    }
  }
  diff.identical = diff.differences.empty();

  // Informational: timing movement per (cat, name) and pool traffic.
  std::map<std::pair<std::string, std::string>, double> time_a, time_b;
  std::uint64_t pool_a = 0, pool_b = 0;
  for (const LoadedEvent& e : a.events) {
    if (e.cat == "pool") ++pool_a;
    time_a[{e.cat, e.name}] += e.dur_us;
  }
  for (const LoadedEvent& e : b.events) {
    if (e.cat == "pool") ++pool_b;
    time_b[{e.cat, e.name}] += e.dur_us;
  }
  for (const auto& [key, us_a] : time_a) {
    const auto it = time_b.find(key);
    const double us_b = it != time_b.end() ? it->second : 0;
    const double delta = us_b - us_a;
    if (us_a <= 0 && us_b <= 0) continue;
    std::ostringstream line;
    line << key.first << "/" << key.second << ": " << us_a << "us -> " << us_b
         << "us (" << (delta >= 0 ? "+" : "") << delta << "us)";
    diff.notes.push_back(line.str());
  }
  if (pool_a != 0 || pool_b != 0) {
    std::ostringstream line;
    line << "pool traffic (scheduling, not compared): " << pool_a << " vs " << pool_b
         << " events";
    diff.notes.push_back(line.str());
  }
  return diff;
}

}  // namespace fpopt::telemetry
