#include "telemetry/schema.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "telemetry/run_report.h"

namespace fpopt::telemetry {
namespace {

std::string join(const std::string& where, const std::string& key) {
  return where.empty() ? key : where + "." + key;
}

std::string at_index(const std::string& where, std::size_t i) {
  return where + "[" + std::to_string(i) + "]";
}

}  // namespace

bool SchemaCheck::is(const JsonValue& v, Want want, const std::string& what) {
  static constexpr const char* kShape[] = {
      "an object", "an array", "a string", "a non-empty string", "a bool", "a number",
      "a non-negative number", "a non-negative integer"};
  const bool ok = [&] {
    switch (want) {
      case Want::kObject: return v.is_object();
      case Want::kArray: return v.is_array();
      case Want::kString: return v.is_string();
      case Want::kNonEmptyString: return v.is_string() && !v.string.empty();
      case Want::kBool: return v.is_bool();
      case Want::kNumber: return v.is_number();
      case Want::kNonNegNumber: return v.is_number() && v.number >= 0;
      case Want::kNonNegInteger: return v.is_integer && v.integer >= 0;
    }
    return false;
  }();
  return require(ok, what + " must be " + kShape[static_cast<int>(want)]);
}

const JsonValue* SchemaCheck::member(const JsonValue& obj, const std::string& key, Want want,
                                     const std::string& where) {
  const std::string path = join(where, key);
  const JsonValue* v = obj.find(key);
  if (!require(v != nullptr, path + ": missing required key")) return nullptr;
  return is(*v, want, path) ? v : nullptr;
}

void SchemaCheck::only(const JsonValue& obj, std::initializer_list<std::string_view> known,
                       const std::string& where) {
  for (const auto& member : obj.object) {
    require(std::find(known.begin(), known.end(), member.first) != known.end(),
            join(where, member.first) + ": unknown member");
  }
}

bool SchemaCheck::require(bool ok, const std::string& message) {
  if (!ok) errors.push_back(message);
  return ok;
}

std::vector<const JsonValue*> find_blocks(const JsonValue& doc, const std::string& key) {
  std::vector<const JsonValue*> out;
  if (const JsonValue* block = doc.find(key)) out.push_back(block);
  const auto descend = [&](const JsonValue& child) {
    const std::vector<const JsonValue*> inner = find_blocks(child, key);
    out.insert(out.end(), inner.begin(), inner.end());
  };
  for (const auto& member : doc.object) descend(member.second);
  for (const JsonValue& element : doc.array) descend(element);
  return out;
}

// ---- run reports ---------------------------------------------------------

namespace {

void check_run_report(SchemaCheck& c, const JsonValue& report) {
  const std::string at = "fpopt_run_report";
  if (!c.is(report, Want::kObject, at)) return;
  if (const JsonValue* v = c.member(report, "schema_version", Want::kNonNegInteger, at)) {
    c.require(v->integer == kRunReportSchemaVersion,
              at + ".schema_version must be " + std::to_string(kRunReportSchemaVersion));
  }
  c.member(report, "tool", Want::kNonEmptyString, at);
  c.member(report, "command", Want::kNonEmptyString, at);
  c.member(report, "aborted", Want::kBool, at);
  c.member(report, "telemetry", Want::kBool, at);
  if (const JsonValue* config = c.member(report, "config", Want::kObject, at)) {
    for (const auto& [k, v] : config->object) c.is(v, Want::kString, at + ".config." + k);
  }
  if (const JsonValue* counters = c.member(report, "counters", Want::kObject, at)) {
    for (const auto& [k, v] : counters->object) {
      const std::string path = at + ".counters." + k;
      c.is(v, Want::kNonNegInteger, path);
      c.require(k.find('.') != std::string::npos,
                path + " must use the <subsystem>.<name> naming scheme");
    }
  }
  if (const JsonValue* gauges = c.member(report, "gauges", Want::kObject, at)) {
    for (const auto& [k, v] : gauges->object) c.is(v, Want::kNumber, at + ".gauges." + k);
  }
  if (const JsonValue* phases = c.member(report, "phases", Want::kArray, at)) {
    for (std::size_t i = 0; i < phases->array.size(); ++i) {
      const JsonValue& phase = phases->array[i];
      const std::string path = at_index(at + ".phases", i);
      if (!c.is(phase, Want::kObject, path)) continue;
      c.member(phase, "name", Want::kString, path);
      c.member(phase, "count", Want::kNonNegInteger, path);
      c.member(phase, "seconds", Want::kNumber, path);
    }
  }
  if (const JsonValue* pool = c.member(report, "pool", Want::kObject, at)) {
    if (const JsonValue* workers = c.member(*pool, "workers", Want::kArray, at + ".pool")) {
      for (std::size_t i = 0; i < workers->array.size(); ++i) {
        const JsonValue& worker = workers->array[i];
        const std::string path = at_index(at + ".pool.workers", i);
        if (!c.is(worker, Want::kObject, path)) continue;
        for (const char* key : {"tasks_run", "steals", "shared_pops"}) {
          c.member(worker, key, Want::kNonNegInteger, path);
        }
        c.member(worker, "idle_seconds", Want::kNumber, path);
      }
    }
  }
  c.member(report, "seconds", Want::kNumber, at);
}

}  // namespace

std::vector<std::string> validate_run_report(const JsonValue& report) {
  SchemaCheck c;
  const JsonValue* inner = report.find("fpopt_run_report");
  check_run_report(c, inner != nullptr ? *inner : report);
  return std::move(c.errors);
}

std::vector<std::string> validate_embedded_run_reports(const JsonValue& doc) {
  const std::vector<const JsonValue*> reports = find_blocks(doc, "fpopt_run_report");
  if (reports.empty()) return {"no fpopt_run_report block found in the document"};
  std::vector<std::string> errors;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    SchemaCheck c;
    check_run_report(c, *reports[i]);
    for (const std::string& e : c.errors) {
      errors.push_back("report #" + std::to_string(i) + ": " + e);
    }
  }
  return errors;
}

// ---- metrics snapshots ---------------------------------------------------

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (std::isalpha(static_cast<unsigned char>(c)) != 0) || c == '_' || c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name) {
    if (!head(c) && std::isdigit(static_cast<unsigned char>(c)) == 0) return false;
  }
  return true;
}

void check_histogram_series(SchemaCheck& c, const JsonValue& series, const std::string& at) {
  const JsonValue* buckets = c.member(series, "buckets", Want::kArray, at);
  c.member(series, "sum_seconds", Want::kNonNegNumber, at);
  if (buckets == nullptr ||
      !c.require(!buckets->array.empty(), at + ".buckets must not be empty")) {
    return;
  }
  double prev_le = -1;
  std::int64_t prev_count = 0;
  bool saw_inf = false;
  for (std::size_t i = 0; i < buckets->array.size(); ++i) {
    const JsonValue& bucket = buckets->array[i];
    const std::string path = at_index(at + ".buckets", i);
    if (!c.is(bucket, Want::kObject, path)) break;
    const JsonValue* le = bucket.find("le");
    const JsonValue* count = c.member(bucket, "count", Want::kNonNegInteger, path);
    if (!c.require(le != nullptr, path + ".le: missing required key") || count == nullptr) break;
    if (!c.require(count->integer >= prev_count, path + ".count: counts are not cumulative")) {
      break;
    }
    prev_count = count->integer;
    if (le->is_string() && le->string == "+Inf") {
      saw_inf = true;
    } else if (!c.require(!saw_inf, path + ": bucket after le=\"+Inf\"") ||
               !c.require(le->is_number() && le->number > prev_le,
                          path + ".le must be a number above the previous bound")) {
      break;
    } else {
      prev_le = le->number;
    }
  }
  c.require(saw_inf, at + ".buckets: missing the le=\"+Inf\" overflow bucket");
  if (const JsonValue* count = c.member(series, "count", Want::kNonNegInteger, at)) {
    c.require(count->integer == prev_count,
              at + ".count must equal the final cumulative bucket count");
  }
}

void check_family(SchemaCheck& c, const JsonValue& family, const std::string& at, bool histogram,
                  std::set<std::string>& names) {
  if (!c.is(family, Want::kObject, at)) return;
  const JsonValue* name = c.member(family, "name", Want::kString, at);
  if (name == nullptr) return;
  c.require(names.insert(name->string).second,
            at + ".name: duplicate family name \"" + name->string + "\"");
  if (!c.require(valid_metric_name(name->string),
                 at + ".name \"" + name->string + "\" is not a valid metric name")) {
    return;
  }
  c.member(family, "help", Want::kNonEmptyString, at);
  const JsonValue* series = c.member(family, "series", Want::kArray, at);
  if (series == nullptr || !c.require(!series->array.empty(), at + ".series must not be empty")) {
    return;
  }
  std::set<std::string> seen_labels;
  for (std::size_t i = 0; i < series->array.size(); ++i) {
    const JsonValue& s = series->array[i];
    const std::string path = at_index(at + ".series", i);
    if (!c.is(s, Want::kObject, path)) continue;
    const JsonValue* labels = c.member(s, "labels", Want::kObject, path);
    if (labels == nullptr) continue;
    for (const auto& [k, v] : labels->object) c.is(v, Want::kString, path + ".labels." + k);
    c.require(seen_labels.insert(labels->dump()).second,
              path + ".labels: duplicate series labels " + labels->dump());
    if (histogram) {
      check_histogram_series(c, s, path);
    } else {
      c.member(s, "value", Want::kNumber, path);
    }
  }
}

}  // namespace

std::vector<std::string> validate_metrics_snapshot(const JsonValue& snapshot) {
  SchemaCheck c;
  const std::string at = "fpopt_metrics";
  if (!c.is(snapshot, Want::kObject, at)) return std::move(c.errors);
  if (const JsonValue* v = c.member(snapshot, "schema_version", Want::kNonNegInteger, at)) {
    c.require(v->integer == 1, at + ".schema_version must be 1");
  }
  c.member(snapshot, "telemetry", Want::kBool, at);
  std::set<std::string> names;
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const JsonValue* families = c.member(snapshot, section, Want::kArray, at);
    if (families == nullptr) continue;
    const bool histogram = std::string(section) == "histograms";
    for (std::size_t i = 0; i < families->array.size(); ++i) {
      check_family(c, families->array[i], at_index(at + "." + section, i), histogram, names);
    }
  }
  c.only(snapshot, {"schema_version", "telemetry", "counters", "gauges", "histograms"}, at);
  return std::move(c.errors);
}

std::vector<std::string> validate_embedded_metrics(const JsonValue& doc) {
  const std::vector<const JsonValue*> blocks = find_blocks(doc, "fpopt_metrics");
  if (blocks.empty()) return {"document contains no \"fpopt_metrics\" block"};
  std::vector<std::string> errors;
  for (const JsonValue* block : blocks) {
    std::vector<std::string> v = validate_metrics_snapshot(*block);
    errors.insert(errors.end(), v.begin(), v.end());
  }
  return errors;
}

namespace {

/// One parsed Prometheus sample line: name, raw label block, value.
struct Sample {
  std::string name;
  std::string labels;
  std::string value;
};

bool parse_sample_line(const std::string& line, Sample& out) {
  std::size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  out.name = line.substr(0, i);
  if (!valid_metric_name(out.name)) return false;
  if (i < line.size() && line[i] == '{') {
    const std::size_t close = line.find('}', i);
    if (close == std::string::npos) return false;
    out.labels = line.substr(i + 1, close - i - 1);
    i = close + 1;
  } else {
    out.labels.clear();
  }
  if (i >= line.size() || line[i] != ' ') return false;
  out.value = line.substr(i + 1);
  if (out.value.empty()) return false;
  char* end = nullptr;
  std::strtod(out.value.c_str(), &end);
  return end != nullptr && *end == '\0';
}

/// Strip a trailing `le="..."` pair; returns the bound via `le`.
bool split_le(const std::string& labels, std::string& rest, std::string& le) {
  const std::string key = "le=\"";
  const std::size_t pos = labels.rfind(key);
  if (pos == std::string::npos) return false;
  const std::size_t close = labels.find('"', pos + key.size());
  if (close == std::string::npos || close + 1 != labels.size()) return false;
  le = labels.substr(pos + key.size(), close - pos - key.size());
  rest = labels.substr(0, pos);
  if (!rest.empty() && rest.back() == ',') rest.pop_back();
  return true;
}

}  // namespace

std::vector<std::string> validate_prometheus_text(const std::string& text) {
  std::vector<std::string> out;
  std::map<std::string, std::string> family_type;  // name -> counter|gauge|histogram
  // Per (histogram family, non-le labels): cumulative bucket state.
  struct BucketState {
    double prev_le = -1;
    std::int64_t prev_count = -1;
    bool saw_inf = false;
    std::int64_t inf_count = 0;
    bool counted = false;  // _count line seen and matched
  };
  std::map<std::string, BucketState> buckets;

  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  bool any_sample = false;
  auto fail = [&](const std::string& msg) {
    out.push_back("line " + std::to_string(lineno) + ": " + msg);
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream meta(line);
      std::string hash, kind, name, tail;
      meta >> hash >> kind >> name;
      std::getline(meta, tail);
      if (kind == "TYPE") {
        if (tail != " counter" && tail != " gauge" && tail != " histogram") {
          fail("TYPE must be counter, gauge or histogram");
        } else if (!family_type.emplace(name, tail.substr(1)).second) {
          fail("duplicate TYPE for family " + name);
        }
      } else if (kind != "HELP") {
        fail("unknown comment directive (expected HELP or TYPE)");
      }
      continue;
    }
    Sample sample;
    if (!parse_sample_line(line, sample)) {
      fail("malformed sample line");
      continue;
    }
    any_sample = true;
    std::string base = sample.name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (base.size() > s.size() && base.compare(base.size() - s.size(), s.size(), s) == 0 &&
          family_type.count(base.substr(0, base.size() - s.size())) != 0 &&
          family_type.at(base.substr(0, base.size() - s.size())) == "histogram") {
        base = base.substr(0, base.size() - s.size());
        break;
      }
    }
    const auto type_it = family_type.find(base);
    if (type_it == family_type.end()) {
      fail("sample " + sample.name + " has no preceding TYPE line");
      continue;
    }
    if (type_it->second != "histogram") continue;
    std::string rest;
    std::string le;
    const std::string suffix = sample.name.substr(base.size());
    if (suffix == "_bucket") {
      if (!split_le(sample.labels, rest, le)) {
        fail("histogram bucket is missing the le label");
        continue;
      }
      BucketState& st = buckets[base + "|" + rest];
      const std::int64_t count = std::strtoll(sample.value.c_str(), nullptr, 10);
      if (st.prev_count >= 0 && count < st.prev_count) fail("bucket counts are not cumulative");
      st.prev_count = count;
      if (le == "+Inf") {
        if (st.saw_inf) fail("duplicate le=\"+Inf\" bucket");
        st.saw_inf = true;
        st.inf_count = count;
      } else {
        if (st.saw_inf) fail("bucket after le=\"+Inf\"");
        const double bound = std::strtod(le.c_str(), nullptr);
        if (bound <= st.prev_le) fail("bucket le bounds must be increasing");
        st.prev_le = bound;
      }
    } else if (suffix == "_count") {
      BucketState& st = buckets[base + "|" + sample.labels];
      if (!st.saw_inf) {
        fail("histogram _count before its le=\"+Inf\" bucket");
      } else if (std::strtoll(sample.value.c_str(), nullptr, 10) != st.inf_count) {
        fail("histogram _count does not match the +Inf bucket");
      } else {
        st.counted = true;
      }
    }
  }
  for (const auto& [key, st] : buckets) {
    const std::string fam = key.substr(0, key.find('|'));
    if (!st.saw_inf) out.push_back(fam + ": histogram is missing the le=\"+Inf\" bucket");
    if (!st.counted) out.push_back(fam + ": histogram is missing a matching _count sample");
  }
  if (!any_sample) out.emplace_back("exposition contains no sample lines");
  return out;
}

}  // namespace fpopt::telemetry
