// fpopt_report_check: schema-validate fpopt run reports and fpoptd
// metrics snapshots (the validators of src/telemetry/schema.h).
//
// Usage: fpopt_report_check [--metrics] <file> [more ...]
//
// Default (run-report) mode: each file must parse as JSON and contain at
// least one embedded "fpopt_run_report" block (at any nesting depth —
// --stats-json output has it at the top level, BENCH_*.json embeds one
// per workload entry, an fpoptd response carries one as a member); every
// block must satisfy run-report schema v1 (src/telemetry/run_report.h).
//
// --metrics mode (the `fpopt_metrics_check` entry point of the CI
// scripts): a file that starts with '{' is validated as a JSON metrics
// snapshot — every embedded "fpopt_metrics" block must satisfy metrics
// schema v1 (src/telemetry/metrics.h). Any other file is validated as
// Prometheus text exposition (HELP/TYPE consistency, cumulative histogram
// buckets, +Inf terminators, _count agreement).
//
// All files are checked even after a failure; the exit code reports the
// worst outcome across them (parse failures outrank schema violations so
// CI can distinguish "not JSON at all" from "JSON with a bad report").
//
// Exit codes: 0 all files valid, 1 schema violations, 2 usage/IO error,
// 3 parse failure (matches the fpopt_trace convention).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.h"
#include "telemetry/schema.h"

namespace {

constexpr const char* kUsage =
    "usage: fpopt_report_check [--metrics] <file> [more ...]\n"
    "  Default: validates every embedded fpopt_run_report block (schema v1).\n"
    "  --metrics: validates metrics snapshots instead — files starting with '{'\n"
    "             as JSON fpopt_metrics blocks, anything else as Prometheus\n"
    "             text exposition.\n"
    "exit codes: 0 all files valid, 1 schema violations, 2 usage or I/O error,\n"
    "            3 parse failure (a file is not well-formed JSON)\n";

/// First non-whitespace byte decides JSON vs Prometheus text in
/// --metrics mode (Prometheus exposition cannot start with '{': sample
/// lines start with a metric name, comments with '#').
bool looks_like_json(const std::string& text) {
  for (const char c : text) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') continue;
    return c == '{';
  }
  return false;
}

/// One file's exit code (see above); violations go to stderr.
int check_file(const std::string& path, const std::string& text, bool metrics_mode) {
  namespace telemetry = fpopt::telemetry;
  std::vector<std::string> errors;
  if (metrics_mode && !looks_like_json(text)) {
    errors = telemetry::validate_prometheus_text(text);
  } else {
    const telemetry::JsonParseResult parsed = telemetry::parse_json(text);
    if (!parsed.value.has_value()) {
      std::cerr << path << ": " << parsed.error << '\n';
      return 3;
    }
    errors = metrics_mode ? telemetry::validate_embedded_metrics(*parsed.value)
                          : telemetry::validate_embedded_run_reports(*parsed.value);
  }
  for (const std::string& e : errors) std::cerr << path << ": " << e << '\n';
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && (args[0] == "--help" || args[0] == "-h")) {
    std::cout << kUsage;
    return 0;
  }
  bool metrics_mode = false;
  if (!args.empty() && args[0] == "--metrics") {
    metrics_mode = true;
    args.erase(args.begin());
  }
  if (args.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  int worst = 0;
  for (const std::string& path : args) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "fpopt_report_check: cannot open " << path << '\n';
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    const int rc = check_file(path, buf.str(), metrics_mode);
    if (rc == 0) std::cout << path << ": ok\n";
    worst = std::max(worst, rc);
  }
  return worst;
}
