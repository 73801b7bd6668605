// Structural validation of the repo's JSON documents on one helper:
// SchemaCheck records "member X must be a Y" violations, each naming the
// member's path, and find_blocks locates embedded blocks. Run reports
// and metrics snapshots (JSON and Prometheus text) are validated here;
// the trace document (trace_analysis.h) and the fpoptd response
// (service/protocol.h) have their validators next to their loaders.
// tools/fpopt_report_check runs these over files (the CI gate).
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json.h"

namespace fpopt::telemetry {

/// The shape a value must have (kNonNegInteger: an integer token that
/// fits std::int64_t, >= 0).
enum class Want {
  kObject, kArray, kString, kNonEmptyString, kBool, kNumber, kNonNegNumber, kNonNegInteger
};

/// Collects violations in document order.
class SchemaCheck {
 public:
  std::vector<std::string> errors;

  /// True when `v` has the shape; records "<what> must be ..." otherwise.
  bool is(const JsonValue& v, Want want, const std::string& what);

  /// The member `key` of `obj` when it is present with the shape.
  /// Records "<where>.<key>: missing required key" or the shape
  /// violation and returns nullptr otherwise. `where` is the path of
  /// `obj` ("" for the document root).
  const JsonValue* member(const JsonValue& obj, const std::string& key, Want want,
                          const std::string& where);

  /// Records one violation per member of `obj` not named in `known`.
  void only(const JsonValue& obj, std::initializer_list<std::string_view> known,
            const std::string& where);

  /// Records `message` unless `ok`; returns `ok`.
  bool require(bool ok, const std::string& message);
};

/// Every value held under `key` anywhere in `doc`, outer blocks first.
[[nodiscard]] std::vector<const JsonValue*> find_blocks(const JsonValue& doc,
                                                        const std::string& key);

/// Validate one run report: the {"fpopt_run_report": ...} document or
/// its inner object. Returns the violations; empty = valid.
[[nodiscard]] std::vector<std::string> validate_run_report(const JsonValue& report);

/// Validate every run-report block embedded anywhere in `doc`; no block
/// at all is a violation.
[[nodiscard]] std::vector<std::string> validate_embedded_run_reports(const JsonValue& doc);

/// Validate one metrics snapshot (the value of "fpopt_metrics").
[[nodiscard]] std::vector<std::string> validate_metrics_snapshot(const JsonValue& snapshot);

/// Validate every metrics block embedded anywhere in `doc`; no block at
/// all is a violation.
[[nodiscard]] std::vector<std::string> validate_embedded_metrics(const JsonValue& doc);

/// Validate Prometheus text exposition: HELP/TYPE lines, sample-line
/// syntax, TYPE-before-samples per family, cumulative histogram buckets
/// ending at le="+Inf" with a matching _count.
[[nodiscard]] std::vector<std::string> validate_prometheus_text(const std::string& text);

}  // namespace fpopt::telemetry
