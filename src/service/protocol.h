// The fpoptd wire protocol: newline-delimited JSON frames, one request
// and one response per line (JSONL), over a Unix socket or stdio.
//
// Request (schema_version 1):
//   {"fpopt_request": {
//      "schema_version": 1,
//      "id": <string | integer | null>,          // echoed back verbatim
//      "command": "stats" | "optimize" | "place" | "ping" | "shutdown"
//               | "metrics" | "trace",            // admin verbs, no inputs
//      "topology": str, "library": str,          // the two CLI input files
//      "options": {"k1": uint, "k2": uint, "theta": number, "scap": uint,
//                  "metric": "l1"|"l2"|"linf", "budget": uint,
//                  "threads": uint, "incremental": bool, "cache_mb": uint,
//                  "impl": uint},                // all optional, CLI defaults
//      "priority": 0 | 1 | 2,                    // dispatch urgency, default 1
//      "deadline_ms": uint,                      // shed if not dispatched in time
//      "report": bool,                           // embed a run report
//      "trace": bool,                            // run commands: retain this
//                                                //   request's trace server-side
//      "format": "json" | "prometheus",          // metrics verb only
//      "pick": "recent" | "slowest" | "list"}}   // trace verb only
//
// Response (schema_version 1):
//   {"fpopt_response": {
//      "schema_version": 1, "id": <echo>,
//      "status": "ok" | "error",
//      "output": str,                            // ok: the CLI's stdout, byte-exact
//      "error": {"code": str, "message": str},   // error only
//      "fpopt_run_report": {...}}}               // when requested (also on E_BUDGET)
//
// Every malformed frame still gets exactly one response — with a
// machine-readable error code, never a dropped connection or a crash.
// The decode layer is pure (no I/O, no clock): a frame maps to the same
// ServiceRequest or ServiceError on every replay.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "io/command.h"
#include "telemetry/json.h"

namespace fpopt {

inline constexpr int kServiceSchemaVersion = 1;

/// Machine-readable failure classes, each a distinct `error.code` string.
enum class ServiceErrorCode {
  kParse,      ///< E_PARSE: frame is not a JSON document
  kSchema,     ///< E_SCHEMA: JSON, but not a valid fpopt_request envelope
  kCommand,    ///< E_COMMAND: unknown command verb
  kOption,     ///< E_OPTION: option value out of range / wrong type
  kInput,      ///< E_INPUT: topology / library text fails to parse or validate
  kBudget,      ///< E_BUDGET: run aborted over the implementation budget
  kOversized,   ///< E_OVERSIZED: frame exceeds the server's max frame size
  kOverloaded,  ///< E_OVERLOADED: server at its connection cap, connection refused
  kDeadline,    ///< E_DEADLINE: request deadline expired before dispatch
  kInternal,    ///< E_INTERNAL: unexpected server-side failure
};

[[nodiscard]] const char* to_string(ServiceErrorCode code);

struct ServiceError {
  ServiceErrorCode code = ServiceErrorCode::kInternal;
  std::string message;
};

/// A decoded request frame. `spec` carries the command + options in the
/// exact shape the CLI's flag parser produces, so the execution core
/// (io/command.h) treats daemon and standalone runs identically.
struct ServiceRequest {
  /// The request's "id" member re-serialized as a JSON token ("null" when
  /// absent) — echoed into the response so a pipelining client can match
  /// responses to requests.
  std::string id_json = "null";
  std::string topology;
  std::string library;
  CommandSpec spec;
  bool want_report = false;
  /// True when the request set "budget" explicitly — the service's
  /// default implementation budget (admission control) applies otherwise.
  bool budget_set = false;
  /// Dispatch urgency (0 lowest .. 2 most urgent, default 1). Only the
  /// queue position in front of the shared pool depends on it; the
  /// response bytes never do.
  int priority = 1;
  /// Relative dispatch deadline: if the request is still queued behind
  /// the gate this many milliseconds after decode, it is shed with
  /// E_DEADLINE instead of run. Absent = wait however long it takes.
  std::optional<std::uint64_t> deadline_ms;
  /// Run commands: true asks the server to capture and retain this
  /// request's TraceSession for the `trace` admin verb. Never changes the
  /// response bytes.
  bool trace = false;
  /// Metrics verb: exposition format ("json" default, or "prometheus").
  std::string format;
  /// Trace verb: which retained trace to return ("recent" default,
  /// "slowest", or "list" for the retention index).
  std::string pick;
  /// True for the control/admin verbs (ping / shutdown / metrics /
  /// trace), which carry no topology or library and skip the dispatch
  /// gate so a saturated daemon can still be probed and scraped.
  [[nodiscard]] bool is_control() const {
    return spec.command == "ping" || spec.command == "shutdown" ||
           spec.command == "metrics" || spec.command == "trace";
  }
};

/// Decode one frame (one line, newline already stripped). On failure
/// returns false and fills `error`; `out.id_json` is still populated when
/// the frame was well-formed enough to carry an id, so the error response
/// can be matched by the client.
[[nodiscard]] bool decode_request(const std::string& frame, ServiceRequest& out,
                                  ServiceError& error);

/// One ok-response line (no trailing newline). `output` is the CLI's
/// byte-exact stdout text; `report_json` is the compact inner run-report
/// object (RunReport::body_json), written as the response's
/// "fpopt_run_report" member, or empty for none.
[[nodiscard]] std::string build_ok_response(const std::string& id_json,
                                            const std::string& output,
                                            const std::string& report_json);

/// One error-response line (no trailing newline). A report may accompany
/// the error (an E_BUDGET abort still reports, aborted=true, exactly like
/// `fpopt --stats` on an over-budget run).
[[nodiscard]] std::string build_error_response(const std::string& id_json,
                                               const ServiceError& error,
                                               const std::string& report_json);

/// Structural validation of one parsed response document against the
/// schema above (both statuses). Returns human-readable violations;
/// empty = valid. Used by the protocol tests and `fpopt client`.
[[nodiscard]] std::vector<std::string> validate_service_response(
    const telemetry::JsonValue& doc);

}  // namespace fpopt
