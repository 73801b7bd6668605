#include "service/protocol.h"

#include <cmath>
#include <limits>

#include "telemetry/schema.h"

namespace fpopt {
namespace {

using telemetry::JsonValue;

/// Thrown internally by the decode helpers; decode_request catches it and
/// converts to the (code, message) out-parameters.
struct DecodeFail {
  ServiceErrorCode code;
  std::string message;
};

/// CLI-equivalent non-negative integer option (parse_long in io/cli.cpp).
std::size_t option_uint(const std::string& name, const JsonValue& v) {
  if (!v.is_number() || !v.is_integer || v.integer < 0) {
    throw DecodeFail{ServiceErrorCode::kOption,
                     "option '" + name + "' must be a non-negative integer"};
  }
  if (static_cast<unsigned long long>(v.integer) >
      std::numeric_limits<std::size_t>::max()) {
    throw DecodeFail{ServiceErrorCode::kOption,
                     "option '" + name + "' out of range"};
  }
  return static_cast<std::size_t>(v.integer);
}

double option_double(const std::string& name, const JsonValue& v) {
  // NaN/infinity must die here: the parser maps tokens like 1e999 to an
  // infinite double, and NaN slips through ordered range checks (every
  // comparison is false), so without this guard a NaN theta would reach
  // the selection kernels. The CLI flag path rejects the same values.
  if (!v.is_number() || !std::isfinite(v.number)) {
    throw DecodeFail{ServiceErrorCode::kOption,
                     "option '" + name + "' must be a finite number"};
  }
  return v.number;
}

bool option_bool(const std::string& name, const JsonValue& v) {
  if (!v.is_bool()) {
    throw DecodeFail{ServiceErrorCode::kOption,
                     "option '" + name + "' must be a boolean"};
  }
  return v.boolean;
}

/// Apply one member of the request's "options" object onto the spec, with
/// the CLI flag parser's exact validation rules (same ranges, same
/// messages where they exist).
void apply_option(const std::string& key, const JsonValue& v, ServiceRequest& out) {
  OptimizerOptions& options = out.spec.options;
  if (key == "k1") {
    options.selection.k1 = option_uint(key, v);
    if (options.selection.k1 == 1) {
      throw DecodeFail{ServiceErrorCode::kOption, "option 'k1' must be 0 or at least 2"};
    }
  } else if (key == "k2") {
    options.selection.k2 = option_uint(key, v);
  } else if (key == "theta") {
    options.selection.theta = option_double(key, v);
    if (options.selection.theta <= 0 || options.selection.theta > 1) {
      throw DecodeFail{ServiceErrorCode::kOption, "option 'theta' must be in (0, 1]"};
    }
  } else if (key == "scap") {
    options.selection.heuristic_cap = option_uint(key, v);
  } else if (key == "budget") {
    options.impl_budget = option_uint(key, v);
    out.budget_set = true;
  } else if (key == "threads") {
    options.threads = option_uint(key, v);
    if (options.threads > OptimizerOptions::kMaxThreads) {
      throw DecodeFail{ServiceErrorCode::kOption,
                       "option 'threads' must be at most " +
                           std::to_string(OptimizerOptions::kMaxThreads)};
    }
  } else if (key == "incremental") {
    options.incremental = option_bool(key, v);
  } else if (key == "cache_mb") {
    const std::size_t mb = option_uint(key, v);
    if (mb == 0) {
      throw DecodeFail{ServiceErrorCode::kOption,
                       "option 'cache_mb' must be at least 1 (MiB)"};
    }
    if (mb > (std::numeric_limits<std::size_t>::max() >> 20)) {
      throw DecodeFail{ServiceErrorCode::kOption,
                       "option 'cache_mb' overflows the byte budget"};
    }
    out.spec.cache_bytes = mb << 20;
  } else if (key == "impl") {
    out.spec.impl_index = option_uint(key, v);
  } else if (key == "metric") {
    if (!v.is_string()) {
      throw DecodeFail{ServiceErrorCode::kOption, "option 'metric' must be a string"};
    }
    if (v.string == "l1") {
      options.selection.metric = LpMetric::L1;
    } else if (v.string == "l2") {
      options.selection.metric = LpMetric::L2;
    } else if (v.string == "linf") {
      options.selection.metric = LpMetric::LInf;
    } else {
      throw DecodeFail{ServiceErrorCode::kOption,
                       "unknown metric '" + v.string + "' (expected l1, l2 or linf)"};
    }
  } else {
    throw DecodeFail{ServiceErrorCode::kOption, "unknown option '" + key + "'"};
  }
}

const std::string& required_string(const JsonValue& request, const std::string& key) {
  const JsonValue* v = request.find(key);
  if (v == nullptr) {
    throw DecodeFail{ServiceErrorCode::kSchema, "missing request member '" + key + "'"};
  }
  if (!v->is_string()) {
    throw DecodeFail{ServiceErrorCode::kSchema,
                     "request member '" + key + "' must be a string"};
  }
  return v->string;
}

}  // namespace

const char* to_string(ServiceErrorCode code) {
  switch (code) {
    case ServiceErrorCode::kParse:
      return "E_PARSE";
    case ServiceErrorCode::kSchema:
      return "E_SCHEMA";
    case ServiceErrorCode::kCommand:
      return "E_COMMAND";
    case ServiceErrorCode::kOption:
      return "E_OPTION";
    case ServiceErrorCode::kInput:
      return "E_INPUT";
    case ServiceErrorCode::kBudget:
      return "E_BUDGET";
    case ServiceErrorCode::kOversized:
      return "E_OVERSIZED";
    case ServiceErrorCode::kOverloaded:
      return "E_OVERLOADED";
    case ServiceErrorCode::kDeadline:
      return "E_DEADLINE";
    case ServiceErrorCode::kInternal:
      return "E_INTERNAL";
  }
  return "E_INTERNAL";
}

bool decode_request(const std::string& frame, ServiceRequest& out, ServiceError& error) {
  out = ServiceRequest{};
  const telemetry::JsonParseResult parsed = telemetry::parse_json(frame);
  if (!parsed.value.has_value()) {
    error = {ServiceErrorCode::kParse, "bad JSON: " + parsed.error};
    return false;
  }
  try {
    const JsonValue& doc = *parsed.value;
    const JsonValue* request = doc.find("fpopt_request");
    if (request == nullptr || !request->is_object() || doc.object.size() != 1) {
      throw DecodeFail{ServiceErrorCode::kSchema,
                       "frame must be a {\"fpopt_request\": {...}} object"};
    }
    // The id is echoed even into schema-error responses, so recover it
    // before any other member can fail validation.
    if (const JsonValue* id = request->find("id")) {
      if (id->is_string()) {
        out.id_json = telemetry::json_quote(id->string);
      } else if (id->is_number() && id->is_integer) {
        out.id_json = std::to_string(id->integer);
      } else if (id->kind != JsonValue::Kind::Null) {
        throw DecodeFail{ServiceErrorCode::kSchema,
                         "request 'id' must be a string, an integer or null"};
      }
    }
    const JsonValue* version = request->find("schema_version");
    if (version == nullptr || !version->is_number() || !version->is_integer) {
      throw DecodeFail{ServiceErrorCode::kSchema,
                       "missing integer request member 'schema_version'"};
    }
    if (version->integer != kServiceSchemaVersion) {
      throw DecodeFail{ServiceErrorCode::kSchema,
                       "unsupported schema_version " + std::to_string(version->integer) +
                           " (this server speaks " +
                           std::to_string(kServiceSchemaVersion) + ")"};
    }
    out.spec.command = required_string(*request, "command");
    // The CLI's default: no simulated memory limit unless asked for.
    out.spec.options.impl_budget = 0;

    const bool control = out.is_control();
    const bool known = control || out.spec.command == "stats" ||
                       out.spec.command == "optimize" || out.spec.command == "place";
    if (!known) {
      throw DecodeFail{ServiceErrorCode::kCommand,
                       "unknown command '" + out.spec.command + "'"};
    }
    for (const auto& [key, value] : request->object) {
      if (key == "id" || key == "schema_version" || key == "command") continue;
      if (key == "report") {
        if (!value.is_bool()) {
          throw DecodeFail{ServiceErrorCode::kSchema,
                           "request member 'report' must be a boolean"};
        }
        out.want_report = value.boolean;
      } else if (key == "trace") {
        if (control) {
          throw DecodeFail{ServiceErrorCode::kSchema,
                           "command '" + out.spec.command + "' takes no 'trace'"};
        }
        if (!value.is_bool()) {
          throw DecodeFail{ServiceErrorCode::kSchema,
                           "request member 'trace' must be a boolean"};
        }
        out.trace = value.boolean;
      } else if (key == "format") {
        if (out.spec.command != "metrics") {
          throw DecodeFail{ServiceErrorCode::kSchema,
                           "only the metrics command takes 'format'"};
        }
        if (!value.is_string() || (value.string != "json" && value.string != "prometheus")) {
          throw DecodeFail{ServiceErrorCode::kSchema,
                           "request member 'format' must be \"json\" or \"prometheus\""};
        }
        out.format = value.string;
      } else if (key == "pick") {
        if (out.spec.command != "trace") {
          throw DecodeFail{ServiceErrorCode::kSchema,
                           "only the trace command takes 'pick'"};
        }
        if (!value.is_string() || (value.string != "recent" && value.string != "slowest" &&
                                   value.string != "list")) {
          throw DecodeFail{ServiceErrorCode::kSchema,
                           "request member 'pick' must be \"recent\", \"slowest\" or \"list\""};
        }
        out.pick = value.string;
      } else if (key == "priority") {
        if (control) {
          throw DecodeFail{ServiceErrorCode::kSchema,
                           "command '" + out.spec.command + "' takes no 'priority'"};
        }
        if (!value.is_number() || !value.is_integer || value.integer < 0 ||
            value.integer > 2) {
          throw DecodeFail{ServiceErrorCode::kSchema,
                           "request member 'priority' must be an integer in 0..2 "
                           "(2 = most urgent)"};
        }
        out.priority = static_cast<int>(value.integer);
      } else if (key == "deadline_ms") {
        if (control) {
          throw DecodeFail{ServiceErrorCode::kSchema,
                           "command '" + out.spec.command + "' takes no 'deadline_ms'"};
        }
        // Bounded so arrival + deadline can never overflow the clock.
        constexpr std::int64_t kMaxDeadlineMs = 86'400'000;  // 24h
        if (!value.is_number() || !value.is_integer || value.integer < 0 ||
            value.integer > kMaxDeadlineMs) {
          throw DecodeFail{ServiceErrorCode::kSchema,
                           "request member 'deadline_ms' must be an integer in 0.." +
                               std::to_string(kMaxDeadlineMs)};
        }
        out.deadline_ms = static_cast<std::uint64_t>(value.integer);
      } else if (key == "topology" || key == "library" || key == "options") {
        if (control) {
          throw DecodeFail{ServiceErrorCode::kSchema,
                           "command '" + out.spec.command + "' takes no '" + key + "'"};
        }
        if (key == "options") {
          if (!value.is_object()) {
            throw DecodeFail{ServiceErrorCode::kSchema,
                             "request member 'options' must be an object"};
          }
          for (const auto& [okey, ovalue] : value.object) {
            apply_option(okey, ovalue, out);
          }
        }
        // topology / library re-checked below via required_string.
      } else {
        throw DecodeFail{ServiceErrorCode::kSchema,
                         "unknown request member '" + key + "'"};
      }
    }
    if (!control) {
      out.topology = required_string(*request, "topology");
      out.library = required_string(*request, "library");
    }
  } catch (const DecodeFail& f) {
    error = {f.code, f.message};
    return false;
  }
  return true;
}

namespace {

/// The envelope both statuses share; `body` writes the status's member.
template <typename Body>
std::string response(const std::string& id_json, const char* status,
                     const std::string& report_json, Body&& body) {
  telemetry::JsonWriter w;
  w.begin_object().key("fpopt_response").begin_object();
  w.key("schema_version").i64(kServiceSchemaVersion).key("id").raw(id_json);
  body(w.key("status").str(status));
  if (!report_json.empty()) w.key("fpopt_run_report").raw(report_json);
  w.end_object().end_object();
  return std::move(w).text();
}

}  // namespace

std::string build_ok_response(const std::string& id_json, const std::string& output,
                              const std::string& report_json) {
  return response(id_json, "ok", report_json,
                  [&](telemetry::JsonWriter& w) { w.key("output").str(output); });
}

std::string build_error_response(const std::string& id_json, const ServiceError& error,
                                 const std::string& report_json) {
  return response(id_json, "error", report_json, [&](telemetry::JsonWriter& w) {
    w.key("error").begin_object().key("code").str(to_string(error.code));
    w.key("message").str(error.message).end_object();
  });
}

std::vector<std::string> validate_service_response(const telemetry::JsonValue& doc) {
  using telemetry::Want;
  telemetry::SchemaCheck c;
  if (!c.require(doc.is_object() && doc.object.size() == 1,
                 "response must be a single-member {\"fpopt_response\": {...}} object")) {
    return std::move(c.errors);
  }
  const std::string at = "fpopt_response";
  const JsonValue* r = c.member(doc, at, Want::kObject, "");
  if (r == nullptr) return std::move(c.errors);
  if (const JsonValue* v = c.member(*r, "schema_version", Want::kNonNegInteger, at)) {
    c.require(v->integer == kServiceSchemaVersion,
              at + ".schema_version must be " + std::to_string(kServiceSchemaVersion));
  }
  const JsonValue* id = r->find("id");
  if (c.require(id != nullptr,
                at + ".id: missing required key (null for unidentifiable requests)")) {
    c.require(id->is_string() || id->is_integer || id->kind == JsonValue::Kind::Null,
              at + ".id must be a string, an integer or null");
  }
  const JsonValue* status = c.member(*r, "status", Want::kString, at);
  if (status == nullptr ||
      !c.require(status->string == "ok" || status->string == "error",
                 at + ".status must be \"ok\" or \"error\"")) {
    return std::move(c.errors);
  }
  if (status->string == "ok") {
    c.member(*r, "output", Want::kString, at);
    c.require(r->find("error") == nullptr, at + ".error must not appear in an ok response");
  } else {
    c.require(r->find("output") == nullptr,
              at + ".output must not appear in an error response");
    if (const JsonValue* err = c.member(*r, "error", Want::kObject, at)) {
      if (const JsonValue* code = c.member(*err, "code", Want::kString, at + ".error")) {
        bool known = false;  // kInternal is the last code
        for (int i = 0; i <= static_cast<int>(ServiceErrorCode::kInternal); ++i) {
          known = known || code->string == to_string(static_cast<ServiceErrorCode>(i));
        }
        c.require(known, at + ".error.code \"" + code->string +
                             "\" is not one of the documented E_* codes");
      }
      c.member(*err, "message", Want::kString, at + ".error");
    }
  }
  if (const JsonValue* report = r->find("fpopt_run_report")) {
    for (const std::string& e : telemetry::validate_run_report(*report)) {
      c.errors.push_back(at + "." + e);
    }
  }
  c.only(*r, {"schema_version", "id", "status", "output", "error", "fpopt_run_report"}, at);
  return std::move(c.errors);
}

}  // namespace fpopt
