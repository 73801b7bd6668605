// The JSON layer: a document model with its recursive-descent parser
// (full \uXXXX escapes with surrogate pairs, numbers as double with an
// exact-integer side channel, objects in insertion order so a re-dump of
// a deterministic document is deterministic), and the one streaming
// writer every emitted document goes through: run reports, metrics
// snapshots, traces, log lines, fpoptd responses and `fpopt client`
// frames. The parser lets the repo validate its own outputs without an
// external dependency (schema.h).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fpopt::telemetry {

class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0;
  /// True when the token was an integer literal that fits std::int64_t;
  /// `integer` then holds the exact value.
  bool is_integer = false;
  std::int64_t integer = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  ///< insertion order

  [[nodiscard]] bool is_object() const { return kind == Kind::Object; }
  [[nodiscard]] bool is_array() const { return kind == Kind::Array; }
  [[nodiscard]] bool is_string() const { return kind == Kind::String; }
  [[nodiscard]] bool is_number() const { return kind == Kind::Number; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::Bool; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Compact deterministic re-serialization (keys in stored order).
  [[nodiscard]] std::string dump() const;
};

struct JsonParseResult {
  std::optional<JsonValue> value;  ///< empty on error
  std::string error;               ///< human-readable position + reason
};

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
[[nodiscard]] JsonParseResult parse_json(const std::string& text);

/// Escape a string for embedding in a JSON document (adds the quotes).
/// Non-ASCII is written as \uXXXX, so the document is pure ASCII.
[[nodiscard]] std::string json_quote(std::string_view s);

/// Format a double as a JSON-legal number token: shortest round-trip
/// representation, never nan/inf (clamped to 0 with no digits lost in
/// practice — report gauges are always finite).
[[nodiscard]] std::string json_number(double v);

/// Streaming writer: appends tokens to one string and places the commas,
/// colons and line breaks itself; inside an object every value follows a
/// key(). Compact layout is `{"a":1,"b":[2]}`. Pretty puts each member of
/// a container on its own line, indented two spaces per level, except
/// that a container which is an array element goes on one line, with
/// everything inside it, using ", " and ": ".
class JsonWriter {
 public:
  explicit JsonWriter(bool pretty = false) : pretty_(pretty) {}

  JsonWriter& key(std::string_view k);
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  JsonWriter& str(std::string_view v);
  JsonWriter& u64(std::uint64_t v) { return raw(std::to_string(v)); }
  JsonWriter& i64(std::int64_t v) { return raw(std::to_string(v)); }
  JsonWriter& num(double v) { return raw(json_number(v)); }
  JsonWriter& boolean(bool v) { return raw(v ? "true" : "false"); }
  /// An already-rendered token (a request id, `null`), written as is.
  JsonWriter& raw(std::string_view token);

  [[nodiscard]] const std::string& text() const& { return out_; }
  [[nodiscard]] std::string text() && { return std::move(out_); }

 private:
  struct Level {
    bool object;    ///< `{` (members take a key) or `[`
    bool one_line;  ///< members share the container's line
    bool empty = true;
  };

  void value_slot();
  void member_slot();
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);

  bool pretty_;
  bool after_key_ = false;
  std::vector<Level> levels_;
  std::string out_;
};

}  // namespace fpopt::telemetry
