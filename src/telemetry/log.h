// Structured JSONL logging for the long-lived daemon: one JSON object
// per line, leveled, with deterministic field order (fields render in
// the order the call site adds them, after the fixed ts/level/event
// prefix). A LogSink serializes whole lines under one mutex so
// concurrent emitters never interleave bytes.
//
// Under FPOPT_TELEMETRY=OFF, `LogSink::enabled()` is constant false and
// LogEvent never formats anything — logging compiles to no-ops just
// like the rest of the telemetry layer.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>

#include "telemetry/json.h"
#include "telemetry/telemetry.h"

namespace fpopt::telemetry {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// "debug"/"info"/"warn"/"error" -> level; returns false on unknown name.
bool parse_log_level(const std::string& name, LogLevel& out);
/// Level -> fixed lowercase name ("off" for kOff).
const char* log_level_name(LogLevel level);

/// Thread-safe sink writing one line per event to an ostream the caller
/// owns (stderr or a --log-file stream). `stamp_time=false` drops the
/// wall-clock `ts_ms` field for byte-deterministic test output.
class LogSink {
 public:
  explicit LogSink(std::ostream& out, LogLevel min_level = LogLevel::kInfo,
                   bool stamp_time = true)
      : out_(&out), min_level_(min_level), stamp_time_(stamp_time) {}

  [[nodiscard]] bool enabled(LogLevel level) const {
    return kEnabled && level >= min_level_ && level < LogLevel::kOff;
  }
  [[nodiscard]] bool stamp_time() const { return stamp_time_; }

  /// Append one already-formatted line (no trailing newline) and flush.
  void write_line(const std::string& line);

  /// Lines written so far (0 when telemetry is compiled out).
  [[nodiscard]] std::uint64_t lines() const {
    // relaxed: monitoring read of a commutative counter.
    return lines_.load(std::memory_order_relaxed);
  }

 private:
  std::ostream* out_;
  LogLevel min_level_;
  bool stamp_time_;
  std::mutex mu_;
  std::atomic<std::uint64_t> lines_{0};
};

/// Builder for one log line. Fields render in call order after the
/// fixed prefix {"ts_ms":...,"level":...,"event":...}. The line is
/// written on destruction (or emit()); when the sink is null or the
/// level is below threshold the builder does no formatting at all.
class LogEvent {
 public:
  LogEvent(LogSink* sink, LogLevel level, const char* event);
  ~LogEvent() { emit(); }
  LogEvent(const LogEvent&) = delete;
  LogEvent& operator=(const LogEvent&) = delete;

  LogEvent& str(const char* key, const std::string& value);
  LogEvent& num(const char* key, std::uint64_t value);
  LogEvent& num_signed(const char* key, std::int64_t value);
  LogEvent& dbl(const char* key, double value);
  LogEvent& flag(const char* key, bool value);

  /// Write the line now (idempotent).
  void emit();

 private:
  [[nodiscard]] bool live() const { return sink_ != nullptr; }
  LogSink* sink_;  ///< null when suppressed: all appends are no-ops
  JsonWriter line_;
};

}  // namespace fpopt::telemetry
