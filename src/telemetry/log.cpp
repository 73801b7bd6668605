#include "telemetry/log.h"

#include <chrono>
#include <ostream>

namespace fpopt::telemetry {

bool parse_log_level(const std::string& name, LogLevel& out) {
  if (name == "debug") {
    out = LogLevel::kDebug;
  } else if (name == "info") {
    out = LogLevel::kInfo;
  } else if (name == "warn") {
    out = LogLevel::kWarn;
  } else if (name == "error") {
    out = LogLevel::kError;
  } else if (name == "off") {
    out = LogLevel::kOff;
  } else {
    return false;
  }
  return true;
}

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "info";
}

void LogSink::write_line(const std::string& line) {
  if constexpr (!kEnabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  *out_ << line << '\n';
  out_->flush();
  // relaxed: commutative counter, read only for monitoring.
  lines_.fetch_add(1, std::memory_order_relaxed);
}

LogEvent::LogEvent(LogSink* sink, LogLevel level, const char* event)
    : sink_(sink != nullptr && sink->enabled(level) ? sink : nullptr) {
  if (!live()) return;
  line_.begin_object();
  if (sink_->stamp_time()) {
    const auto now = std::chrono::system_clock::now().time_since_epoch();
    line_.key("ts_ms").i64(std::chrono::duration_cast<std::chrono::milliseconds>(now).count());
  }
  line_.key("level").str(log_level_name(level)).key("event").str(event);
}

LogEvent& LogEvent::str(const char* key, const std::string& value) {
  if (live()) line_.key(key).str(value);
  return *this;
}

LogEvent& LogEvent::num(const char* key, std::uint64_t value) {
  if (live()) line_.key(key).u64(value);
  return *this;
}

LogEvent& LogEvent::num_signed(const char* key, std::int64_t value) {
  if (live()) line_.key(key).i64(value);
  return *this;
}

LogEvent& LogEvent::dbl(const char* key, double value) {
  if (live()) line_.key(key).num(value);
  return *this;
}

LogEvent& LogEvent::flag(const char* key, bool value) {
  if (live()) line_.key(key).boolean(value);
  return *this;
}

void LogEvent::emit() {
  if (!live()) return;
  line_.end_object();
  sink_->write_line(line_.text());
  sink_ = nullptr;
}

}  // namespace fpopt::telemetry
