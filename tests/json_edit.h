// One-member edits of a parsed JSON document, for the validators'
// negative tables: each row names a member by JSON pointer and gives the
// value it gets (or none, to remove it), so a row breaks exactly one rule
// of a real document.
#pragma once

#include <cstddef>
#include <string>

#include "telemetry/json.h"

namespace fpopt::test {

struct JsonEdit {
  const char* pointer;  ///< "/a/0/b" (RFC 6901, no escapes); "" is the root
  const char* json;     ///< the new value as JSON text; nullptr removes the member
};

/// Applies `edit` to `doc`. The last step of the pointer may name a new
/// object key (appended) or the index one past an array's end (appended).
/// Returns false when the pointer does not resolve or the value does not
/// parse.
inline bool apply_edit(telemetry::JsonValue& doc, const JsonEdit& edit) {
  telemetry::JsonValue replacement;
  if (edit.json != nullptr) {
    telemetry::JsonParseResult parsed = telemetry::parse_json(edit.json);
    if (!parsed.value.has_value()) return false;
    replacement = std::move(*parsed.value);
  }
  const std::string pointer = edit.pointer;
  if (pointer.empty()) {
    if (edit.json == nullptr) return false;
    doc = std::move(replacement);
    return true;
  }
  telemetry::JsonValue* node = &doc;
  std::size_t pos = 0;
  while (pos < pointer.size()) {
    if (pointer[pos] != '/') return false;
    const std::size_t next = pointer.find('/', pos + 1);
    const std::string step =
        pointer.substr(pos + 1, next == std::string::npos ? std::string::npos : next - pos - 1);
    const bool last = next == std::string::npos;
    pos = last ? pointer.size() : next;
    if (node->is_object()) {
      auto& members = node->object;
      std::size_t i = 0;
      while (i < members.size() && members[i].first != step) ++i;
      if (!last) {
        if (i == members.size()) return false;
        node = &members[i].second;
        continue;
      }
      if (edit.json == nullptr) {
        if (i == members.size()) return false;
        members.erase(members.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (i == members.size()) {
        members.emplace_back(step, std::move(replacement));
      } else {
        members[i].second = std::move(replacement);
      }
      return true;
    }
    if (!node->is_array() || step.empty() ||
        step.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    auto& elements = node->array;
    const std::size_t i = std::stoul(step);
    if (!last) {
      if (i >= elements.size()) return false;
      node = &elements[i];
      continue;
    }
    if (edit.json == nullptr) {
      if (i >= elements.size()) return false;
      elements.erase(elements.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (i == elements.size()) {
      elements.push_back(std::move(replacement));
    } else if (i < elements.size()) {
      elements[i] = std::move(replacement);
    } else {
      return false;
    }
    return true;
  }
  return false;
}

/// "pointer = json" (or "pointer removed"), for SCOPED_TRACE.
inline std::string edit_label(const JsonEdit& edit) {
  const std::string where = *edit.pointer == '\0' ? "(root)" : edit.pointer;
  return edit.json == nullptr ? where + " removed" : where + " = " + edit.json;
}

}  // namespace fpopt::test
