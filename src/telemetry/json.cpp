#include "telemetry/json.h"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace fpopt::telemetry {

namespace {

/// Appends `code` (a Unicode scalar value) to `out` as UTF-8.
void append_utf8(std::string& out, unsigned code) {
  if (code <= 0x7F) {
    out += static_cast<char>(code);
  } else if (code <= 0x7FF) {
    out += static_cast<char>(0xC0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else if (code <= 0xFFFF) {
    out += static_cast<char>(0xE0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (code >> 18));
    out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonParseResult run() {
    JsonParseResult out;
    JsonValue v;
    if (!parse_value(v)) {
      out.error = error_;
      return out;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      out.error = at() + "trailing characters after the document";
      return out;
    }
    out.value = std::move(v);
    return out;
  }

 private:
  [[nodiscard]] std::string at() const {
    return "json offset " + std::to_string(pos_) + ": ";
  }

  bool fail(const std::string& why) {
    if (error_.empty()) error_ = at() + why;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(const char* word, std::size_t len) {
    if (text_.compare(pos_, len, word) != 0) return fail("bad literal");
    pos_ += len;
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (++depth_ > 64) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    bool ok = false;
    switch (text_[pos_]) {
      case '{': ok = parse_object(out); break;
      case '[': ok = parse_array(out); break;
      case '"':
        out.kind = JsonValue::Kind::String;
        ok = parse_string(out.string);
        break;
      case 't':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = true;
        ok = literal("true", 4);
        break;
      case 'f':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = false;
        ok = literal("false", 5);
        break;
      case 'n':
        out.kind = JsonValue::Kind::Null;
        ok = literal("null", 4);
        break;
      default: ok = parse_number(out); break;
    }
    --depth_;
    return ok;
  }

  bool parse_hex4(unsigned& code) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else return fail("bad \\u escape");
    }
    return true;
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned code = 0;
            if (!parse_hex4(code)) return false;
            // Surrogate pairs: a high surrogate must be followed by a
            // \uXXXX low surrogate; the pair decodes to one supplementary
            // code point. Lone surrogates are malformed.
            if (code >= 0xD800 && code <= 0xDBFF) {
              if (pos_ + 2 > text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
                return fail("high surrogate without a low surrogate");
              }
              pos_ += 2;
              unsigned low = 0;
              if (!parse_hex4(low)) return false;
              if (low < 0xDC00 || low > 0xDFFF) {
                return fail("high surrogate without a low surrogate");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else if (code >= 0xDC00 && code <= 0xDFFF) {
              return fail("lone low surrogate");
            }
            append_utf8(out, code);
            break;
          }
          default: return fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool any_digit = false;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        any_digit = true;
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (!any_digit) return fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    out.kind = JsonValue::Kind::Number;
    out.number = std::strtod(token.c_str(), nullptr);
    if (integral) {
      const auto res =
          std::from_chars(token.data(), token.data() + token.size(), out.integer);
      out.is_integer =
          res.ec == std::errc() && res.ptr == token.data() + token.size();
    }
    return true;
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::Object;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected object key");
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      JsonValue v;
      if (!parse_value(v)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::Array;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue v;
      if (!parse_value(v)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

void write_value(JsonWriter& w, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::Null: w.raw("null"); return;
    case JsonValue::Kind::Bool: w.boolean(v.boolean); return;
    case JsonValue::Kind::Number:
      if (v.is_integer) {
        w.i64(v.integer);
      } else {
        w.num(v.number);
      }
      return;
    case JsonValue::Kind::String: w.str(v.string); return;
    case JsonValue::Kind::Array:
      w.begin_array();
      for (const JsonValue& e : v.array) write_value(w, e);
      w.end_array();
      return;
    case JsonValue::Kind::Object:
      w.begin_object();
      for (const auto& [k, e] : v.object) write_value(w.key(k), e);
      w.end_object();
      return;
  }
}

}  // namespace

std::string JsonValue::dump() const {
  JsonWriter w;
  write_value(w, *this);
  return std::move(w).text();
}

JsonParseResult parse_json(const std::string& text) { return Parser(text).run(); }

namespace {

void append_u_escape(std::string& out, unsigned code) {
  char buf[8];
  if (code > 0xFFFF) {
    // Supplementary plane: JSON \u escapes are UTF-16, so emit the
    // surrogate pair.
    code -= 0x10000;
    std::snprintf(buf, sizeof buf, "\\u%04x", 0xD800 + (code >> 10));
    out += buf;
    std::snprintf(buf, sizeof buf, "\\u%04x", 0xDC00 + (code & 0x3FF));
    out += buf;
    return;
  }
  std::snprintf(buf, sizeof buf, "\\u%04x", code);
  out += buf;
}

/// Decodes one UTF-8 sequence at s[i]; advances i past it and returns the
/// code point, or returns 0xFFFD (advancing one byte) on malformed input.
unsigned decode_utf8(std::string_view s, std::size_t& i) {
  const auto byte = [&](std::size_t j) { return static_cast<unsigned char>(s[j]); };
  const unsigned lead = byte(i);
  std::size_t len = 0;
  unsigned code = 0;
  if (lead < 0xC0) {
    ++i;  // stray continuation byte (ASCII is handled by the caller)
    return 0xFFFD;
  }
  if (lead < 0xE0) { len = 2; code = lead & 0x1F; }
  else if (lead < 0xF0) { len = 3; code = lead & 0x0F; }
  else if (lead < 0xF8) { len = 4; code = lead & 0x07; }
  else { ++i; return 0xFFFD; }
  if (i + len > s.size()) { ++i; return 0xFFFD; }
  for (std::size_t j = 1; j < len; ++j) {
    if ((byte(i + j) & 0xC0) != 0x80) { ++i; return 0xFFFD; }
    code = (code << 6) | (byte(i + j) & 0x3F);
  }
  // Reject overlong encodings, surrogates and out-of-range values.
  static constexpr unsigned kMin[5] = {0, 0, 0x80, 0x800, 0x10000};
  if (code < kMin[len] || code > 0x10FFFF || (code >= 0xD800 && code <= 0xDFFF)) {
    ++i;
    return 0xFFFD;
  }
  i += len;
  return code;
}

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (std::size_t i = 0; i < s.size();) {
    const char c = s[i];
    switch (c) {
      case '"': out += "\\\""; ++i; continue;
      case '\\': out += "\\\\"; ++i; continue;
      case '\n': out += "\\n"; ++i; continue;
      case '\r': out += "\\r"; ++i; continue;
      case '\t': out += "\\t"; ++i; continue;
      default: break;
    }
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x20) {
      append_u_escape(out, u);
      ++i;
    } else if (u < 0x80) {
      out += c;
      ++i;
    } else {
      // Non-ASCII: escape as \uXXXX so the emitted document is pure
      // ASCII regardless of the consumer's encoding handling.
      append_u_escape(out, decode_utf8(s, i));
    }
  }
  out += '"';
}

}  // namespace

std::string json_quote(std::string_view s) {
  std::string out;
  append_quoted(out, s);
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  // %.17g round-trips every finite double; trim to the shortest form that
  // still round-trips so the output stays readable and deterministic.
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void JsonWriter::member_slot() {
  if (levels_.empty()) return;
  Level& top = levels_.back();
  if (!top.empty) out_ += ',';
  if (pretty_) {
    if (!top.one_line) {
      out_ += '\n';
      out_.append(2 * levels_.size(), ' ');
    } else if (!top.empty) {
      out_ += ' ';
    }
  }
  top.empty = false;
}

void JsonWriter::value_slot() {
  if (after_key_) {
    after_key_ = false;  // key() already placed the member
    return;
  }
  assert((levels_.empty() || !levels_.back().object) && "object member without a key");
  member_slot();
}

JsonWriter& JsonWriter::key(std::string_view k) {
  assert(!levels_.empty() && levels_.back().object && !after_key_);
  member_slot();
  append_quoted(out_, k);
  out_ += pretty_ ? ": " : ":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::open(char bracket) {
  // An array element starts a one-line container; so does anything
  // inside one.
  const bool element = !after_key_ && !levels_.empty();
  const bool one_line = element || (!levels_.empty() && levels_.back().one_line);
  value_slot();
  out_ += bracket;
  levels_.push_back({bracket == '{', one_line});
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  assert(!levels_.empty() && !after_key_ && levels_.back().object == (bracket == '}'));
  const Level top = levels_.back();
  levels_.pop_back();
  if (pretty_ && !top.one_line && !top.empty) {
    out_ += '\n';
    out_.append(2 * levels_.size(), ' ');
  }
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::str(std::string_view v) {
  value_slot();
  append_quoted(out_, v);
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view token) {
  value_slot();
  out_ += token;
  return *this;
}

}  // namespace fpopt::telemetry
