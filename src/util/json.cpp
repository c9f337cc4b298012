#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace cldpc::util {
namespace {

[[noreturn]] void Fail(const std::string& what) {
  throw std::invalid_argument("json: " + what);
}

const char* KindName(JsonValue::Kind k) {
  switch (k) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kUint: return "uint";
    case JsonValue::Kind::kInt: return "int";
    case JsonValue::Kind::kDouble: return "double";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void WrongKind(const char* wanted, JsonValue::Kind got) {
  Fail(std::string("expected ") + wanted + ", found " + KindName(got));
}

void AppendEscaped(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// Recursive-descent parser over a bounded view. Depth is capped so a
// corrupt (or hostile) checkpoint of "[[[[..." cannot blow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue ParseDocument() {
    JsonValue v = ParseValue(0);
    SkipWs();
    if (pos_ != text_.size()) Fail("trailing characters after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool Consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue ParseValue(int depth) {
    if (depth > kMaxDepth) Fail("nesting too deep");
    SkipWs();
    const char c = Peek();
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') return JsonValue::Str(ParseString());
    if (c == 't') {
      if (!Consume("true")) Fail("bad literal");
      return JsonValue::Bool(true);
    }
    if (c == 'f') {
      if (!Consume("false")) Fail("bad literal");
      return JsonValue::Bool(false);
    }
    if (c == 'n') {
      if (!Consume("null")) Fail("bad literal");
      return JsonValue();
    }
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
    Fail("unexpected character");
  }

  JsonValue ParseObject(int depth) {
    Expect('{');
    JsonValue obj = JsonValue::Object();
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      SkipWs();
      std::string key = ParseString();
      SkipWs();
      Expect(':');
      if (obj.Has(key)) Fail("duplicate key \"" + key + "\"");
      obj.Set(std::move(key), ParseValue(depth + 1));
      SkipWs();
      const char c = Peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') Fail("expected ',' or '}' in object");
    }
  }

  JsonValue ParseArray(int depth) {
    Expect('[');
    JsonValue arr = JsonValue::Array();
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.PushBack(ParseValue(depth + 1));
      SkipWs();
      const char c = Peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') Fail("expected ',' or ']' in array");
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) Fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) Fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else Fail("bad \\u escape digit");
          }
          // UTF-8 encode the code point (surrogate pairs are not
          // needed by our writers; lone surrogates encode as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: Fail("bad escape character");
      }
    }
  }

  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") Fail("malformed number");
    if (integral) {
      errno = 0;
      if (token[0] == '-') {
        char* end = nullptr;
        const long long v = std::strtoll(token.c_str(), &end, 10);
        if (errno == 0 && end == token.c_str() + token.size())
          return JsonValue::Int(static_cast<std::int64_t>(v));
      } else {
        char* end = nullptr;
        const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
        if (errno == 0 && end == token.c_str() + token.size())
          return JsonValue::Uint(static_cast<std::uint64_t>(v));
      }
      // Out-of-range integral literal: fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(d))
      Fail("malformed number \"" + token + "\"");
    return JsonValue::Double(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.b_ = b;
  return v;
}

JsonValue JsonValue::Uint(std::uint64_t u) {
  JsonValue v;
  v.kind_ = Kind::kUint;
  v.u_ = u;
  return v;
}

JsonValue JsonValue::Int(std::int64_t i) {
  JsonValue v;
  v.kind_ = Kind::kInt;
  v.i_ = i;
  return v;
}

JsonValue JsonValue::Double(double d) {
  if (!std::isfinite(d)) Fail("non-finite double");
  JsonValue v;
  v.kind_ = Kind::kDouble;
  v.d_ = d;
  return v;
}

JsonValue JsonValue::Str(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.s_ = std::move(s);
  return v;
}

bool JsonValue::AsBool() const {
  if (kind_ != Kind::kBool) WrongKind("bool", kind_);
  return b_;
}

std::uint64_t JsonValue::AsUint() const {
  if (kind_ == Kind::kUint) return u_;
  if (kind_ == Kind::kInt && i_ >= 0) return static_cast<std::uint64_t>(i_);
  WrongKind("uint", kind_);
}

std::int64_t JsonValue::AsInt() const {
  if (kind_ == Kind::kInt) return i_;
  if (kind_ == Kind::kUint && u_ <= static_cast<std::uint64_t>(INT64_MAX))
    return static_cast<std::int64_t>(u_);
  WrongKind("int", kind_);
}

double JsonValue::AsDouble() const {
  if (kind_ == Kind::kDouble) return d_;
  if (kind_ == Kind::kUint) return static_cast<double>(u_);
  if (kind_ == Kind::kInt) return static_cast<double>(i_);
  WrongKind("double", kind_);
}

const std::string& JsonValue::AsString() const {
  if (kind_ != Kind::kString) WrongKind("string", kind_);
  return s_;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  if (kind_ != Kind::kArray) WrongKind("array", kind_);
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::AsObject() const {
  if (kind_ != Kind::kObject) WrongKind("object", kind_);
  return object_;
}

bool JsonValue::Has(const std::string& key) const {
  return AsObject().count(key) != 0;
}

const JsonValue& JsonValue::At(const std::string& key) const {
  const auto& obj = AsObject();
  const auto it = obj.find(key);
  if (it == obj.end()) Fail("missing key \"" + key + "\"");
  return it->second;
}

void JsonValue::Set(std::string key, JsonValue v) {
  if (kind_ != Kind::kObject) WrongKind("object", kind_);
  object_[std::move(key)] = std::move(v);
}

void JsonValue::PushBack(JsonValue v) {
  if (kind_ != Kind::kArray) WrongKind("array", kind_);
  array_.push_back(std::move(v));
}

std::string JsonValue::Serialize() const {
  std::string out;
  switch (kind_) {
    case Kind::kNull:
      out = "null";
      break;
    case Kind::kBool:
      out = b_ ? "true" : "false";
      break;
    case Kind::kUint:
      out = std::to_string(u_);
      break;
    case Kind::kInt:
      out = std::to_string(i_);
      break;
    case Kind::kDouble: {
      // %.17g round-trips every finite double; an integral-valued
      // double serializes as "3" and reparses as an integer kind,
      // but the TEXT is stable, which is the canonical-form contract
      // (the CRC runs over text, AsDouble() widens on read).
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", d_);
      out = buf;
      break;
    }
    case Kind::kString:
      AppendEscaped(s_, out);
      break;
    case Kind::kArray: {
      out = "[";
      bool first = true;
      for (const auto& v : array_) {
        if (!first) out += ",";
        first = false;
        out += v.Serialize();
      }
      out += "]";
      break;
    }
    case Kind::kObject: {
      out = "{";
      bool first = true;
      for (const auto& [key, v] : object_) {  // std::map: sorted keys
        if (!first) out += ",";
        first = false;
        AppendEscaped(key, out);
        out += ":";
        out += v.Serialize();
      }
      out += "}";
      break;
    }
  }
  return out;
}

JsonValue JsonValue::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

std::string JsonQuote(const std::string& s) {
  std::string out;
  AppendEscaped(s, out);
  return out;
}

}  // namespace cldpc::util
