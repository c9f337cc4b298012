// Minimal JSON reader/writer for the dist layer's on-disk artifacts
// (work units, checkpoints, shard results).
//
// Scope: exactly the JSON subset those documents need — objects,
// arrays, strings, booleans, null, and numbers — parsed defensively
// (a truncated or bit-flipped checkpoint must fail loudly, never
// crash or read garbage), and serialized CANONICALLY: object keys in
// sorted order, no whitespace, integers in plain decimal, doubles in
// round-trip "%.17g". Canonical serialization is load-bearing: the
// dist layer CRCs Serialize(payload) and re-verifies the CRC after a
// parse, so Serialize(Parse(Serialize(v))) must be byte-stable.
//
// Numbers keep integer/double identity: integral tokens that fit are
// stored as uint64/int64 exactly (seeds use the full 64-bit range,
// which a double would silently truncate); everything else is a
// double. AsDouble() widens from the integer kinds, so readers of
// honest floating-point fields (Eb/N0 values) need not care that
// "3" parsed as an integer.
//
// All failures — malformed input, wrong-kind access, missing keys —
// throw std::invalid_argument with a message naming the problem.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace cldpc::util {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kUint, kInt, kDouble, kString, kArray, kObject };

  JsonValue() = default;  // null

  static JsonValue Object();
  static JsonValue Array();
  static JsonValue Bool(bool v);
  static JsonValue Uint(std::uint64_t v);
  static JsonValue Int(std::int64_t v);
  /// Must be finite (the schema has no encoding for nan/inf).
  static JsonValue Double(double v);
  static JsonValue Str(std::string v);

  Kind kind() const { return kind_; }
  bool IsNull() const { return kind_ == Kind::kNull; }
  bool IsObject() const { return kind_ == Kind::kObject; }
  bool IsArray() const { return kind_ == Kind::kArray; }
  bool IsString() const { return kind_ == Kind::kString; }

  // Checked accessors; wrong-kind access throws.
  bool AsBool() const;
  /// kUint, or a non-negative kInt.
  std::uint64_t AsUint() const;
  std::int64_t AsInt() const;
  /// kDouble, or widened from kUint / kInt.
  double AsDouble() const;
  const std::string& AsString() const;
  const std::vector<JsonValue>& AsArray() const;
  const std::map<std::string, JsonValue>& AsObject() const;

  // Object helpers (throw unless this is an object).
  bool Has(const std::string& key) const;
  /// Member lookup; a missing key throws naming it.
  const JsonValue& At(const std::string& key) const;
  void Set(std::string key, JsonValue v);

  // Array helper (throws unless this is an array).
  void PushBack(JsonValue v);

  /// Canonical, byte-stable serialization (see the header comment).
  std::string Serialize() const;

  /// Strict parse of a complete document; trailing non-whitespace,
  /// overlong nesting and every malformation throw.
  static JsonValue Parse(std::string_view text);

 private:
  Kind kind_ = Kind::kNull;
  bool b_ = false;
  std::uint64_t u_ = 0;
  std::int64_t i_ = 0;
  double d_ = 0.0;
  std::string s_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;  // sorted = canonical order
};

/// `s` as a quoted JSON string literal, escaped exactly as
/// Serialize() escapes strings and keys.
std::string JsonQuote(const std::string& s);

}  // namespace cldpc::util
