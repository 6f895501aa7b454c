// A minimal JSON document model for the observability layer.
//
// The run-report exporter (obs/report.h) and the phase tracer (obs/trace.h)
// emit machine-readable JSON, and the round-trip tests and CI schema checks
// need to read it back. This module provides the small shared piece: a JSON
// value that can be built programmatically, serialized, and parsed again
// without external dependencies.
//
// Numbers keep their lexical class: values written as integers serialize
// and re-parse as exact 64-bit integers (counters must round-trip exactly),
// while doubles serialize with enough digits (%.17g) to round-trip
// bit-exactly through strtod.

#ifndef BBSMINE_OBS_JSON_H_
#define BBSMINE_OBS_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace bbsmine::obs {

/// One JSON value: null, bool, number, string, array, or object.
/// Object member order is preserved (reports should read stably).
class JsonValue {
 public:
  enum class Kind : uint8_t {
    kNull,
    kBool,
    kInt,     // signed 64-bit integer (lexically integral)
    kUint,    // unsigned 64-bit integer that does not fit int64
    kDouble,  // any number with a fraction or exponent
    kString,
    kArray,
    kObject,
  };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool v);
  static JsonValue Int(int64_t v);
  static JsonValue Uint(uint64_t v);
  static JsonValue Double(double v);
  static JsonValue String(std::string v);
  static JsonValue Array();
  static JsonValue Object();

  Kind kind() const { return kind_; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kUint || kind_ == Kind::kDouble;
  }

  // Accessors; the caller is responsible for checking kind() (an accessor of
  // the wrong kind returns a zero value rather than crashing, so schema
  // validation code can stay linear). AsInt/AsUint truncate a double
  // toward zero and saturate one outside the target range.
  bool AsBool() const;
  int64_t AsInt() const;
  uint64_t AsUint() const;
  double AsDouble() const;
  const std::string& AsString() const;

  // Array operations.
  size_t size() const;
  const JsonValue& at(size_t index) const;       // array element
  JsonValue& Append(JsonValue v);                 // returns the stored element

  // Object operations.
  bool Has(const std::string& key) const;
  const JsonValue& at(const std::string& key) const;  // null value if absent
  JsonValue* MutableAt(const std::string& key);       // nullptr if absent
  JsonValue& Set(const std::string& key, JsonValue v);
  const std::vector<std::string>& keys() const { return keys_; }

  /// Serializes the value. `indent` > 0 pretty-prints with that many spaces
  /// per level; 0 emits a compact single line.
  std::string Serialize(int indent = 2) const;

  /// Deepest container nesting Parse accepts. Parsing recurses once per
  /// level, so the bound keeps a hostile document from exhausting the
  /// stack; nothing this project writes nests more than a handful deep.
  static constexpr size_t kMaxDepth = 256;

  /// Parses a complete JSON document (trailing whitespace allowed).
  /// Containers nested deeper than kMaxDepth are InvalidArgument.
  static Result<JsonValue> Parse(const std::string& text);

 private:
  void SerializeTo(std::string* out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  uint64_t uint_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::string> keys_;  // object member order
  std::map<std::string, JsonValue> members_;
};

/// Escapes a string for embedding in a JSON document (no surrounding
/// quotes). Exposed for the tracer's hand-rolled argument lists.
std::string JsonEscape(const std::string& s);

/// Writes `value` to `path` (pretty-printed, trailing newline).
Status WriteJsonFile(const JsonValue& value, const std::string& path);

/// Reads and parses the JSON document at `path`.
Result<JsonValue> ReadJsonFile(const std::string& path);

}  // namespace bbsmine::obs

#endif  // BBSMINE_OBS_JSON_H_
