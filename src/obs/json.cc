#include "obs/json.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/file_io.h"

namespace bbsmine::obs {

JsonValue JsonValue::Bool(bool v) {
  JsonValue j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::Int(int64_t v) {
  JsonValue j;
  j.kind_ = Kind::kInt;
  j.int_ = v;
  return j;
}

JsonValue JsonValue::Uint(uint64_t v) {
  JsonValue j;
  if (v <= static_cast<uint64_t>(INT64_MAX)) {
    j.kind_ = Kind::kInt;
    j.int_ = static_cast<int64_t>(v);
  } else {
    j.kind_ = Kind::kUint;
    j.uint_ = v;
  }
  return j;
}

JsonValue JsonValue::Double(double v) {
  JsonValue j;
  j.kind_ = Kind::kDouble;
  j.double_ = v;
  return j;
}

JsonValue JsonValue::String(std::string v) {
  JsonValue j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}

JsonValue JsonValue::Array() {
  JsonValue j;
  j.kind_ = Kind::kArray;
  return j;
}

JsonValue JsonValue::Object() {
  JsonValue j;
  j.kind_ = Kind::kObject;
  return j;
}

bool JsonValue::AsBool() const { return kind_ == Kind::kBool && bool_; }

int64_t JsonValue::AsInt() const {
  switch (kind_) {
    case Kind::kInt:
      return int_;
    case Kind::kUint:
      return static_cast<int64_t>(uint_);
    case Kind::kDouble:
      // Saturate: converting a double outside int64's range (or NaN) to an
      // integer is undefined behaviour, and parsed input can hold 1e300.
      if (!(double_ > -0x1p63)) return double_ < 0 ? INT64_MIN : 0;
      if (double_ >= 0x1p63) return INT64_MAX;
      return static_cast<int64_t>(double_);
    default:
      return 0;
  }
}

uint64_t JsonValue::AsUint() const {
  switch (kind_) {
    case Kind::kInt:
      return int_ < 0 ? 0 : static_cast<uint64_t>(int_);
    case Kind::kUint:
      return uint_;
    case Kind::kDouble:
      if (!(double_ > 0)) return 0;  // negative or NaN
      if (double_ >= 0x1p64) return UINT64_MAX;
      return static_cast<uint64_t>(double_);
    default:
      return 0;
  }
}

double JsonValue::AsDouble() const {
  switch (kind_) {
    case Kind::kInt:
      return static_cast<double>(int_);
    case Kind::kUint:
      return static_cast<double>(uint_);
    case Kind::kDouble:
      return double_;
    default:
      return 0;
  }
}

const std::string& JsonValue::AsString() const {
  static const std::string kEmpty;
  return kind_ == Kind::kString ? string_ : kEmpty;
}

size_t JsonValue::size() const {
  if (kind_ == Kind::kArray) return array_.size();
  if (kind_ == Kind::kObject) return keys_.size();
  return 0;
}

const JsonValue& JsonValue::at(size_t index) const {
  static const JsonValue kNull;
  if (kind_ != Kind::kArray || index >= array_.size()) return kNull;
  return array_[index];
}

JsonValue& JsonValue::Append(JsonValue v) {
  kind_ = Kind::kArray;
  array_.push_back(std::move(v));
  return array_.back();
}

bool JsonValue::Has(const std::string& key) const {
  return kind_ == Kind::kObject && members_.count(key) != 0;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  static const JsonValue kNull;
  auto it = members_.find(key);
  return it == members_.end() ? kNull : it->second;
}

JsonValue* JsonValue::MutableAt(const std::string& key) {
  auto it = members_.find(key);
  return it == members_.end() ? nullptr : &it->second;
}

JsonValue& JsonValue::Set(const std::string& key, JsonValue v) {
  kind_ = Kind::kObject;
  auto [it, inserted] = members_.insert_or_assign(key, std::move(v));
  if (inserted) keys_.push_back(key);
  return it->second;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void AppendNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no Infinity/NaN; emit null like most encoders.
    *out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
  // Keep the lexical double class on round-trip: "%.17g" may print an
  // integral double as "3", which would re-parse as an integer.
  if (std::strpbrk(buf, ".eE") == nullptr) *out += ".0";
}

void Indent(std::string* out, int indent, int depth) {
  if (indent <= 0) return;
  out->push_back('\n');
  out->append(static_cast<size_t>(indent) * depth, ' ');
}

}  // namespace

void JsonValue::SerializeTo(std::string* out, int indent, int depth) const {
  char buf[32];
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      return;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Kind::kInt:
      std::snprintf(buf, sizeof(buf), "%" PRId64, int_);
      *out += buf;
      return;
    case Kind::kUint:
      std::snprintf(buf, sizeof(buf), "%" PRIu64, uint_);
      *out += buf;
      return;
    case Kind::kDouble:
      AppendNumber(out, double_);
      return;
    case Kind::kString:
      *out += '"';
      *out += JsonEscape(string_);
      *out += '"';
      return;
    case Kind::kArray: {
      if (array_.empty()) {
        *out += "[]";
        return;
      }
      *out += '[';
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) *out += ',';
        Indent(out, indent, depth + 1);
        array_[i].SerializeTo(out, indent, depth + 1);
      }
      Indent(out, indent, depth);
      *out += ']';
      return;
    }
    case Kind::kObject: {
      if (keys_.empty()) {
        *out += "{}";
        return;
      }
      *out += '{';
      for (size_t i = 0; i < keys_.size(); ++i) {
        if (i != 0) *out += ',';
        Indent(out, indent, depth + 1);
        *out += '"';
        *out += JsonEscape(keys_[i]);
        *out += "\": ";
        members_.at(keys_[i]).SerializeTo(out, indent, depth + 1);
      }
      Indent(out, indent, depth);
      *out += '}';
      return;
    }
  }
}

std::string JsonValue::Serialize(int indent) const {
  std::string out;
  SerializeTo(&out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent parser over a complete document.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Run() {
    JsonValue value;
    if (Status st = ParseValue(&value, 0); !st.ok()) return st;
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("json: " + message + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    size_t len = std::strlen(literal);
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  /// `depth` counts the containers enclosing the value.
  Status ParseValue(JsonValue* out, size_t depth) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth + 1);
    if (c == '[') return ParseArray(out, depth + 1);
    if (c == '"') return ParseString(out);
    if (ConsumeLiteral("null")) {
      *out = JsonValue::Null();
      return Status::Ok();
    }
    if (ConsumeLiteral("true")) {
      *out = JsonValue::Bool(true);
      return Status::Ok();
    }
    if (ConsumeLiteral("false")) {
      *out = JsonValue::Bool(false);
      return Status::Ok();
    }
    return ParseNumber(out);
  }

  Status ParseObject(JsonValue* out, size_t depth) {
    ++pos_;  // '{'
    if (depth > JsonValue::kMaxDepth) return Error("nesting too deep");
    *out = JsonValue::Object();
    if (Consume('}')) return Status::Ok();
    for (;;) {
      SkipWhitespace();
      JsonValue key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      if (Status st = ParseString(&key); !st.ok()) return st;
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      if (Status st = ParseValue(&value, depth); !st.ok()) return st;
      out->Set(key.AsString(), std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, size_t depth) {
    ++pos_;  // '['
    if (depth > JsonValue::kMaxDepth) return Error("nesting too deep");
    *out = JsonValue::Array();
    if (Consume(']')) return Status::Ok();
    for (;;) {
      JsonValue value;
      if (Status st = ParseValue(&value, depth); !st.ok()) return st;
      out->Append(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Error("expected ',' or ']'");
    }
  }

  Status ParseString(JsonValue* out) {
    ++pos_;  // '"'
    std::string value;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        *out = JsonValue::String(std::move(value));
        return Status::Ok();
      }
      if (c != '\\') {
        value += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          value += esc;
          break;
        case 'n':
          value += '\n';
          break;
        case 'r':
          value += '\r';
          break;
        case 't':
          value += '\t';
          break;
        case 'b':
          value += '\b';
          break;
        case 'f':
          value += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape");
            }
          }
          // The reports only ever escape control characters; decode the
          // BMP code point as UTF-8.
          if (code < 0x80) {
            value += static_cast<char>(code);
          } else if (code < 0x800) {
            value += static_cast<char>(0xC0 | (code >> 6));
            value += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            value += static_cast<char>(0xE0 | (code >> 12));
            value += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            value += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Error("expected a value");
    std::string token = text_.substr(start, pos_ - start);
    if (integral) {
      errno = 0;
      if (token[0] == '-') {
        int64_t v = std::strtoll(token.c_str(), nullptr, 10);
        if (errno == ERANGE) return Error("integer out of range");
        *out = JsonValue::Int(v);
      } else {
        uint64_t v = std::strtoull(token.c_str(), nullptr, 10);
        if (errno == ERANGE) return Error("integer out of range");
        *out = JsonValue::Uint(v);
      }
    } else {
      *out = JsonValue::Double(std::strtod(token.c_str(), nullptr));
    }
    return Status::Ok();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  return Parser(text).Run();
}

Status WriteJsonFile(const JsonValue& value, const std::string& path) {
  return WriteBinaryFile(path, value.Serialize(2) + "\n");
}

Result<JsonValue> ReadJsonFile(const std::string& path) {
  auto text = ReadBinaryFile(path);
  if (!text.ok()) return text.status();
  return JsonValue::Parse(*text);
}

}  // namespace bbsmine::obs
