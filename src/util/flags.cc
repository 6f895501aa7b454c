#include "util/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace bbsmine {

namespace {

/// Strict decimal integer: digits only, no sign, no overflow.
bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != text.npos) {
    return false;
  }
  errno = 0;
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return errno != ERANGE;
}

/// A finite number with nothing after it.
bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size() &&
         errno != ERANGE && std::isfinite(*out);
}

/// "[min,max]", or "[min,inf)" when unbounded; one word, so help wrapping
/// never splits it.
std::string RangeText(const FlagSpec& spec) {
  char buf[64];
  if (std::isinf(spec.max)) {
    std::snprintf(buf, sizeof(buf), "[%.15g,inf)", spec.min);
  } else {
    std::snprintf(buf, sizeof(buf), "[%.15g,%.15g]", spec.min, spec.max);
  }
  return buf;
}

Status CheckValue(const FlagSpec& spec, const std::string& text) {
  const std::string flag = "--" + spec.name;
  double value = 0;
  uint64_t whole = 0;
  switch (spec.type) {
    case FlagType::kString:
      return Status::Ok();
    case FlagType::kBool:
      if (text == "true" || text == "false") return Status::Ok();
      return Status::InvalidArgument(flag + " takes no value, =true or " +
                                     "=false, got \"" + text + "\"");
    case FlagType::kUint:
      if (!ParseUint(text, &whole)) {
        return Status::InvalidArgument(
            flag + " wants a non-negative integer, got \"" + text + "\"");
      }
      value = static_cast<double>(whole);
      break;
    case FlagType::kDouble:
      if (!ParseDouble(text, &value)) {
        return Status::InvalidArgument(flag + " wants a number, got \"" +
                                       text + "\"");
      }
      break;
  }
  if (value < spec.min || value > spec.max) {
    return Status::InvalidArgument(flag + " must be in " + RangeText(spec) +
                                   ", got " + text);
  }
  return Status::Ok();
}

const FlagSpec* Find(std::span<const FlagSpec> specs, std::string_view name) {
  for (const FlagSpec& spec : specs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

[[noreturn]] void Misuse(std::string_view name, const char* what) {
  std::cerr << "flags: --" << name << " " << what << "\n";
  std::abort();
}

}  // namespace

const std::string* Flags::Value(std::string_view name, FlagType type) const {
  const FlagSpec* spec = Find(specs_, name);
  if (spec == nullptr) Misuse(name, "is not declared");
  if (spec->type != type) Misuse(name, "is read through the wrong type");
  if (auto it = given_.find(spec->name); it != given_.end()) {
    return &it->second;
  }
  return spec->default_value.empty() ? nullptr : &spec->default_value;
}

bool Flags::Has(std::string_view name) const {
  if (Find(specs_, name) == nullptr) Misuse(name, "is not declared");
  return given_.count(std::string(name)) != 0;
}

const std::string& Flags::GetString(std::string_view name) const {
  static const std::string kEmpty;
  const std::string* value = Value(name, FlagType::kString);
  return value != nullptr ? *value : kEmpty;
}

uint64_t Flags::GetUint(std::string_view name) const {
  const std::string* value = Value(name, FlagType::kUint);
  uint64_t parsed = 0;
  if (value == nullptr || !ParseUint(*value, &parsed)) {
    Misuse(name, "has no valid value or default");
  }
  return parsed;
}

double Flags::GetDouble(std::string_view name) const {
  const std::string* value = Value(name, FlagType::kDouble);
  double parsed = 0;
  if (value == nullptr || !ParseDouble(*value, &parsed)) {
    Misuse(name, "has no valid value or default");
  }
  return parsed;
}

bool Flags::GetBool(std::string_view name) const {
  const std::string* value = Value(name, FlagType::kBool);
  return value != nullptr && *value == "true";
}

Result<Flags> ParseFlags(std::span<const FlagSpec> specs, int argc,
                         char** argv, int first) {
  std::map<std::string, std::string> given;
  bool help = false;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument \"" + arg + "\"");
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == arg.npos ? eq : eq - 2);
    const FlagSpec* spec = Find(specs, name);
    if (spec == nullptr) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    std::string value;
    if (eq != arg.npos) {
      value = arg.substr(eq + 1);
    } else if (spec->type == FlagType::kBool) {
      value = "true";
    } else if (i + 1 < argc &&
               std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    } else {
      return Status::InvalidArgument("--" + name + " is missing its value");
    }
    BBSMINE_RETURN_IF_ERROR(CheckValue(*spec, value));
    given[name] = std::move(value);
  }
  return Flags(specs, std::move(given), help);
}

std::string FlagsHelp(std::span<const FlagSpec> specs) {
  constexpr size_t kIndent = 28;  // where help text starts
  constexpr size_t kWidth = 79;
  static const char* const kValueName[] = {" STR", " N", " F", ""};
  std::string out;
  for (const FlagSpec& spec : specs) {
    const std::string head =
        "  --" + spec.name + kValueName[static_cast<int>(spec.type)];
    out += head;
    size_t column = head.size();
    if (column >= kIndent) {  // a long name gets its help on the next line
      out += '\n';
      column = 0;
    }
    std::string text = spec.help;
    if (!spec.default_value.empty()) {
      text += " (default " + spec.default_value + ")";
    }
    if ((spec.type == FlagType::kUint || spec.type == FlagType::kDouble) &&
        (spec.min > 0 || !std::isinf(spec.max))) {
      text += ' ';
      text += RangeText(spec);
    }
    // Word-wrap the help into the columns [kIndent, kWidth).
    for (size_t pos = 0; pos < text.size();) {
      size_t end = text.find(' ', pos);
      if (end == text.npos) end = text.size();
      if (column > kIndent && column + 1 + (end - pos) > kWidth) {
        out += '\n';
        column = 0;
      }
      const size_t pad = column < kIndent ? kIndent - column : 1;
      out.append(pad, ' ');
      out.append(text, pos, end - pos);
      column += pad + (end - pos);
      pos = end + 1;
    }
    out += '\n';
  }
  return out;
}

Flags ParseFlagsOrExit(const std::string& tool, const std::string& usage,
                       std::span<const FlagSpec> specs, int argc, char** argv,
                       int first) {
  Result<Flags> flags = ParseFlags(specs, argc, argv, first);
  if (!flags.ok()) {
    std::cerr << tool << ": " << flags.status().message() << " (see --help)\n";
    std::exit(2);
  }
  if (flags->help()) {
    std::cout << usage << "\n" << FlagsHelp(specs);
    std::exit(0);
  }
  return std::move(*flags);
}

}  // namespace bbsmine
