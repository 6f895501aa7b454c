// Typed command-line flags, declared once per tool.
//
// A tool (or one `bbsmine` subcommand) declares a table of FlagSpec rows.
// ParseFlags reads argv against that table and nothing else, and FlagsHelp
// renders `--help` from it, so a flag's syntax, type, range, default and
// help cannot drift apart.
//
// Accepted: `--name value` and `--name=value`; a bool flag is true bare or
// as `--name=true`, false as `--name=false`, and never takes the next
// argument. Rejected: an unknown flag, a positional argument, a missing
// value, a number with trailing garbage (`7071x`), a negative or
// fractional value for an unsigned flag, and a value outside [min, max].

#ifndef BBSMINE_UTIL_FLAGS_H_
#define BBSMINE_UTIL_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>

#include "util/status.h"

namespace bbsmine {

/// FlagsHelp names values by this order (STR, N, F, none).
enum class FlagType { kString, kUint, kDouble, kBool };

inline constexpr double kNoFlagMax = std::numeric_limits<double>::infinity();
/// Bounds tables share: a TCP port; a thread count (a fixed cap, so no
/// value can ask the OS for an absurd number of threads); and the ranges
/// of the narrower integers some values are cast to.
inline constexpr double kPortFlagMax = 65535;
inline constexpr double kThreadsFlagMax = 1024;
inline constexpr double kUint32FlagMax = std::numeric_limits<uint32_t>::max();
inline constexpr double kIntFlagMax = std::numeric_limits<int>::max();

struct FlagSpec {
  std::string name;  ///< spelled `--name`
  FlagType type;
  /// Used when the flag is absent, in command-line syntax. "" = none: the
  /// flag reads as absent (bool flags default to false).
  std::string default_value;
  std::string help;
  /// Inclusive range of a kUint or kDouble value.
  double min = 0;
  double max = kNoFlagMax;
};

/// One command line parsed against one table.
class Flags {
 public:
  Flags(std::span<const FlagSpec> specs,
        std::map<std::string, std::string> given, bool help)
      : specs_(specs), given_(std::move(given)), help_(help) {}

  /// True when `--help` or `-h` was given.
  bool help() const { return help_; }

  /// True when the command line set the flag (a default does not count).
  bool Has(std::string_view name) const;

  /// The value given, else the default; a string flag with neither reads
  /// "". Reading an undeclared name, a name through the wrong type, or a
  /// numeric flag with neither value is a programming error and aborts.
  const std::string& GetString(std::string_view name) const;
  uint64_t GetUint(std::string_view name) const;
  double GetDouble(std::string_view name) const;
  bool GetBool(std::string_view name) const;

 private:
  /// The given value, else the default (nullptr when neither exists).
  const std::string* Value(std::string_view name, FlagType type) const;

  std::span<const FlagSpec> specs_;
  std::map<std::string, std::string> given_;
  bool help_ = false;
};

/// Parses argv[first, argc) against `specs`, which must outlive the result.
/// Every rejection is InvalidArgument naming the flag.
Result<Flags> ParseFlags(std::span<const FlagSpec> specs, int argc,
                         char** argv, int first);

/// The `--help` text of a table: each flag with its help, default and range.
std::string FlagsHelp(std::span<const FlagSpec> specs);

/// ParseFlags for a tool's main: on `--help` prints `usage` and the table to
/// stdout and exits 0; on rejected input prints `tool: <reason>` to stderr
/// and exits 2.
Flags ParseFlagsOrExit(const std::string& tool, const std::string& usage,
                       std::span<const FlagSpec> specs, int argc, char** argv,
                       int first);

}  // namespace bbsmine

#endif  // BBSMINE_UTIL_FLAGS_H_
