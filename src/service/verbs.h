// The wire verbs, declared once: server and router dispatch, the client's
// retry policy, the flight recorder and the per-verb STATS metrics all read
// the one table in verbs.cc, so a verb's name and semantics cannot drift
// between them.

#ifndef BBSMINE_SERVICE_VERBS_H_
#define BBSMINE_SERVICE_VERBS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "obs/json.h"

namespace bbsmine::service {

/// Fits one atomic byte (flight-recorder slots).
enum class Verb : uint8_t {
  kUnknown = 0,  ///< no string "verb" member, or a name this build lacks
  kPing,
  kCount,
  kInsert,
  kMine,
  kStats,
  kCheckpoint,
  kDump,
  kShardInfo,
  kPromote,
  kWalStream,
};

/// Size of Verb-indexed arrays (kUnknown included).
inline constexpr size_t kNumVerbs = static_cast<size_t>(Verb::kWalStream) + 1;

struct VerbInfo {
  Verb verb;
  const char* name;  ///< wire spelling
  /// May be blindly re-sent after a response timeout: applying it twice is
  /// indistinguishable from once. Unknown verbs are at-most-once.
  bool idempotent;
  /// Upgrades the connection to a long-lived stream instead of one
  /// response; such a verb has no request metrics.
  bool streaming;
};

/// Every known verb, in Verb order (kUnknown excluded).
std::span<const VerbInfo> AllVerbs();

/// The row of `verb`; kUnknown's is {"UNKNOWN", false, false}.
const VerbInfo& InfoOf(Verb verb);

inline const char* VerbName(Verb verb) { return InfoOf(verb).name; }

/// The verb spelled exactly `name`, or kUnknown.
Verb VerbFromName(std::string_view name);

/// kUnknown unless `request` is an object whose "verb" member is a string
/// naming a known verb.
Verb VerbOf(const obs::JsonValue& request);

/// InfoOf(VerbFromName(verb)).idempotent.
bool IsIdempotentVerb(const std::string& verb);

/// The known verb names joined by `separator` (help texts).
std::string JoinVerbNames(const char* separator);

}  // namespace bbsmine::service

#endif  // BBSMINE_SERVICE_VERBS_H_
