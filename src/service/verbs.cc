#include "service/verbs.h"

#include <array>

namespace bbsmine::service {

namespace {

// Rows follow Verb order (VerbTableTest checks it). CHECKPOINT is
// effectively idempotent but stays at-most-once, the default for any verb
// nobody has argued safe to re-send.
constexpr std::array<VerbInfo, kNumVerbs - 1> kVerbTable = {{
    {Verb::kPing, "PING", true, false},
    {Verb::kCount, "COUNT", true, false},
    {Verb::kInsert, "INSERT", false, false},
    {Verb::kMine, "MINE", true, false},
    {Verb::kStats, "STATS", true, false},
    {Verb::kCheckpoint, "CHECKPOINT", false, false},
    {Verb::kDump, "DUMP", true, false},
    {Verb::kShardInfo, "SHARDINFO", true, false},
    {Verb::kPromote, "PROMOTE", false, false},
    {Verb::kWalStream, "WALSTREAM", false, true},
}};

constexpr VerbInfo kUnknownInfo = {Verb::kUnknown, "UNKNOWN", false, false};

}  // namespace

std::span<const VerbInfo> AllVerbs() { return kVerbTable; }

const VerbInfo& InfoOf(Verb verb) {
  const size_t index = static_cast<size_t>(verb);
  return index == 0 || index > kVerbTable.size() ? kUnknownInfo
                                                 : kVerbTable[index - 1];
}

Verb VerbFromName(std::string_view name) {
  for (const VerbInfo& info : kVerbTable) {
    if (name == info.name) return info.verb;
  }
  return Verb::kUnknown;
}

Verb VerbOf(const obs::JsonValue& request) {
  if (request.kind() != obs::JsonValue::Kind::kObject ||
      !request.Has("verb") ||
      request.at("verb").kind() != obs::JsonValue::Kind::kString) {
    return Verb::kUnknown;
  }
  return VerbFromName(request.at("verb").AsString());
}

bool IsIdempotentVerb(const std::string& verb) {
  return InfoOf(VerbFromName(verb)).idempotent;
}

std::string JoinVerbNames(const char* separator) {
  std::string joined;
  for (const VerbInfo& info : kVerbTable) {
    if (!joined.empty()) joined += separator;
    joined += info.name;
  }
  return joined;
}

}  // namespace bbsmine::service
