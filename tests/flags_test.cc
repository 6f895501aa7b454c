// Tests for the typed flag parser (util/flags.h): every rejection the tools
// rely on, the three bool forms, defaults, and the generated --help.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/flags.h"

namespace bbsmine {
namespace {

using enum FlagType;

const FlagSpec kSpecs[] = {
    {"port", kUint, "7071", "TCP port", 0, 65535},
    {"threads", kUint, "0", "worker threads", 0, 1024},
    {"minsup", kDouble, "0.003", "minimum support", 0, 1},
    {"db", kString, "", "database file"},
    {"host", kString, "127.0.0.1", "bind address"},
    {"top", kUint, "", "result cap", 1, kNoFlagMax},
    {"no-prune", kBool, "", "disable pruning"},
};

/// Parses `args` (the tool name is prepended) against kSpecs.
Result<Flags> Parse(std::vector<std::string> args) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return ParseFlags(kSpecs, static_cast<int>(argv.size()), argv.data(), 1);
}

std::string RejectionOf(std::vector<std::string> args) {
  Result<Flags> flags = Parse(std::move(args));
  EXPECT_FALSE(flags.ok());
  if (flags.ok()) return "";
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument);
  return flags.status().message();
}

TEST(FlagsTest, DefaultsApplyWhenAbsent) {
  Result<Flags> flags = Parse({});
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EQ(flags->GetUint("port"), 7071u);
  EXPECT_DOUBLE_EQ(flags->GetDouble("minsup"), 0.003);
  EXPECT_EQ(flags->GetString("host"), "127.0.0.1");
  EXPECT_EQ(flags->GetString("db"), "");
  EXPECT_FALSE(flags->GetBool("no-prune"));
  EXPECT_FALSE(flags->Has("port"));
  EXPECT_FALSE(flags->Has("top"));
  EXPECT_FALSE(flags->help());
}

TEST(FlagsTest, BothValueFormsParse) {
  Result<Flags> flags =
      Parse({"--port", "0", "--minsup=0.5", "--db", "x.db", "--top=3"});
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EQ(flags->GetUint("port"), 0u);
  EXPECT_TRUE(flags->Has("port"));
  EXPECT_DOUBLE_EQ(flags->GetDouble("minsup"), 0.5);
  EXPECT_EQ(flags->GetString("db"), "x.db");
  EXPECT_EQ(flags->GetUint("top"), 3u);
}

TEST(FlagsTest, BoolFormsAgree) {
  Result<Flags> bare = Parse({"--no-prune"});
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare->GetBool("no-prune"));
  Result<Flags> set = Parse({"--no-prune=true"});
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(set->GetBool("no-prune"));
  Result<Flags> cleared = Parse({"--no-prune=false"});
  ASSERT_TRUE(cleared.ok());
  EXPECT_FALSE(cleared->GetBool("no-prune"));
  EXPECT_TRUE(cleared->Has("no-prune"));
  EXPECT_NE(RejectionOf({"--no-prune=1"}).find("--no-prune"),
            std::string::npos);
  // A bool never takes the next argument, so it reads as a positional.
  EXPECT_NE(RejectionOf({"--no-prune", "true"}).find("unexpected argument"),
            std::string::npos);
}

TEST(FlagsTest, RejectsUnknownFlagsAndPositionals) {
  EXPECT_EQ(RejectionOf({"--no-such-flag"}), "unknown flag --no-such-flag");
  EXPECT_EQ(RejectionOf({"--no-such-flag=3"}), "unknown flag --no-such-flag");
  EXPECT_NE(RejectionOf({"stray"}).find("unexpected argument"),
            std::string::npos);
}

TEST(FlagsTest, RejectsMalformedNumbers) {
  for (const char* bad : {"7071x", "", " 7", "+7", "0x10", "7.0", "1e3"}) {
    EXPECT_NE(RejectionOf({std::string("--port=") + bad}).find("--port"),
              std::string::npos)
        << bad;
  }
  EXPECT_NE(RejectionOf({"--port", "7071x"}).find("7071x"), std::string::npos);
  EXPECT_NE(RejectionOf({"--minsup=0.1x"}).find("--minsup"),
            std::string::npos);
  EXPECT_NE(RejectionOf({"--minsup=nan"}).find("--minsup"), std::string::npos);
  EXPECT_NE(RejectionOf({"--minsup=inf"}).find("--minsup"), std::string::npos);
  // 2^64 overflows a uint64.
  EXPECT_NE(RejectionOf({"--threads=18446744073709551616"}).find("--threads"),
            std::string::npos);
}

TEST(FlagsTest, RejectsNegativeAndOutOfRangeNumbers) {
  EXPECT_NE(RejectionOf({"--threads", "-1"}).find("non-negative"),
            std::string::npos);
  EXPECT_NE(RejectionOf({"--port", "65536"}).find("[0,65535]"),
            std::string::npos);
  EXPECT_TRUE(Parse({"--port", "65535"}).ok());
  EXPECT_NE(RejectionOf({"--threads=1025"}).find("--threads"),
            std::string::npos);
  EXPECT_TRUE(Parse({"--threads=1024"}).ok());
  EXPECT_NE(RejectionOf({"--minsup=-0.5"}).find("--minsup"),
            std::string::npos);
  EXPECT_NE(RejectionOf({"--minsup=1.5"}).find("--minsup"), std::string::npos);
  EXPECT_NE(RejectionOf({"--top=0"}).find("[1,inf)"), std::string::npos);
}

TEST(FlagsTest, RejectsMissingValues) {
  EXPECT_EQ(RejectionOf({"--port"}), "--port is missing its value");
  EXPECT_EQ(RejectionOf({"--db", "--port", "1"}), "--db is missing its value");
}

TEST(FlagsTest, HelpIsRequestedAnywhere) {
  Result<Flags> flags = Parse({"--port", "1", "--help"});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->help());
  Result<Flags> short_form = Parse({"-h"});
  ASSERT_TRUE(short_form.ok());
  EXPECT_TRUE(short_form->help());
}

TEST(FlagsTest, HelpListsEveryFlagWithItsDefault) {
  const std::string help = FlagsHelp(kSpecs);
  for (const FlagSpec& spec : kSpecs) {
    const size_t at = help.find("  --" + spec.name + " ");
    const size_t at_end = help.find("  --" + spec.name + "\n");
    ASSERT_TRUE(at != std::string::npos || at_end != std::string::npos)
        << spec.name << " missing from:\n"
        << help;
    if (!spec.default_value.empty()) {
      EXPECT_NE(help.find("(default " + spec.default_value + ")"),
                std::string::npos)
          << spec.name;
    }
  }
  EXPECT_NE(help.find("[0,65535]"), std::string::npos);
  for (size_t start = 0, end; start < help.size(); start = end + 1) {
    end = help.find('\n', start);
    EXPECT_LE(end - start, 79u) << help.substr(start, end - start);
  }
}

}  // namespace
}  // namespace bbsmine
