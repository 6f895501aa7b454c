// The tools' command lines as a user meets them: each tool rejects an
// unknown flag with exit 2, and the flag tables of bbsmined, bbsrouter and
// bbsbench match the doc tables that describe them (every flag a doc table
// names is declared by the tool, and every declared flag appears in the
// doc table). The tools' --help output is generated from their tables, so
// it stands in for the tables here.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace bbsmine {
namespace {

/// Runs `command` (stderr folded into stdout); returns its exit code.
int RunCommand(const std::string& command, std::string* out) {
  std::FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return -1;
  char buf[4096];
  while (size_t n = std::fread(buf, 1, sizeof(buf), pipe)) out->append(buf, n);
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Flag names (without "--") listed by `binary --help`.
std::set<std::string> HelpFlags(const std::string& binary) {
  std::set<std::string> flags;
  std::string out;
  EXPECT_EQ(RunCommand(binary + " --help", &out), 0) << binary;
  static const std::regex kFlagLine("^  --([a-z0-9-]+)");
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    std::smatch match;
    if (std::regex_search(line, match, kFlagLine)) flags.insert(match[1]);
  }
  return flags;
}

/// Flag names in the first column of the first table after `heading` in
/// the doc at `path` (relative to the source tree).
std::set<std::string> DocTableFlags(const std::string& path,
                                    const std::string& heading) {
  std::set<std::string> flags;
  std::ifstream in(std::string(BBSMINE_SOURCE_DIR) + "/" + path);
  EXPECT_TRUE(in.good()) << path;
  std::string line;
  while (std::getline(in, line) && line != heading) {
  }
  EXPECT_EQ(line, heading) << path << " lacks the heading";
  std::vector<std::string> rows;
  while (std::getline(in, line)) {
    if (line.rfind("|", 0) == 0) {
      rows.push_back(line);
    } else if (!rows.empty()) {
      break;
    }
  }
  static const std::regex kFlag("--([a-z0-9][a-z0-9-]*)");
  for (const std::string& row : rows) {
    // The first cell ends at the next '|' that is not escaped as "\|".
    size_t end = 1;
    while (end < row.size() && (row[end] != '|' || row[end - 1] == '\\')) {
      ++end;
    }
    const std::string cell = row.substr(1, end - 1);
    for (std::sregex_iterator it(cell.begin(), cell.end(), kFlag), last;
         it != last; ++it) {
      flags.insert((*it)[1]);
    }
  }
  EXPECT_FALSE(flags.empty()) << path << ": no flags under " << heading;
  return flags;
}

// Each command also finishes at once where unknown flags used to be
// ignored: bbsmined's --segment-capacity 0 and bbsrouter's and bbsbench's
// missing targets each exit 2 on their own.
TEST(ToolFlagsTest, EveryToolRejectsAnUnknownFlag) {
  for (const std::string& command :
       {std::string(BBSMINED_BIN) + " --no-such-flag --segment-capacity 0",
        std::string(BBSROUTER_BIN) + " --no-such-flag",
        std::string(BBSBENCH_BIN) + " --no-such-flag",
        std::string(BBSMINE_BIN) + " stats --no-such-flag"}) {
    std::string out;
    EXPECT_EQ(RunCommand(command, &out), 2) << command;
    EXPECT_NE(out.find("unknown flag --no-such-flag"), std::string::npos)
        << command << ": " << out;
  }
}

TEST(ToolFlagsTest, MalformedNumbersExitTwo) {
  for (const std::string& command :
       {std::string(BBSMINED_BIN) + " --port 7071x --segment-capacity 0",
        std::string(BBSMINE_BIN) + " stats --bogus=1",
        std::string(BBSMINE_BIN) + " mine --threads -1"}) {
    std::string out;
    EXPECT_EQ(RunCommand(command, &out), 2) << command << ": " << out;
  }
}

// A segment opens as one block of its capacity, so the capacity is capped
// like any count a tool casts to 32 bits.
TEST(ToolFlagsTest, OversizedSegmentCapacityExitsTwo) {
  for (const std::string& command :
       {std::string(BBSMINED_BIN) + " --segment-capacity 4294967296",
        std::string(BBSMINE_BIN) +
            " build --db x.db --out x --segment-capacity 4294967296"}) {
    std::string out;
    EXPECT_EQ(RunCommand(command, &out), 2) << command << ": " << out;
    EXPECT_NE(out.find("segment-capacity"), std::string::npos) << out;
  }
}

TEST(ToolDocsTest, DaemonFlagsMatchServiceDoc) {
  EXPECT_EQ(DocTableFlags("docs/SERVICE.md", "## Daemon flags"),
            HelpFlags(BBSMINED_BIN));
}

TEST(ToolDocsTest, RouterFlagsMatchClusterDoc) {
  EXPECT_EQ(DocTableFlags("docs/CLUSTER.md", "## Router flags"),
            HelpFlags(BBSROUTER_BIN));
}

TEST(ToolDocsTest, BenchFlagsMatchBenchmarksDoc) {
  EXPECT_EQ(DocTableFlags("docs/BENCHMARKS.md",
                          "## bbsbench: the traffic harness"),
            HelpFlags(BBSBENCH_BIN));
}

}  // namespace
}  // namespace bbsmine
