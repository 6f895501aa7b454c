// bbsmine — command-line front end for the BBS mining library.
//
// `bbsmine --help` lists the subcommands (kCommands below) and
// `bbsmine <command> --help` the flags of one.
//
// Examples:
//   bbsmine gen --txns 10000 --items 10000 --t 10 --i 10 --out data.fimi
//   bbsmine convert --in data.fimi --out data.db
//   bbsmine build --db data.db --bits 1600 --hashes 4 --out data.bbs
//   bbsmine mine --db data.db --index data.bbs --algo dfp --minsup 0.003
//   bbsmine count --db data.db --index data.bbs --items 3,17,42 --tid-mod 7:0

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "baseline/apriori.h"
#include "baseline/eclat.h"
#include "baseline/fp_tree.h"
#include "core/adhoc.h"
#include "core/approximate.h"
#include "core/bbs_index.h"
#include "core/miner.h"
#include "core/pattern_sets.h"
#include "core/rules.h"
#include "core/segmented_bbs.h"
#include "datagen/quest_gen.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/wire.h"
#include "storage/fimi_io.h"
#include "storage/transaction_db.h"
#include "util/bitvector_kernels.h"
#include "util/flags.h"
#include "util/rusage.h"
#include "util/socket.h"
#include "util/thread_pool.h"

using namespace bbsmine;

namespace {

using enum FlagType;

[[noreturn]] void Die(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  std::exit(1);
}

/// The value of a string flag the command cannot run without.
const std::string& Require(const Flags& args, const char* name) {
  if (args.GetString(name).empty()) {
    std::cerr << "missing required flag --" << name << "\n";
    std::exit(2);
  }
  return args.GetString(name);
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

TransactionDatabase LoadDb(const std::string& path) {
  if (EndsWith(path, ".fimi") || EndsWith(path, ".dat") ||
      EndsWith(path, ".txt")) {
    auto db = ReadFimi(path);
    if (!db.ok()) Die(db.status());
    return std::move(db).value();
  }
  auto db = TransactionDatabase::Load(path);
  if (!db.ok()) Die(db.status());
  return std::move(db).value();
}

IndexBackend ParseBackendFlag(const Flags& args) {
  auto backend = ParseIndexBackend(args.GetString("index-backend"));
  if (!backend.ok()) Die(backend.status());
  return *backend;
}

/// Loads a monolithic index honoring --index-backend: "resident" reads and
/// fully verifies the file into heap slices; "mmap" serves the v2 aligned
/// file in place (header-verified, slice pages faulted on demand).
Result<BbsIndex> LoadIndexWithBackend(const std::string& path,
                                      IndexBackend backend) {
  return backend == IndexBackend::kMmap ? BbsIndex::OpenMmap(path)
                                        : BbsIndex::Load(path);
}

Itemset ParseItems(const std::string& spec) {
  Itemset items;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    items.push_back(static_cast<ItemId>(
        std::strtoul(spec.substr(pos, comma - pos).c_str(), nullptr, 10)));
    pos = comma + 1;
  }
  Canonicalize(&items);
  return items;
}

int CmdGen(const Flags& args) {
  QuestConfig config;
  config.num_transactions = static_cast<uint32_t>(args.GetUint("txns"));
  config.num_items = static_cast<uint32_t>(args.GetUint("items"));
  config.avg_transaction_size = args.GetDouble("t");
  config.avg_pattern_size = args.GetDouble("i");
  config.num_patterns = static_cast<uint32_t>(args.GetUint("patterns"));
  config.seed = args.GetUint("seed");
  std::string out = Require(args, "out");

  auto db = GenerateQuest(config);
  if (!db.ok()) Die(db.status());
  Status status = EndsWith(out, ".fimi") || EndsWith(out, ".dat")
                      ? WriteFimi(*db, out)
                      : db->Save(out);
  if (!status.ok()) Die(status);
  std::printf("wrote %zu transactions (%llu bytes of records) to %s\n",
              db->size(),
              static_cast<unsigned long long>(db->SerializedBytes()),
              out.c_str());
  return 0;
}

int CmdConvert(const Flags& args) {
  TransactionDatabase db = LoadDb(Require(args, "in"));
  std::string out = Require(args, "out");
  Status status = EndsWith(out, ".fimi") || EndsWith(out, ".dat")
                      ? WriteFimi(db, out)
                      : db.Save(out);
  if (!status.ok()) Die(status);
  std::printf("converted %zu transactions to %s\n", db.size(), out.c_str());
  return 0;
}

int CmdBuild(const Flags& args) {
  TransactionDatabase db = LoadDb(Require(args, "db"));
  BbsConfig config;
  config.num_bits = static_cast<uint32_t>(args.GetUint("bits"));
  config.num_hashes = static_cast<uint32_t>(args.GetUint("hashes"));
  std::string hash = args.GetString("hash");
  if (hash == "md5") {
    config.hash_kind = HashKind::kMd5;
  } else if (hash == "mult") {
    config.hash_kind = HashKind::kMultiplyShift;
  } else if (hash == "mod") {
    config.hash_kind = HashKind::kModulo;
  } else {
    std::cerr << "unknown --hash (use md5 | mult | mod)\n";
    return 2;
  }
  config.seed = args.GetUint("seed");
  std::string out = Require(args, "out");

  // --segment-capacity selects a segmented index (one file per segment
  // plus <out>.manifest) — the format bbsmined serves incrementally.
  if (uint64_t capacity = args.GetUint("segment-capacity"); capacity > 0) {
    auto segmented = SegmentedBbs::Create(config, capacity);
    if (!segmented.ok()) Die(segmented.status());
    if (Status st = segmented->InsertAll(db); !st.ok()) Die(st);
    if (Status st = segmented->Save(out); !st.ok()) Die(st);
    std::printf(
        "built segmented BBS: m=%u, k=%u, %zu transactions in %zu "
        "segments of %llu, %llu bytes -> %s.manifest\n",
        segmented->config().num_bits, config.num_hashes,
        segmented->num_transactions(), segmented->num_segments(),
        static_cast<unsigned long long>(capacity),
        static_cast<unsigned long long>(segmented->SerializedBytes()),
        out.c_str());
    return 0;
  }

  auto bbs = BbsIndex::Create(config);
  if (!bbs.ok()) Die(bbs.status());
  bbs->InsertAll(db);
  if (Status st = bbs->Save(out); !st.ok()) Die(st);
  std::printf("built BBS: m=%u, k=%u, %zu transactions, %llu bytes -> %s\n",
              bbs->num_bits(), config.num_hashes, bbs->num_transactions(),
              static_cast<unsigned long long>(bbs->SerializedBytes()),
              out.c_str());
  return 0;
}

int CmdStats(const Flags& args) {
  if (std::string path = args.GetString("db"); !path.empty()) {
    TransactionDatabase db = LoadDb(path);
    uint64_t total_items = 0;
    size_t max_len = 0;
    for (size_t t = 0; t < db.size(); ++t) {
      total_items += db.At(t).items.size();
      max_len = std::max(max_len, db.At(t).items.size());
    }
    std::printf("database %s:\n  transactions: %zu\n  item universe: %u\n"
                "  distinct items: %zu\n  avg txn length: %.2f (max %zu)\n"
                "  serialized bytes: %llu\n",
                path.c_str(), db.size(), db.item_universe(),
                db.DistinctItems().size(),
                db.empty() ? 0.0
                           : static_cast<double>(total_items) /
                                 static_cast<double>(db.size()),
                max_len,
                static_cast<unsigned long long>(db.SerializedBytes()));
  }
  if (std::string path = args.GetString("index"); !path.empty()) {
    auto bbs = BbsIndex::Load(path);
    if (!bbs.ok()) Die(bbs.status());
    size_t min_pop = SIZE_MAX;
    size_t max_pop = 0;
    uint64_t total_pop = 0;
    for (uint32_t s = 0; s < bbs->num_bits(); ++s) {
      size_t pop = bbs->SlicePopcount(s);
      min_pop = std::min(min_pop, pop);
      max_pop = std::max(max_pop, pop);
      total_pop += pop;
    }
    std::printf("index %s:\n  m=%u bits, k=%u hashes, hash kind %d%s\n"
                "  transactions: %zu\n  serialized bytes: %llu\n"
                "  slice popcount min/avg/max: %zu / %.1f / %zu\n",
                path.c_str(), bbs->num_bits(), bbs->config().num_hashes,
                static_cast<int>(bbs->config().hash_kind),
                bbs->is_folded() ? " (folded)" : "",
                bbs->num_transactions(),
                static_cast<unsigned long long>(bbs->SerializedBytes()),
                min_pop == SIZE_MAX ? 0 : min_pop,
                bbs->num_bits()
                    ? static_cast<double>(total_pop) / bbs->num_bits()
                    : 0.0,
                max_pop);
  }
  return 0;
}

int CmdMine(const Flags& args) {
  TransactionDatabase db = LoadDb(Require(args, "db"));
  double min_support = args.GetDouble("minsup");
  std::string algo = args.GetString("algo");
  size_t top = args.GetUint("top");
  std::string stats_json = args.GetString("stats-json");
  std::string trace_out = args.GetString("trace-out");

  std::optional<obs::Tracer> tracer;
  if (!trace_out.empty()) {
    uint32_t categories = obs::kTraceDefault;
    if (args.GetBool("trace-kernels")) categories |= obs::kTraceKernel;
    tracer.emplace(categories);
  }

  // Report context; only the BBS schemes fill the config/index fields.
  MineConfig config;
  uint32_t index_bits = 0;
  uint32_t index_hashes = 0;
  std::string index_backend = "resident";
  uint64_t resident_slice_bytes = 0;
  PageFaultCounters fault_delta;
  bool is_bbs = false;

  MiningResult result;
  if (algo == "apriori") {
    AprioriConfig apriori_config;
    apriori_config.min_support = min_support;
    apriori_config.memory_budget_bytes = args.GetUint("budget");
    result = MineApriori(db, apriori_config);
  } else if (algo == "eclat") {
    EclatConfig eclat_config;
    eclat_config.min_support = min_support;
    result = MineEclat(db, eclat_config);
  } else if (algo == "fpgrowth") {
    FpGrowthConfig fp_config;
    fp_config.min_support = min_support;
    fp_config.memory_budget_bytes = args.GetUint("budget");
    result = MineFpGrowth(db, fp_config);
  } else {
    is_bbs = true;
    config.min_support = min_support;
    config.memory_budget_bytes = args.GetUint("budget");
    config.num_threads = static_cast<uint32_t>(args.GetUint("threads"));
    if (tracer.has_value()) config.tracer = &*tracer;
    if (algo == "sfs") {
      config.algorithm = Algorithm::kSFS;
    } else if (algo == "sfp") {
      config.algorithm = Algorithm::kSFP;
    } else if (algo == "dfs") {
      config.algorithm = Algorithm::kDFS;
    } else if (algo == "dfp") {
      config.algorithm = Algorithm::kDFP;
    } else {
      std::cerr
          << "unknown --algo (sfs|sfp|dfs|dfp|apriori|fpgrowth|eclat)\n";
      return 2;
    }
    auto bbs = LoadIndexWithBackend(Require(args, "index"),
                                    ParseBackendFlag(args));
    if (!bbs.ok()) Die(bbs.status());
    if (bbs->num_transactions() != db.size()) {
      std::cerr << "index/database mismatch: " << bbs->num_transactions()
                << " vs " << db.size() << " transactions\n";
      return 1;
    }
    index_bits = bbs->num_bits();
    index_hashes = bbs->config().num_hashes;
    index_backend = bbs->backend_name();
    resident_slice_bytes = bbs->ApproxResidentBytes();
    const PageFaultCounters faults_before = CurrentPageFaults();
    result = MineFrequentPatterns(db, *bbs, config);
    fault_delta = CurrentPageFaults() - faults_before;
  }

  if (!stats_json.empty() || args.GetBool("report")) {
    obs::RunReportContext ctx;
    for (char& c : algo) c = static_cast<char>(std::toupper(c));
    ctx.scheme = algo;
    ctx.config = is_bbs ? &config : nullptr;
    ctx.num_transactions = db.size();
    ctx.item_universe = db.item_universe();
    ctx.tau = AbsoluteThreshold(min_support, db.size());
    ctx.resolved_threads = static_cast<uint32_t>(
        is_bbs ? ResolveThreads(config.num_threads) : 1);
    ctx.kernel = kernels::ActiveName();
    ctx.index_bits = index_bits;
    ctx.index_hashes = index_hashes;
    ctx.index_backend = index_backend;
    ctx.resident_slice_bytes = resident_slice_bytes;
    ctx.minor_faults = fault_delta.minor;
    ctx.major_faults = fault_delta.major;
    obs::JsonValue report = obs::BuildRunReport(ctx, result);
    if (!stats_json.empty()) {
      if (Status st = obs::WriteJsonFile(report, stats_json); !st.ok()) {
        Die(st);
      }
      std::printf("wrote run report to %s\n", stats_json.c_str());
    }
    if (args.GetBool("report")) obs::PrintRunReportTable(report, std::cout);
  }
  if (tracer.has_value()) {
    if (Status st = tracer->WriteJson(trace_out); !st.ok()) Die(st);
    std::printf("wrote trace (%zu events) to %s\n", tracer->event_count(),
                trace_out.c_str());
  }

  std::printf(
      "%zu frequent patterns (minsup %.4f%%, tau %llu)\n"
      "candidates %llu, false drops %llu, certified %llu, db scans %llu, "
      "%.1f ms\n",
      result.patterns.size(), min_support * 100,
      static_cast<unsigned long long>(
          AbsoluteThreshold(min_support, db.size())),
      static_cast<unsigned long long>(result.stats.candidates),
      static_cast<unsigned long long>(result.stats.false_drops),
      static_cast<unsigned long long>(result.stats.certified),
      static_cast<unsigned long long>(result.stats.db_scans),
      result.stats.total_seconds * 1e3);

  std::sort(result.patterns.begin(), result.patterns.end(),
            [](const Pattern& a, const Pattern& b) {
              return a.support > b.support;
            });
  for (size_t i = 0; i < std::min(top, result.patterns.size()); ++i) {
    std::printf("  %8llu  %s\n",
                static_cast<unsigned long long>(result.patterns[i].support),
                ItemsetToString(result.patterns[i].items).c_str());
  }
  if (args.GetBool("closed") || args.GetBool("maximal")) {
    std::vector<Pattern> condensed = args.GetBool("maximal")
                                         ? MaximalPatterns(result.patterns)
                                         : ClosedPatterns(result.patterns);
    std::printf("%s patterns: %zu of %zu\n",
                args.GetBool("maximal") ? "maximal" : "closed",
                condensed.size(), result.patterns.size());
    result.patterns = std::move(condensed);
  }
  if (std::string out = args.GetString("out"); !out.empty()) {
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::cerr << "cannot open " << out << "\n";
      return 1;
    }
    for (const Pattern& p : result.patterns) {
      for (size_t i = 0; i < p.items.size(); ++i) {
        std::fprintf(f, "%s%u", i ? " " : "", p.items[i]);
      }
      std::fprintf(f, " (%llu)\n",
                   static_cast<unsigned long long>(p.support));
    }
    std::fclose(f);
    std::printf("wrote all patterns to %s\n", out.c_str());
  }
  return 0;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Index-only count: no database, so no refinement — the printed estimate
/// is exactly what the daemon answers from a snapshot of the same index.
/// This is the oracle the CI smoke test diffs `bbsmine client` against.
int CmdCountIndexOnly(const Flags& args) {
  std::string index_arg = Require(args, "index");
  Itemset items = ParseItems(Require(args, "items"));
  size_t estimate;
  size_t transactions;
  const IndexBackend backend = ParseBackendFlag(args);
  if (FileExists(index_arg + ".manifest")) {
    auto segmented = SegmentedBbs::Load(index_arg, nullptr, backend);
    if (!segmented.ok()) Die(segmented.status());
    estimate = segmented->CountItemSet(items);
    transactions = segmented->num_transactions();
  } else {
    auto bbs = LoadIndexWithBackend(index_arg, backend);
    if (!bbs.ok()) Die(bbs.status());
    estimate = bbs->CountItemSet(items);
    transactions = bbs->num_transactions();
  }
  std::printf("pattern %s\n  estimate %zu (no database: estimate only, "
              "%zu transactions indexed)\n",
              ItemsetToString(items).c_str(), estimate, transactions);
  return 0;
}

int CmdCount(const Flags& args) {
  if (args.GetString("db").empty()) return CmdCountIndexOnly(args);
  TransactionDatabase db = LoadDb(Require(args, "db"));
  auto bbs = LoadIndexWithBackend(Require(args, "index"),
                                  ParseBackendFlag(args));
  if (!bbs.ok()) Die(bbs.status());
  Itemset items = ParseItems(Require(args, "items"));

  BitVector constraint;
  const BitVector* constraint_ptr = nullptr;
  if (std::string spec = args.GetString("tid-mod"); !spec.empty()) {
    size_t colon = spec.find(':');
    uint64_t mod = std::strtoull(spec.substr(0, colon).c_str(), nullptr, 10);
    uint64_t rem = colon == std::string::npos
                       ? 0
                       : std::strtoull(spec.substr(colon + 1).c_str(),
                                       nullptr, 10);
    if (mod == 0) {
      std::cerr << "--tid-mod wants M:R with M > 0\n";
      return 2;
    }
    constraint = MakeConstraintSlice(db, [mod, rem](const Transaction& txn) {
      return txn.tid % mod == rem;
    });
    constraint_ptr = &constraint;
  }

  AdhocQueryResult result =
      CountPatternExact(db, *bbs, items, constraint_ptr);
  std::printf("pattern %s%s\n  estimate %llu, exact %llu, probed %llu "
              "transactions\n",
              ItemsetToString(items).c_str(),
              constraint_ptr ? " (constrained)" : "",
              static_cast<unsigned long long>(result.estimate),
              static_cast<unsigned long long>(result.exact),
              static_cast<unsigned long long>(result.probed_transactions));
  return 0;
}

int CmdRules(const Flags& args) {
  TransactionDatabase db = LoadDb(Require(args, "db"));
  double min_support = args.GetDouble("minsup");
  FpGrowthConfig mine;
  mine.min_support = min_support;
  MiningResult result = MineFpGrowth(db, mine);
  result.SortPatterns();

  RuleConfig config;
  config.min_confidence = args.GetDouble("minconf");
  config.max_rules = args.GetUint("top");
  std::vector<AssociationRule> rules =
      GenerateRules(result, db.size(), config);
  std::printf("%zu rules (minsup %.3f%%, minconf %.2f)\n", rules.size(),
              min_support * 100, config.min_confidence);
  for (const AssociationRule& r : rules) {
    std::printf("  %s => %s  conf %.3f  lift %.2f  support %llu\n",
                ItemsetToString(r.antecedent).c_str(),
                ItemsetToString(r.consequent).c_str(), r.confidence, r.lift,
                static_cast<unsigned long long>(r.support));
  }
  return 0;
}

int CmdApprox(const Flags& args) {
  TransactionDatabase db = LoadDb(Require(args, "db"));
  auto bbs = BbsIndex::Load(Require(args, "index"));
  if (!bbs.ok()) Die(bbs.status());
  if (bbs->num_transactions() != db.size()) {
    std::cerr << "index/database mismatch\n";
    return 1;
  }
  ApproxMineConfig config;
  config.min_support = args.GetDouble("minsup");
  config.min_confidence = args.GetDouble("minconf");
  Itemset universe(db.item_universe());
  for (ItemId i = 0; i < db.item_universe(); ++i) universe[i] = i;

  std::vector<ApproxPattern> patterns =
      MineApproximate(*bbs, config, universe);
  size_t certified = 0;
  for (const ApproxPattern& p : patterns) certified += p.certified ? 1 : 0;
  std::printf(
      "%zu approximate patterns (certified %zu) at minsup %.3f%%, "
      "minconf %.2f — no refinement pass was run\n",
      patterns.size(), certified, config.min_support * 100,
      config.min_confidence);
  std::sort(patterns.begin(), patterns.end(),
            [](const ApproxPattern& a, const ApproxPattern& b) {
              return a.est > b.est;
            });
  size_t top = args.GetUint("top");
  for (size_t i = 0; i < std::min(top, patterns.size()); ++i) {
    std::printf("  est %-7llu conf %.3f%s  %s\n",
                static_cast<unsigned long long>(patterns[i].est),
                patterns[i].confidence,
                patterns[i].certified ? "*" : " ",
                ItemsetToString(patterns[i].items).c_str());
  }
  return 0;
}

int CmdSplit(const Flags& args) {
  // Contiguous transaction-range partition for a bbsrouter fleet: shard i
  // holds the i-th range, so concatenating the shard databases in shard
  // order reproduces the input exactly — the invariant cluster answers
  // (and their bit-identity tests) rest on. When the count does not divide
  // evenly the first (size % shards) shards take one extra transaction.
  TransactionDatabase db = LoadDb(Require(args, "db"));
  const uint64_t shards = args.GetUint("shards");
  if (shards == 0 || shards > db.size()) {
    std::cerr << "--shards must be in [1, " << db.size()
              << "] (the database size)\n";
    return 2;
  }
  const std::string prefix = Require(args, "out-prefix");
  const size_t base = db.size() / shards;
  const size_t extra = db.size() % shards;
  size_t next = 0;
  for (size_t s = 0; s < shards; ++s) {
    const size_t take = base + (s < extra ? 1 : 0);
    TransactionDatabase part;
    for (size_t t = 0; t < take; ++t) {
      part.Append(db.At(next++).items);
    }
    const std::string path = prefix + "." + std::to_string(s) + ".db";
    if (Status saved = part.Save(path); !saved.ok()) Die(saved);
    std::printf("shard %zu: %zu transactions -> %s\n", s, part.size(),
                path.c_str());
  }
  return 0;
}

/// Talks to a running bbsmined (docs/SERVICE.md): sends one request frame,
/// prints the response. --json dumps the raw response document (what the
/// CI smoke test parses); the default output is a human-readable summary.
///
/// Backpressure (Unavailable) responses are retried --retries times with
/// exponential backoff; response timeouts are retried only for idempotent
/// verbs (service/verbs.h); transport failures are not retried.
/// Exit codes: 0 ok, 1 application error, 2 usage, 3 transport error,
/// 4 retries exhausted on backpressure, 5 indeterminate (a non-idempotent
/// request such as INSERT was sent but its response timed out — it may or
/// may not have been applied; reconcile before re-sending).
int CmdClient(const Flags& args) {
  const std::string& host = args.GetString("host");
  const uint16_t port = static_cast<uint16_t>(args.GetUint("port"));
  std::string verb = args.GetString("verb");
  for (char& c : verb) c = static_cast<char>(std::toupper(c));

  obs::JsonValue request = obs::JsonValue::Object();
  request.Set("verb", obs::JsonValue::String(verb));
  if (std::string spec = args.GetString("items"); !spec.empty()) {
    request.Set("items", service::ItemsToJson(ParseItems(spec)));
  }
  if (args.Has("minsup")) {
    request.Set("minsup", obs::JsonValue::Double(args.GetDouble("minsup")));
  }
  if (args.Has("top")) {
    request.Set("top", obs::JsonValue::Uint(args.GetUint("top")));
  }
  if (std::string trace_id = args.GetString("trace-id"); !trace_id.empty()) {
    // Client-supplied request identity: the daemon tags this request's
    // spans, slow-log line, and flight-recorder event with it.
    request.Set("trace_id", obs::JsonValue::String(trace_id));
  }

  service::RetryOptions retry;
  retry.retries = static_cast<uint32_t>(args.GetUint("retries"));
  retry.backoff_ms = static_cast<uint32_t>(args.GetUint("backoff-ms"));
  retry.max_backoff_ms =
      static_cast<uint32_t>(args.GetUint("max-backoff-ms"));
  retry.timeout_ms = static_cast<int>(args.GetUint("timeout-ms"));
  retry.jitter_seed = args.GetUint("jitter-seed");

  // One persistent session (the router-pool API); still one-shot here —
  // the process exits after a single exchange, so behavior is unchanged.
  service::ClientSession session(host, port);
  auto outcome = session.CallWithRetry(request, retry);
  if (!outcome.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", verb.c_str(),
                 outcome.status().ToString().c_str());
    // Exhausting retries against a live-but-overloaded daemon (every
    // attempt timed out) is backpressure (4); a timed-out non-idempotent
    // request is indeterminate (5) — it was NOT re-sent and the caller
    // must reconcile; anything else is transport (3).
    if (outcome.status().code() == StatusCode::kIndeterminate) return 5;
    return outcome.status().code() == StatusCode::kUnavailable ? 4 : 3;
  }
  const obs::JsonValue* response = &outcome->response;
  if (outcome->attempts > 1) {
    std::fprintf(stderr, "note: %u attempts\n", outcome->attempts);
  }

  if (args.GetBool("json")) {
    std::printf("%s\n", response->Serialize(2).c_str());
  } else if (!response->at("ok").AsBool()) {
    const obs::JsonValue& error = response->at("error");
    std::fprintf(stderr, "%s failed: %s: %s\n", verb.c_str(),
                 error.at("code").AsString().c_str(),
                 error.at("message").AsString().c_str());
  } else if (service::VerbFromName(verb) == service::Verb::kCount) {
    std::printf("count %llu (epoch %llu, %llu visible transactions, "
                "batch of %llu)\n",
                static_cast<unsigned long long>(
                    response->at("count").AsUint()),
                static_cast<unsigned long long>(
                    response->at("epoch").AsUint()),
                static_cast<unsigned long long>(
                    response->at("visible_transactions").AsUint()),
                static_cast<unsigned long long>(
                    response->at("batch_size").AsUint()));
  } else if (service::VerbFromName(verb) == service::Verb::kMine) {
    const obs::JsonValue& patterns = response->at("patterns");
    std::printf("%llu frequent patterns (showing %zu)\n",
                static_cast<unsigned long long>(
                    response->at("total_frequent").AsUint()),
                patterns.size());
    for (size_t i = 0; i < patterns.size(); ++i) {
      const obs::JsonValue& entry = patterns.at(i);
      Itemset items;
      for (size_t j = 0; j < entry.at("items").size(); ++j) {
        items.push_back(
            static_cast<ItemId>(entry.at("items").at(j).AsUint()));
      }
      std::printf("  %8llu  %s\n",
                  static_cast<unsigned long long>(
                      entry.at("support").AsUint()),
                  ItemsetToString(items).c_str());
    }
  } else {
    std::printf("%s\n", response->Serialize(2).c_str());
  }
  // A router may answer from a partial fleet; make that loudly visible
  // even in the human-readable output (the JSON carries the same fields).
  if (response->Has("degraded") && response->at("degraded").AsBool()) {
    std::string missing;
    const obs::JsonValue& shards = response->at("missing_shards");
    for (size_t i = 0; i < shards.size(); ++i) {
      if (!missing.empty()) missing += ",";
      missing += std::to_string(shards.at(i).AsUint());
    }
    std::fprintf(stderr, "warning: degraded answer (missing shards: %s)\n",
                 missing.c_str());
  }
  if (outcome->backpressure_exhausted) return 4;
  return response->at("ok").AsBool() ? 0 : 1;
}

// Rows several subcommands share.
const FlagSpec kDbFlag = {"db", kString, "", "database (.fimi/.dat = text)"};
const FlagSpec kIndexFlag = {"index", kString, "", "saved BBS index"};
const FlagSpec kIndexBackendFlag = {"index-backend", kString, "resident",
                                    "resident | mmap (same results)"};
const FlagSpec kMinsupFlag = {"minsup", kDouble, "0.003", "minimum support",
                              0, 1};
const FlagSpec kOutFlag = {"out", kString, "", "output (.fimi/.dat = text)"};

const FlagSpec kGenFlags[] = {
    kOutFlag,
    {"txns", kUint, "10000", "transactions", 0, kUint32FlagMax},
    {"items", kUint, "10000", "item universe size", 0, kUint32FlagMax},
    {"t", kDouble, "10", "average transaction size"},
    {"i", kDouble, "10", "average size of the planted patterns"},
    {"patterns", kUint, "2000", "planted patterns", 0, kUint32FlagMax},
    {"seed", kUint, "42", "generator seed"},
};

const FlagSpec kConvertFlags[] = {
    {"in", kString, "", "input database (.fimi/.dat/.txt = text)"},
    kOutFlag,
};

const FlagSpec kBuildFlags[] = {
    kDbFlag,
    {"out", kString, "", "index file (or prefix with --segment-capacity)"},
    {"bits", kUint, "1600", "bits per signature", 0, kUint32FlagMax},
    {"hashes", kUint, "4", "hashes per item", 0, kUint32FlagMax},
    {"hash", kString, "md5", "md5 | mult | mod"},
    {"seed", kUint, "0", "hash seed"},
    {"segment-capacity", kUint, "0",
     "> 0: segmented index (OUT.manifest), the format bbsmined serves",
     0, kUint32FlagMax},
};

const FlagSpec kStatsFlags[] = {kDbFlag, kIndexFlag};

const FlagSpec kMineFlags[] = {
    kDbFlag,
    {"index", kString, "", "saved BBS index (BBS algorithms only)"},
    {"algo", kString, "dfp", "sfs|sfp|dfs|dfp|apriori|fpgrowth|eclat"},
    kMinsupFlag,
    {"budget", kUint, "0", "memory budget in bytes (0 = unlimited)"},
    {"top", kUint, "10", "patterns printed"},
    {"threads", kUint, "1", "BBS threads (0 = hw threads; same patterns)",
     0, kThreadsFlagMax},
    {"closed", kBool, "", "keep only closed patterns"},
    {"maximal", kBool, "", "keep only maximal patterns"},
    {"out", kString, "", "write every pattern to this file"},
    {"stats-json", kString, "", "write the JSON run report here"},
    {"report", kBool, "", "print the human-readable run-report table"},
    {"trace-out", kString, "", "write a Chrome trace here (BBS algorithms)"},
    {"trace-kernels", kBool, "", "also trace per-kernel-call spans"},
    kIndexBackendFlag,
};

const FlagSpec kCountFlags[] = {
    {"db", kString, "", "database; omit for the index-only estimate"},
    kIndexFlag,
    {"items", kString, "", "the itemset, comma-separated"},
    {"tid-mod", kString, "", "M:R counts only transactions whose tid % M == R"},
    kIndexBackendFlag,
};

const FlagSpec kSplitFlags[] = {
    kDbFlag,
    {"shards", kUint, "0", "shard count, in [1, database size]"},
    {"out-prefix", kString, "", "writes PREFIX.0.db .. PREFIX.N-1.db"},
};

const FlagSpec kRulesFlags[] = {
    kDbFlag,
    kMinsupFlag,
    {"minconf", kDouble, "0.5", "minimum confidence", 0, 1},
    {"top", kUint, "20", "rules printed"},
};

const FlagSpec kApproxFlags[] = {
    kDbFlag,
    kIndexFlag,
    kMinsupFlag,
    {"minconf", kDouble, "0", "minimum confidence", 0, 1},
    {"top", kUint, "10", "patterns printed"},
};

const FlagSpec kClientFlags[] = {
    {"host", kString, "127.0.0.1", "daemon or router address"},
    {"port", kUint, "7071", "daemon or router port", 0, kPortFlagMax},
    {"verb", kString, "PING",
     service::JoinVerbNames(" | ") + " (case-insensitive)"},
    {"items", kString, "", "the request's itemset, comma-separated"},
    {"minsup", kDouble, "", "MINE minimum support (absent: daemon's)"},
    {"top", kUint, "", "MINE result cap (absent: the daemon's default)"},
    {"trace-id", kString, "", "trace_id to tag the request with"},
    {"json", kBool, "", "print the raw response document"},
    {"retries", kUint, "0", "backpressure retries", 0, kUint32FlagMax},
    {"backoff-ms", kUint, "100", "base retry backoff", 0, kUint32FlagMax},
    {"max-backoff-ms", kUint, "5000", "retry backoff cap", 0, kUint32FlagMax},
    {"timeout-ms", kUint, "30000", "per-attempt response timeout",
     0, kIntFlagMax},
    {"jitter-seed", kUint, "1", "seed of the deterministic backoff jitter"},
};

struct Command {
  const char* name;
  const char* summary;
  std::span<const FlagSpec> flags;
  int (*run)(const Flags&);
};

const Command kCommands[] = {
    {"gen", "generate a Quest-style synthetic dataset", kGenFlags, CmdGen},
    {"convert", "convert between FIMI text and the binary database format",
     kConvertFlags, CmdConvert},
    {"build", "build a BBS index over a database", kBuildFlags, CmdBuild},
    {"stats", "show database / index statistics", kStatsFlags, CmdStats},
    {"mine", "mine frequent patterns (SFS/SFP/DFS/DFP/apriori/fpgrowth/eclat)",
     kMineFlags, CmdMine},
    {"count", "exact count of an itemset (optionally TID-constrained)",
     kCountFlags, CmdCount},
    {"client",
     "one request to a bbsmined or bbsrouter; exit 0 ok, 1 error, 2 usage,\n"
     "           3 transport, 4 backpressure, 5 indeterminate",
     kClientFlags, CmdClient},
    {"split", "cut a database into transaction ranges for a bbsrouter fleet",
     kSplitFlags, CmdSplit},
    {"rules", "mine association rules", kRulesFlags, CmdRules},
    {"approx", "approximate patterns from the index alone (no refinement)",
     kApproxFlags, CmdApprox},
};

std::string CommandList() {
  std::string list =
      "usage: bbsmine <command> [--flag value | --flag=value ...]\n"
      "commands (bbsmine <command> --help lists its flags):\n";
  for (const Command& command : kCommands) {
    char line[128];
    std::snprintf(line, sizeof(line), "  %-9s", command.name);
    list += line;
    list += command.summary;
    list += '\n';
  }
  return list;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "";
  for (const Command& command : kCommands) {
    if (name != command.name) continue;
    const std::string usage = "usage: bbsmine " + name +
                              " [--flag value | --flag=value ...]\n" +
                              command.summary;
    const Flags args = ParseFlagsOrExit(("bbsmine " + name).c_str(), usage,
                                        command.flags, argc, argv, 2);
    return command.run(args);
  }
  if (name == "--help" || name == "-h") {
    std::cout << CommandList();
    return 0;
  }
  std::cerr << CommandList();
  return 2;
}
