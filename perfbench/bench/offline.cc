// mine_offline: the paper's miners called in-process on one database — DFP,
// SFS, and DFP under a memory budget smaller than the index (the adaptive,
// folded path) — plus exact ad-hoc COUNTs (filter by the index, refine by
// probing the database). No socket, no service layer, no cluster layer.

#include <algorithm>
#include <fstream>

#include "baseline/fp_tree.h"
#include "bench.h"
#include "core/adhoc.h"
#include "core/miner.h"

namespace perfbench {

namespace obs = bbsmine::obs;
using bbsmine::BbsIndex;
using bbsmine::MiningResult;
using bbsmine::Pattern;

namespace {

// Length of each block of exact COUNTs between mining rounds.
constexpr double kCountBlockS = 0.25;

// The host's memory speed drifts over minutes with no CPU time stolen: in
// a slow spell every pass and COUNT block of a run is 30-70 % slower, and
// the fastest repetition cannot remove that. So every round also times
// this fixed loop, shaped like the index's slice scans: AND and popcount of
// 3000 pseudo-random groups of four slices of a buffer as large as the
// index (1600 slices of 100 000 bits). It is the benchmark's own code, the
// same on every build, and the gated figures are scaled by kReferenceMs /
// its fastest time in the run: they read as on a host whose memory runs
// the loop in kReferenceMs (its calm time on the reference machine). In
// one slow spell the fastest DFP pass rose 34 % and the loop 29 %.
constexpr double kReferenceMs = 17.5;

class MemoryReference {
 public:
  MemoryReference() : words_(kSlices * kSliceWords) {
    for (size_t i = 0; i < words_.size(); ++i) {
      words_[i] = (i + 1) * 0x9e3779b97f4a7c15ull;
      words_[i] ^= words_[i] >> 29;
    }
  }
  double Ms() const {
    uint64_t x = 0x2545f4914f6cdd1dull, acc = 0;
    const auto start = Clock::now();
    for (int group = 0; group < 3000; ++group) {
      const uint64_t* slice[4];
      for (const uint64_t*& p : slice) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        p = words_.data() + (x % kSlices) * kSliceWords;
      }
      for (size_t w = 0; w < kSliceWords; ++w) {
        acc += __builtin_popcountll(slice[0][w] & slice[1][w] & slice[2][w] &
                                    slice[3][w]);
      }
    }
    const double ms = SecondsSince(start) * 1e3;
    asm volatile("" : : "r"(acc));  // keep the loop
    return ms;
  }

 private:
  static constexpr size_t kSlices = 1600;
  static constexpr size_t kSliceWords = (100'000 + 63) / 64;
  std::vector<uint64_t> words_;
};

double OwnPeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

struct Pass {
  const char* name;
  bbsmine::MineConfig config;
  std::vector<double> ms;
  std::vector<MiningResult> results;  // every pass, sorted
};

// Exact supports by intersecting per-item transaction lists: an oracle that
// shares no code with the index.
class TidListOracle {
 public:
  explicit TidListOracle(const TransactionDatabase& db) {
    for (size_t t = 0; t < db.size(); ++t) {
      for (auto item : db.At(t).items) {
        if (item >= lists_.size()) lists_.resize(item + 1);
        lists_[item].push_back(static_cast<uint32_t>(t));
      }
    }
  }
  uint64_t Support(const Itemset& items) const {
    std::vector<uint32_t> acc;
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i] >= lists_.size()) return 0;
      const std::vector<uint32_t>& list = lists_[items[i]];
      if (i == 0) {
        acc = list;
        continue;
      }
      std::vector<uint32_t> next;
      std::set_intersection(acc.begin(), acc.end(), list.begin(), list.end(),
                            std::back_inserter(next));
      acc.swap(next);
    }
    return acc.size();
  }

 private:
  std::vector<std::vector<uint32_t>> lists_;
};

}  // namespace

Report RunMineOffline(const RunOptions& o) {
  const WorkloadSpec& spec = *o.spec;
  Report report;
  obs::Tracer tracer(obs::kTraceDefault | obs::kTraceRequest);
  obs::Tracer* tr = o.trace ? &tracer : nullptr;
  auto& v = report.values;

  // --- Set-up, repeated: inputs, the index, one warm-up DFP pass. ---
  Inputs inputs;
  BbsIndex index = *BbsIndex::Create(IndexConfig(spec));
  std::vector<double> setup_s, build_s;
  bbsmine::MineConfig dfp;
  dfp.algorithm = bbsmine::Algorithm::kDFP;
  dfp.min_support = spec.offline_minsup;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    const auto start = Clock::now();
    inputs = GenerateInputs(spec);
    index = *BbsIndex::Create(IndexConfig(spec));
    const auto build_start = Clock::now();
    index.InsertAll(inputs.base);
    build_s.push_back(SecondsSince(build_start));
    bbsmine::MineFrequentPatterns(inputs.base, index, dfp);
    setup_s.push_back(SecondsSince(start));
  }
  v["setup_s"] = Median(setup_s);
  v["core.index_build_s"] = Median(build_s);
  const TransactionDatabase& db = inputs.base;

  // --- Timed rounds: a DFP, an SFS and a budgeted DFP pass, then a block
  // of exact ad-hoc COUNTs, so both kinds of work sample the whole run. ---
  std::vector<Pass> passes(3);
  passes[0] = {"DFP", dfp, {}, {}};
  passes[1] = {"SFS", dfp, {}, {}};
  passes[1].config.algorithm = bbsmine::Algorithm::kSFS;
  passes[2] = {"adaptive DFP", dfp, {}, {}};
  passes[2].config.memory_budget_bytes =
      index.SerializedBytes() / spec.budget_divisor;
  const std::vector<Itemset> queries =
      DrawItemsets(db, SubSeed(o.seed, spec.name, "count"), 4096);
  // Each query's first answer is checked against the oracle after the run;
  // every repeat must equal it.
  std::vector<int64_t> first_answer(queries.size(), -1);
  size_t next_query = 0;
  std::vector<double> block_p50_us, block_ops_per_s;
  const MemoryReference memory;
  std::vector<double> reference_ms;
  auto count_block = [&] {
    std::vector<double> us;
    const auto start = Clock::now();
    while (SecondsSince(start) < kCountBlockS) {
      const size_t q = next_query++ % queries.size();
      const double span_start = tr ? tr->NowMicros() : 0;
      const auto call = Clock::now();
      const uint64_t exact =
          bbsmine::CountPatternExact(db, index, queries[q]).exact;
      us.push_back(SecondsSince(call) * 1e6);
      if (tr) {
        tr->AddComplete(obs::kTraceRequest, "client.exact_COUNT", span_start,
                        us.back());
      }
      if (first_answer[q] < 0) {
        first_answer[q] = static_cast<int64_t>(exact);
      } else if (first_answer[q] != static_cast<int64_t>(exact)) {
        report.WrongAnswer("exact COUNT " +
                           CountRequest(queries[q]).Serialize(0) +
                           " changed between calls");
      }
    }
    block_ops_per_s.push_back(us.size() / SecondsSince(start));
    block_p50_us.push_back(Median(us));
    report.attempted += us.size();
  };
  PinCallingThread(PinProcesses() ? std::vector<int>{0} : std::vector<int>{});
  const HostSample host_before = SampleHost();
  const auto timed_start = Clock::now();
  do {
    for (Pass& pass : passes) {
      pass.config.tracer = tr;
      const auto start = Clock::now();
      MiningResult result =
          bbsmine::MineFrequentPatterns(db, index, pass.config);
      pass.ms.push_back(SecondsSince(start) * 1e3);
      result.SortPatterns();
      pass.results.push_back(std::move(result));
    }
    count_block();
    reference_ms.push_back(memory.Ms());
  } while (SecondsSince(timed_start) < o.seconds || passes[0].ms.size() < 3);
  PinCallingThread({});
  const double steal = StealShare(host_before, SampleHost());
  if (steal > kMaxCalmSteal) {
    report.invalid = "the host stole " + std::to_string(steal * 100) +
                     " % of the VM's CPU time while mining";
  }
  v["rss_mb"] = OwnPeakRssMb();

  // --- Answer checks (off the clock). ---
  bbsmine::FpGrowthConfig fp_config;
  fp_config.min_support = spec.offline_minsup;
  MiningResult reference = bbsmine::MineFpGrowth(db, fp_config);
  reference.SortPatterns();
  for (const Pass& pass : passes) {
    for (const MiningResult& result : pass.results) {
      ++report.attempted;
      bool same = result.patterns.size() == reference.patterns.size();
      for (size_t i = 0; same && i < result.patterns.size(); ++i) {
        const Pattern& got = result.patterns[i];
        const Pattern& want = reference.patterns[i];
        // An estimate-kind support (DualFilter certified the pattern from
        // the index alone) may overestimate, never underestimate.
        same = got.items == want.items &&
               (got.kind == bbsmine::SupportKind::kExact
                    ? got.support == want.support
                    : got.support >= want.support);
      }
      if (!same) {
        report.WrongAnswer(std::string(pass.name) +
                           " patterns differ from FP-growth");
        break;
      }
    }
  }
  const TidListOracle oracle(db);
  for (size_t q = 0; q < queries.size(); ++q) {
    if (first_answer[q] >= 0 &&
        static_cast<uint64_t>(first_answer[q]) != oracle.Support(queries[q])) {
      report.WrongAnswer("exact COUNT " +
                         CountRequest(queries[q]).Serialize(0));
    }
  }

  // --- End-to-end metrics. ---
  // Best of the run: a pass or block does the same work every time, so
  // whatever else the host runs can only add to its time (on the reference
  // machine one run's DFP passes ranged from 80 ms to 140 ms with no time
  // stolen), and the fastest repetition is the steadiest estimate of the
  // program's own cost.
  auto fastest = [](const std::vector<double>& x) {
    return *std::min_element(x.begin(), x.end());
  };
  v["exact_count_p50_us"] = fastest(block_p50_us);
  v["exact_counts_per_s"] = *std::max_element(block_ops_per_s.begin(),
                                              block_ops_per_s.end());
  v["dfp_pass_ms"] = fastest(passes[0].ms);
  v["sfs_pass_ms"] = fastest(passes[1].ms);
  v["adaptive_pass_ms"] = fastest(passes[2].ms);
  v["memory_reference_ms"] = fastest(reference_ms);
  const double scale = kReferenceMs / v["memory_reference_ms"];
  v["count_p50_us"] = v["exact_count_p50_us"] * scale;
  v["max_ops_per_s"] = v["exact_counts_per_s"] / scale;
  v["mine_p50_ms"] = v["dfp_pass_ms"] * scale;
  v["secondary_p50_ms"] = v["sfs_pass_ms"] * scale;
  v["contended_p50_ms"] = v["adaptive_pass_ms"] * scale;
  v["failed_share"] = report.attempted == 0
                          ? 0
                          : static_cast<double>(report.failed) /
                                report.attempted;
  report.stamp.Set("pinned_cpus", obs::JsonValue::Bool(PinProcesses()));
  report.stamp.Set("passes_per_miner",
                   obs::JsonValue::Uint(passes[0].ms.size()));
  report.stamp.Set("memory_budget_bytes",
                   obs::JsonValue::Uint(passes[2].config.memory_budget_bytes));
  report.stamp.Set("index_slice_bytes",
                   obs::JsonValue::Uint(index.SerializedBytes()));

  if (!o.trace) return report;

  // --- Per-layer metrics (traced run only). ---
  const bbsmine::MineStats& stats = passes[0].results[0].stats;
  std::vector<double> filter_ms, refine_ms;
  for (const MiningResult& r : passes[0].results) {
    filter_ms.push_back(r.stats.filter_wall_seconds * 1e3);
  }
  for (const MiningResult& r : passes[1].results) {
    refine_ms.push_back(r.stats.refine_wall_seconds * 1e3);
  }
  v["core.filter_ms"] = Median(filter_ms);
  v["core.refine_ms"] = Median(refine_ms);
  v["core.extension_tests"] = stats.extension_tests;
  v["core.candidates"] = stats.candidates;
  v["core.false_drops"] = stats.false_drops;
  v["core.probed_transactions"] = stats.probed_transactions;
  v["core.db_scans"] = passes[1].results[0].stats.db_scans;
  v["core.certified_share"] =
      stats.candidates > 0
          ? static_cast<double>(stats.certified) / stats.candidates
          : 0;
  const uint64_t lookups = stats.cache_hits + stats.cache_misses;
  v["storage.cache_hit_rate"] =
      lookups > 0 ? static_cast<double>(stats.cache_hits) / lookups : 0;
  v["core.fold_ms"] =
      ReplayFold(index, passes[2].config.memory_budget_bytes, tr);
  v["client.count_p50_us"] = v["exact_count_p50_us"];
  ReplayLayers(o, inputs, std::vector<Itemset>(queries.begin(),
                                               queries.begin() + 2000),
               {}, &report, tr);
  WriteTrace(o, tracer, &report);
  return report;
}

}  // namespace perfbench
