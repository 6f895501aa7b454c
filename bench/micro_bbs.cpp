// Micro-benchmarks of the BBS primitives (google-benchmark).
//
// Covers the ablation hooks called out in DESIGN.md: word-parallel AND with
// fused popcount, hash-family throughput (MD5 vs multiply-shift), index
// insertion, CountItemSet (with and without the sparsest-slice early exit),
// folding, and the hybrid dense/sparse intersection.
//
// Before the google-benchmark suite runs, main() measures the overhead of
// the observability layer on the CountItemSet hot loop — a disarmed
// TraceSpan plus the counter updates the engine performs per candidate —
// against the bare loop, and fails (exit 1) if it exceeds 2%.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "core/bbs_index.h"
#include "core/mining_types.h"
#include "core/segmented_bbs.h"
#include "core/tidset.h"
#include "datagen/quest_gen.h"
#include "obs/trace.h"
#include "util/bitvector.h"
#include "util/md5.h"
#include "util/rng.h"

namespace bbsmine {
namespace {

BitVector RandomVector(size_t bits, double density, uint64_t seed) {
  Rng rng(seed);
  BitVector v(bits);
  for (size_t i = 0; i < bits; ++i) {
    if (rng.Bernoulli(density)) v.Set(i);
  }
  return v;
}

void BM_BitVectorAndWithCount(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  BitVector a = RandomVector(bits, 0.05, 1);
  BitVector b = RandomVector(bits, 0.05, 2);
  BitVector scratch = a;
  for (auto _ : state) {
    scratch = a;
    benchmark::DoNotOptimize(scratch.AndWithCount(b));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bits / 8) * 2);
}
BENCHMARK(BM_BitVectorAndWithCount)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_SparseIntersection(benchmark::State& state) {
  size_t bits = 100'000;
  size_t sparse_count = static_cast<size_t>(state.range(0));
  BitVector with = RandomVector(bits, 0.05, 3);
  TidSet parent;
  {
    Rng rng(4);
    std::vector<uint32_t> tids;
    for (size_t i = 0; i < sparse_count; ++i) {
      tids.push_back(static_cast<uint32_t>(rng.Uniform(bits)));
    }
    std::sort(tids.begin(), tids.end());
    tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
    parent.AssignSparse(std::move(tids));
  }
  TidSet out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(out.AssignIntersection(parent, with, 1 << 20));
  }
}
BENCHMARK(BM_SparseIntersection)->Arg(32)->Arg(256)->Arg(2048);

void BM_Md5Hash(benchmark::State& state) {
  std::string name = "123456";
  for (auto _ : state) {
    benchmark::DoNotOptimize(Md5::Hash(name));
  }
}
BENCHMARK(BM_Md5Hash);

void BM_HashFamilyPositions(benchmark::State& state) {
  HashKind kind = static_cast<HashKind>(state.range(0));
  auto family = BloomHashFamily::Create(1600, 4, kind);
  ItemId item = 0;
  for (auto _ : state) {
    // Defeat the memo cache to measure raw hashing.
    state.PauseTiming();
    auto fresh = BloomHashFamily::Create(1600, 4, kind, item + 1);
    state.ResumeTiming();
    benchmark::DoNotOptimize(fresh->Positions(item));
    ++item;
  }
  (void)family;
}
BENCHMARK(BM_HashFamilyPositions)
    ->Arg(static_cast<int>(HashKind::kMd5))
    ->Arg(static_cast<int>(HashKind::kMultiplyShift));

void BM_BbsInsert(benchmark::State& state) {
  QuestConfig quest;
  quest.num_transactions = 1'000;
  quest.num_items = 10'000;
  auto db = GenerateQuest(quest);
  BbsConfig config;
  config.num_bits = static_cast<uint32_t>(state.range(0));
  size_t t = 0;
  auto bbs = BbsIndex::Create(config);
  for (auto _ : state) {
    bbs->Insert(db->At(t % db->size()).items);
    ++t;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BbsInsert)->Arg(400)->Arg(1600)->Arg(6400);

class CountFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (bbs) return;
    QuestConfig quest;  // default T10.I10.D10K
    db = std::move(GenerateQuest(quest)).value();
    BbsConfig config;
    config.num_bits = 1600;
    config.num_hashes = 4;
    bbs.emplace(std::move(BbsIndex::Create(config)).value());
    bbs->InsertAll(db);
  }
  TransactionDatabase db;
  std::optional<BbsIndex> bbs;
};

BENCHMARK_DEFINE_F(CountFixture, CountItemSet)(benchmark::State& state) {
  Rng rng(7);
  Itemset items(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    for (ItemId& item : items) {
      item = static_cast<ItemId>(rng.Uniform(10'000));
    }
    Canonicalize(&items);
    benchmark::DoNotOptimize(bbs->CountItemSet(items));
  }
}
BENCHMARK_REGISTER_F(CountFixture, CountItemSet)->Arg(1)->Arg(3)->Arg(8);

BENCHMARK_DEFINE_F(CountFixture, CountItemSetAtLeast)
(benchmark::State& state) {
  Rng rng(7);
  Itemset items(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    for (ItemId& item : items) {
      item = static_cast<ItemId>(rng.Uniform(10'000));
    }
    Canonicalize(&items);
    benchmark::DoNotOptimize(bbs->CountItemSetAtLeast(items, 30));
  }
}
BENCHMARK_REGISTER_F(CountFixture, CountItemSetAtLeast)->Arg(1)->Arg(3)->Arg(8);

/// Segment-parallel counting: range(0) = thread count (1 = serial path).
class SegmentedCountFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (bbs) return;
    QuestConfig quest;  // default T10.I10.D10K
    db = std::move(GenerateQuest(quest)).value();
    BbsConfig config;
    config.num_bits = 1600;
    config.num_hashes = 4;
    bbs.emplace(std::move(SegmentedBbs::Create(config, 1000)).value());
    for (size_t t = 0; t < db.size(); ++t) {
      if (!bbs->Insert(db.At(t).items).ok()) std::abort();
    }
  }
  TransactionDatabase db;
  std::optional<SegmentedBbs> bbs;
};

BENCHMARK_DEFINE_F(SegmentedCountFixture, CountItemSet)
(benchmark::State& state) {
  Rng rng(7);
  Itemset items(3);
  for (auto _ : state) {
    for (ItemId& item : items) {
      item = static_cast<ItemId>(rng.Uniform(10'000));
    }
    Canonicalize(&items);
    benchmark::DoNotOptimize(bbs->CountItemSet(items));
  }
}
BENCHMARK_REGISTER_F(SegmentedCountFixture, CountItemSet);

BENCHMARK_DEFINE_F(CountFixture, Fold)(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(bbs->Fold(static_cast<uint32_t>(state.range(0))));
  }
}
BENCHMARK_REGISTER_F(CountFixture, Fold)->Arg(64)->Arg(400);

/// Best-of-`kReps` wall time of `fn()` with a calibrated inner loop, in
/// nanoseconds per call (same idiom as micro_kernels.cpp).
template <typename Fn>
double TimeNs(Fn&& fn) {
  constexpr int kReps = 5;
  constexpr double kMinBatchNs = 5e6;
  uint64_t batch = 1;
  for (;;) {
    auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < batch; ++i) fn();
    double ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (ns >= kMinBatchNs || batch >= (1u << 24)) break;
    batch *= 4;
  }
  double best = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < batch; ++i) fn();
    double ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    best = std::min(best, ns / static_cast<double>(batch));
  }
  return best;
}

/// Measures the cost the observability layer adds to one CountItemSet
/// candidate test when tracing is off (the production default): a disarmed
/// TraceSpan (null tracer) plus the per-candidate counter and depth-
/// histogram updates. Returns false when the overhead exceeds `limit_pct`.
bool CheckInstrumentationOverhead(double limit_pct) {
  QuestConfig quest;  // default T10.I10.D10K
  TransactionDatabase db = std::move(GenerateQuest(quest)).value();
  BbsConfig config;
  config.num_bits = 1600;
  config.num_hashes = 4;
  BbsIndex bbs = std::move(BbsIndex::Create(config)).value();
  bbs.InsertAll(db);

  // A fixed query mix (sizes 1..4), precomputed so both loops replay the
  // identical candidate sequence with no RNG in the timed region.
  Rng rng(7);
  std::vector<Itemset> queries(64);
  for (size_t q = 0; q < queries.size(); ++q) {
    queries[q].resize(1 + q % 4);
    for (ItemId& item : queries[q]) {
      item = static_cast<ItemId>(rng.Uniform(10'000));
    }
    Canonicalize(&queries[q]);
  }

  size_t next_bare = 0;
  double bare_ns = TimeNs([&] {
    const Itemset& items = queries[next_bare++ % queries.size()];
    benchmark::DoNotOptimize(bbs.CountItemSet(items));
  });

  MineStats stats;
  size_t next_instr = 0;
  double instrumented_ns = TimeNs([&] {
    const Itemset& items = queries[next_instr++ % queries.size()];
    obs::TraceSpan span(nullptr, obs::kTraceKernel, "bbs.count");
    ++stats.candidates;
    stats.candidates_by_depth.Add(items.size());
    benchmark::DoNotOptimize(bbs.CountItemSet(items));
  });
  benchmark::DoNotOptimize(stats.candidates);

  double overhead_pct = (instrumented_ns - bare_ns) / bare_ns * 100.0;
  std::printf(
      "instrumentation overhead on CountItemSet: bare %.1f ns, "
      "instrumented %.1f ns, overhead %.2f%% (limit %.1f%%)\n\n",
      bare_ns, instrumented_ns, overhead_pct, limit_pct);
  return overhead_pct < limit_pct;
}

}  // namespace
}  // namespace bbsmine

int main(int argc, char** argv) {
  bool overhead_ok = bbsmine::CheckInstrumentationOverhead(2.0);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!overhead_ok) {
    std::fprintf(stderr, "FAIL: instrumentation overhead above limit\n");
    return 1;
  }
  return 0;
}
