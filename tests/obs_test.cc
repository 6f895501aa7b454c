// Unit tests for the observability primitives: the JSON document model
// (exact number round-trips), the metrics registry (deterministic shard
// merge), the depth histogram, and the Chrome trace-event tracer.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bbsmine::obs {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------- JSON --

TEST(JsonTest, SerializeParseRoundTripScalars) {
  JsonValue doc = JsonValue::Object();
  doc.Set("null", JsonValue::Null());
  doc.Set("yes", JsonValue::Bool(true));
  doc.Set("no", JsonValue::Bool(false));
  doc.Set("int", JsonValue::Int(-42));
  doc.Set("big", JsonValue::Uint(18446744073709551615ull));  // > INT64_MAX
  doc.Set("pi", JsonValue::Double(3.141592653589793));
  doc.Set("whole", JsonValue::Double(2.0));  // must stay a double
  doc.Set("s", JsonValue::String("a \"quoted\" line\nwith\tcontrol"));

  auto parsed = JsonValue::Parse(doc.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->at("null").kind(), JsonValue::Kind::kNull);
  EXPECT_TRUE(parsed->at("yes").AsBool());
  EXPECT_FALSE(parsed->at("no").AsBool());
  EXPECT_EQ(parsed->at("int").AsInt(), -42);
  EXPECT_EQ(parsed->at("big").kind(), JsonValue::Kind::kUint);
  EXPECT_EQ(parsed->at("big").AsUint(), 18446744073709551615ull);
  EXPECT_EQ(parsed->at("pi").kind(), JsonValue::Kind::kDouble);
  EXPECT_EQ(parsed->at("pi").AsDouble(), 3.141592653589793);
  EXPECT_EQ(parsed->at("whole").kind(), JsonValue::Kind::kDouble)
      << "a whole-valued double must not collapse to an integer";
  EXPECT_EQ(parsed->at("whole").AsDouble(), 2.0);
  EXPECT_EQ(parsed->at("s").AsString(), "a \"quoted\" line\nwith\tcontrol");
}

TEST(JsonTest, DoublesRoundTripBitExactly) {
  // Values chosen to stress the %.17g path (non-terminating binary
  // fractions, subnormal-adjacent magnitudes).
  for (double v : {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324, -0.0042}) {
    JsonValue doc = JsonValue::Array();
    doc.Append(JsonValue::Double(v));
    auto parsed = JsonValue::Parse(doc.Serialize());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->at(size_t{0}).AsDouble(), v);
  }
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  JsonValue doc = JsonValue::Object();
  doc.Set("zebra", JsonValue::Int(1));
  doc.Set("apple", JsonValue::Int(2));
  doc.Set("mango", JsonValue::Int(3));
  auto parsed = JsonValue::Parse(doc.Serialize());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->keys().size(), 3u);
  EXPECT_EQ(parsed->keys()[0], "zebra");
  EXPECT_EQ(parsed->keys()[1], "apple");
  EXPECT_EQ(parsed->keys()[2], "mango");
}

TEST(JsonTest, MutableAtFindsAndMisses) {
  JsonValue doc = JsonValue::Object();
  doc.Set("inner", JsonValue::Object());
  ASSERT_NE(doc.MutableAt("inner"), nullptr);
  doc.MutableAt("inner")->Set("x", JsonValue::Int(7));
  EXPECT_EQ(doc.at("inner").at("x").AsInt(), 7);
  EXPECT_EQ(doc.MutableAt("absent"), nullptr);
}

TEST(JsonTest, ParseRejectsMalformedDocuments) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "nul",
                          "{\"a\":1} trailing", "\"unterminated"}) {
    EXPECT_FALSE(JsonValue::Parse(bad).ok()) << "should reject: " << bad;
  }
}

TEST(JsonTest, ParseBoundsNestingDepth) {
  auto nested = [](size_t depth, char open, char close) {
    return std::string(depth, open) + std::string(depth, close);
  };
  const size_t bound = JsonValue::kMaxDepth;
  EXPECT_TRUE(JsonValue::Parse(nested(bound, '[', ']')).ok());
  EXPECT_FALSE(JsonValue::Parse(nested(bound + 1, '[', ']')).ok());
  // Objects count toward the same bound.
  std::string objects;
  for (size_t i = 0; i < bound; ++i) objects += "{\"a\":";
  objects += "1" + std::string(bound, '}');
  EXPECT_TRUE(JsonValue::Parse(objects).ok());
  EXPECT_FALSE(JsonValue::Parse("[" + objects + "]").ok());
  // Far past the bound it fails fast instead of exhausting the stack.
  Result<JsonValue> hostile = JsonValue::Parse(nested(100'000, '[', ']'));
  ASSERT_FALSE(hostile.ok());
  EXPECT_EQ(hostile.status().code(), StatusCode::kInvalidArgument);
}

TEST(JsonTest, IntegerAccessorsSaturateOutOfRangeDoubles) {
  EXPECT_EQ(JsonValue::Double(1e300).AsInt(), INT64_MAX);
  EXPECT_EQ(JsonValue::Double(-1e300).AsInt(), INT64_MIN);
  EXPECT_EQ(JsonValue::Double(1e300).AsUint(), UINT64_MAX);
  EXPECT_EQ(JsonValue::Double(-1e300).AsUint(), 0u);
  EXPECT_EQ(JsonValue::Double(std::nan("")).AsInt(), 0);
  EXPECT_EQ(JsonValue::Double(std::nan("")).AsUint(), 0u);
  EXPECT_EQ(JsonValue::Double(-2.5).AsInt(), -2);
  EXPECT_EQ(JsonValue::Double(2.5).AsUint(), 2u);
}

TEST(JsonTest, FileRoundTrip) {
  std::string path = TempPath("bbsmine_obs_json_roundtrip.json");
  JsonValue doc = JsonValue::Object();
  doc.Set("k", JsonValue::Uint(123456789012345ull));
  ASSERT_TRUE(WriteJsonFile(doc, path).ok());
  auto loaded = ReadJsonFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->at("k").AsUint(), 123456789012345ull);
  std::remove(path.c_str());
}

// ----------------------------------------------------- DepthHistogram --

TEST(DepthHistogramTest, BucketsOverflowAndTotal) {
  DepthHistogram h;
  h.Add(0);  // ignored
  h.Add(1, 5);
  h.Add(DepthHistogram::kMaxTrackedDepth, 2);
  h.Add(DepthHistogram::kMaxTrackedDepth + 10, 3);  // overflow
  EXPECT_EQ(h.at(1), 5u);
  EXPECT_EQ(h.at(DepthHistogram::kMaxTrackedDepth), 2u);
  EXPECT_EQ(h.overflow(), 3u);
  EXPECT_EQ(h.total(), 10u);
  EXPECT_EQ(h.MaxNonZeroDepth(), DepthHistogram::kMaxTrackedDepth);

  DepthHistogram other;
  other.Add(2, 4);
  h += other;
  EXPECT_EQ(h.at(2), 4u);
  EXPECT_EQ(h.total(), 14u);
  EXPECT_FALSE(h == other);
}

// ---------------------------------------------------- MetricsRegistry --

TEST(MetricsRegistryTest, ShardMergeIsDeterministicAndComplete) {
  MetricsRegistry registry;
  size_t ops = registry.AddCounter("ops");
  size_t depth_gauge = registry.AddGauge("queue_depth");
  size_t hist = registry.AddHistogram("by_depth");

  MetricsShard* a = registry.CreateShard();
  MetricsShard* b = registry.CreateShard();
  a->Inc(ops, 3);
  b->Inc(ops, 4);
  a->GaugeMax(depth_gauge, 9);
  b->GaugeMax(depth_gauge, 5);
  a->Observe(hist, 2, 10);
  b->Observe(hist, 2, 1);
  b->Observe(hist, 40, 2);  // overflow bucket

  registry.MergeShards();
  EXPECT_EQ(registry.counter(ops), 7u);
  EXPECT_EQ(registry.counter(depth_gauge), 9u) << "gauge merge keeps the max";
  EXPECT_EQ(registry.histogram(hist).at(2), 11u);
  EXPECT_EQ(registry.histogram(hist).overflow(), 2u);

  // Merge resets the shards: merging again must not double-count.
  registry.MergeShards();
  EXPECT_EQ(registry.counter(ops), 7u);

  std::vector<MetricSample> samples = registry.Snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "ops");
  EXPECT_EQ(samples[0].value, 7u);
  EXPECT_EQ(samples[1].kind, MetricKind::kGauge);
  EXPECT_EQ(samples[2].kind, MetricKind::kHistogram);
  EXPECT_EQ(samples[2].value, 13u) << "histogram sample value is its total";
}

// ------------------------------------------------------------- Tracer --

TEST(Log2BucketTest, BoundaryMapping) {
  // The documented contract: bucket 1 holds [0, 2) — zero shares the
  // lowest bucket — and bucket d >= 2 holds [2^(d-1), 2^d).
  EXPECT_EQ(Log2Bucket(0), 1u);
  EXPECT_EQ(Log2Bucket(1), 1u);
  EXPECT_EQ(Log2Bucket(2), 2u);
  EXPECT_EQ(Log2Bucket(3), 2u);
  EXPECT_EQ(Log2Bucket(4), 3u);
  EXPECT_EQ(Log2Bucket(7), 3u);
  EXPECT_EQ(Log2Bucket(8), 4u);
  // Bounds are the same contract, inverted.
  EXPECT_EQ(Log2BucketLowerBound(1), 0u);
  EXPECT_EQ(Log2BucketUpperBound(1), 2u);
  for (size_t d = 2; d <= DepthHistogram::kMaxTrackedDepth; ++d) {
    EXPECT_EQ(Log2Bucket(Log2BucketLowerBound(d)), d);
    EXPECT_EQ(Log2Bucket(Log2BucketUpperBound(d) - 1), d);
    EXPECT_EQ(Log2Bucket(Log2BucketUpperBound(d)), d + 1);
  }
}

TEST(Log2BucketTest, SlotClampsPastTheLastBucketToOverflow) {
  // Log2Slot is Log2Bucket up to bucket kMaxTrackedDepth (32) and the
  // overflow slot 0 from 2^32 up.
  EXPECT_EQ(Log2Slot(0), 1u);
  EXPECT_EQ(Log2Slot(5), Log2Bucket(5));
  EXPECT_EQ(Log2Slot((uint64_t{1} << 32) - 1), 32u);
  EXPECT_EQ(Log2Slot(uint64_t{1} << 32), 0u);
  EXPECT_EQ(Log2Slot(~uint64_t{0}), 0u);
}

// Bucket layout used by the estimator tests: MetricSample order, [0] =
// overflow, [d] = log2 bucket d.
std::vector<uint64_t> EmptyBuckets() {
  return std::vector<uint64_t>(DepthHistogram::kMaxTrackedDepth + 1, 0);
}

TEST(PercentileFromLog2BucketsTest, AgreesWithOracleAtBucketBoundaries) {
  // One observation per bucket, each idealized at its bucket's lower
  // bound: the estimator must reproduce the sorted-sample oracle exactly
  // (numpy-style rank q*(N-1) interpolation over the lower bounds).
  std::vector<uint64_t> buckets = EmptyBuckets();
  std::vector<double> oracle;
  for (size_t d = 1; d <= 8; ++d) {
    buckets[d] = 1;
    oracle.push_back(static_cast<double>(Log2BucketLowerBound(d)));
  }
  for (size_t k = 0; k < oracle.size(); ++k) {
    double q = static_cast<double>(k) / (oracle.size() - 1);
    EXPECT_DOUBLE_EQ(PercentileFromLog2Buckets(buckets, q), oracle[k])
        << "rank " << k;
  }
  // Between integer ranks the estimate is the linear interpolation of the
  // neighboring oracle values.
  double q = 1.5 / (oracle.size() - 1);
  EXPECT_DOUBLE_EQ(PercentileFromLog2Buckets(buckets, q),
                   (oracle[1] + oracle[2]) / 2);
}

TEST(PercentileFromLog2BucketsTest, ErrorBoundedByBucketWidth) {
  // 1000 observations of the value 700 all land in bucket 10 = [512,
  // 1024). The estimator cannot know where inside the bucket they sat,
  // but every quantile it reports must stay inside that bucket.
  std::vector<uint64_t> buckets = EmptyBuckets();
  buckets[Log2Bucket(700)] = 1000;
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    double estimate = PercentileFromLog2Buckets(buckets, q);
    EXPECT_GE(estimate, 512.0) << "q=" << q;
    EXPECT_LT(estimate, 1024.0) << "q=" << q;
  }
  // And the estimate is within a factor of the bucket width of the truth.
  EXPECT_NEAR(PercentileFromLog2Buckets(buckets, 0.5), 700.0, 512.0);
}

TEST(PercentileFromLog2BucketsTest, OverflowBucketIsDegenerate) {
  std::vector<uint64_t> buckets = EmptyBuckets();
  buckets[0] = 10;  // all observations beyond 2^32
  double expected =
      static_cast<double>(uint64_t{1} << DepthHistogram::kMaxTrackedDepth);
  EXPECT_DOUBLE_EQ(PercentileFromLog2Buckets(buckets, 0.5), expected);
  EXPECT_DOUBLE_EQ(PercentileFromLog2Buckets(buckets, 1.0), expected);
  // Mixed: the median sits in the tracked range, the tail in overflow.
  buckets[5] = 30;
  EXPECT_LT(PercentileFromLog2Buckets(buckets, 0.5), 32.0);
  EXPECT_DOUBLE_EQ(PercentileFromLog2Buckets(buckets, 1.0), expected);
}

TEST(PercentileFromLog2BucketsTest, EmptyAndClampedInputs) {
  EXPECT_DOUBLE_EQ(PercentileFromLog2Buckets(EmptyBuckets(), 0.5), 0.0);
  std::vector<uint64_t> buckets = EmptyBuckets();
  buckets[3] = 4;
  // q outside [0, 1] clamps instead of reading out of range.
  EXPECT_DOUBLE_EQ(PercentileFromLog2Buckets(buckets, -1.0),
                   PercentileFromLog2Buckets(buckets, 0.0));
  EXPECT_DOUBLE_EQ(PercentileFromLog2Buckets(buckets, 2.0),
                   PercentileFromLog2Buckets(buckets, 1.0));
}

TEST(LatencyReservoirTest, ExactUnderCapacity) {
  LatencyReservoir reservoir(100, /*seed=*/7);
  for (uint64_t v = 1; v <= 11; ++v) reservoir.Add(v * 10);
  EXPECT_EQ(reservoir.count(), 11u);
  EXPECT_EQ(reservoir.max(), 110u);
  // With all samples retained the quantiles are exact: rank q*(n-1).
  EXPECT_DOUBLE_EQ(reservoir.Quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(reservoir.Quantile(0.5), 60.0);
  EXPECT_DOUBLE_EQ(reservoir.Quantile(1.0), 110.0);
  EXPECT_DOUBLE_EQ(reservoir.Quantile(0.25), 35.0);  // interpolated
}

TEST(LatencyReservoirTest, SamplesUniformlyOverCapacity) {
  // 10k observations uniform in [0, 1000) through a 512-slot reservoir:
  // the sampled median must land near the true median, and max() stays
  // exact because it is tracked outside the sample.
  LatencyReservoir reservoir(512, /*seed=*/3);
  Rng rng(99);
  for (int i = 0; i < 10'000; ++i) reservoir.Add(rng.Uniform(1000));
  reservoir.Add(5000);  // a single outlier the sample may well drop
  EXPECT_EQ(reservoir.count(), 10'001u);
  EXPECT_EQ(reservoir.max(), 5000u);
  EXPECT_NEAR(reservoir.Quantile(0.5), 500.0, 100.0);
}

TEST(LatencyReservoirTest, DeterministicForSeedAndStream) {
  LatencyReservoir a(64, 11), b(64, 11), c(64, 12);
  Rng ra(5), rb(5), rc(5);
  for (int i = 0; i < 5'000; ++i) {
    a.Add(ra.Uniform(100'000));
    b.Add(rb.Uniform(100'000));
    c.Add(rc.Uniform(100'000));
  }
  EXPECT_DOUBLE_EQ(a.Quantile(0.99), b.Quantile(0.99));
  EXPECT_EQ(a.max(), b.max());
  // A different replacement seed keeps a different subset.
  EXPECT_NE(a.Quantile(0.37), c.Quantile(0.37));
}

TEST(TraceTest, EmitsValidChromeTraceJson) {
  Tracer tracer(kTraceDefault);
  {
    TraceSpan span(&tracer, kTracePhase, "mine");
    span.AddArg("algorithm", "DFP");
    TraceSpan inner(&tracer, kTraceFilter, "filter.subtree");
    inner.AddArg("root", uint64_t{3});
  }
  EXPECT_EQ(tracer.event_count(), 2u);

  auto doc = JsonValue::Parse(tracer.ToJsonString());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue& events = doc->at("traceEvents");
  ASSERT_EQ(events.size(), 2u);
  for (size_t i = 0; i < events.size(); ++i) {
    const JsonValue& e = events.at(i);
    EXPECT_EQ(e.at("ph").AsString(), "X");
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_TRUE(e.at("dur").is_number());
    EXPECT_TRUE(e.Has("pid"));
    EXPECT_TRUE(e.Has("tid"));
  }
  // Spans close inner-first, so the inner span is recorded first.
  EXPECT_EQ(events.at(size_t{0}).at("name").AsString(), "filter.subtree");
  EXPECT_EQ(events.at(size_t{0}).at("args").at("root").AsUint(), 3u);
  EXPECT_EQ(events.at(size_t{1}).at("name").AsString(), "mine");
  EXPECT_EQ(events.at(size_t{1}).at("args").at("algorithm").AsString(),
            "DFP");
}

TEST(TraceTest, DisabledCategoryAndNullTracerAreInert) {
  Tracer tracer(kTraceDefault);  // kernel category off by default
  {
    TraceSpan kernel_span(&tracer, kTraceKernel, "bbs.count");
    kernel_span.AddArg("items", uint64_t{2});
    EXPECT_FALSE(kernel_span.armed());
    TraceSpan null_span(nullptr, kTracePhase, "mine");
    EXPECT_FALSE(null_span.armed());
  }
  EXPECT_EQ(tracer.event_count(), 0u);

  Tracer all(kTraceAll);
  { TraceSpan kernel_span(&all, kTraceKernel, "bbs.count"); }
  EXPECT_EQ(all.event_count(), 1u);
}

TEST(TraceTest, WriteJsonProducesLoadableFile) {
  std::string path = TempPath("bbsmine_obs_trace.json");
  Tracer tracer;
  { TraceSpan span(&tracer, kTracePhase, "mine"); }
  ASSERT_TRUE(tracer.WriteJson(path).ok());
  auto doc = ReadJsonFile(path);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->at("traceEvents").size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bbsmine::obs
