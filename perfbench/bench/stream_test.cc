// The request stream and the inputs are a pure function of (workload,
// seed): byte-identical for the same seed, different for different seeds.

#include <gtest/gtest.h>

#include "bench.h"

namespace perfbench {
namespace {

class StreamTest : public ::testing::TestWithParam<const WorkloadSpec*> {};

TEST_P(StreamTest, SameSeedSameBytesOtherSeedOtherBytes) {
  const WorkloadSpec& spec = *GetParam();
  const Inputs inputs = GenerateInputs(spec);
  const Inputs again = GenerateInputs(spec);
  EXPECT_TRUE(inputs.base == again.base);
  EXPECT_EQ(inputs.insert_pool, again.insert_pool);

  const std::string a = SerializeStream(MakeRequestStream(spec, inputs, 7, 2));
  const std::string b = SerializeStream(MakeRequestStream(spec, again, 7, 2));
  const std::string c = SerializeStream(MakeRequestStream(spec, inputs, 8, 2));
  EXPECT_EQ(a, b);
  if (spec.count_connections > 0) {
    EXPECT_FALSE(a.empty());
    EXPECT_NE(a, c);
    // A longer phase extends the same stream.
    const std::string longer =
        SerializeStream(MakeRequestStream(spec, inputs, 7, 4));
    EXPECT_NE(longer, a);
  }

  EXPECT_EQ(DrawItemsets(inputs.base, SubSeed(7, spec.name, "count"), 64),
            DrawItemsets(again.base, SubSeed(7, spec.name, "count"), 64));
  EXPECT_NE(DrawItemsets(inputs.base, SubSeed(7, spec.name, "count"), 64),
            DrawItemsets(inputs.base, SubSeed(8, spec.name, "count"), 64));
}

INSTANTIATE_TEST_SUITE_P(Workloads, StreamTest,
                         ::testing::Values(&kServeRw, &kRoutedFanout,
                                           &kMineOffline));

}  // namespace
}  // namespace perfbench
