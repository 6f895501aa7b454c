// Tests for the small utility modules: Status/Result, CRC-32, Rng,
// the I/O cost model and the result-table printer.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "util/crc32.h"
#include "util/file_io.h"
#include "util/iomodel.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table.h"

namespace bbsmine {
namespace {

// --- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status st = Status::IoError("disk on fire");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(st.message(), "disk on fire");
  EXPECT_EQ(st.ToString(), "IoError: disk on fire");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kIoError, StatusCode::kCorruption, StatusCode::kOutOfRange,
        StatusCode::kUnimplemented, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Status FailThrough() {
  BBSMINE_RETURN_IF_ERROR(Status::Corruption("inner"));
  return Status::Ok();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  Status st = FailThrough();
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

// --- CRC-32 -------------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
  // Standard IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("a"), 0xe8b7be43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  std::string message = "hello crc world, split across calls";
  uint32_t oneshot = Crc32(message);
  uint32_t crc = 0;
  crc = Crc32(message.substr(0, 10), crc);
  crc = Crc32(message.substr(10), crc);
  EXPECT_EQ(crc, oneshot);
}

// The plain bytewise table loop: the reference the sliced CRC must match.
uint32_t BytewiseCrc32(const uint8_t* p, size_t len, uint32_t seed) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xedb88320u : crc >> 1;
    }
    table[i] = crc;
  }
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xffu];
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndAlignment) {
  Rng rng(2024);
  std::vector<uint8_t> buf(4096 + 16);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len < 80; ++len) {
      ASSERT_EQ(Crc32(buf.data() + align, len),
                BytewiseCrc32(buf.data() + align, len, 0))
          << "align " << align << " len " << len;
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    const size_t align = rng.Next() % 16;
    const size_t len = rng.Next() % (buf.size() - align);
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(Crc32(buf.data() + align, len, seed),
              BytewiseCrc32(buf.data() + align, len, seed))
        << "align " << align << " len " << len;
  }
}

TEST(Crc32Test, DetectsBitFlip) {
  std::string a = "payload-data-0000";
  std::string b = a;
  b[5] ^= 0x01;
  EXPECT_NE(Crc32(a), Crc32(b));
}

// --- FileWriter / FileReader -------------------------------------------------

std::string TempFile(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(::getpid()) + "_" + name))
      .string();
}

TEST(FileIoTest, StreamedPiecesMatchOneShotWriteAndChecksum) {
  Rng rng(77);
  std::string data(300'000, '\0');
  for (char& c : data) c = static_cast<char>(rng.Next());
  const std::string streamed = TempFile("fio_streamed");
  const std::string oneshot = TempFile("fio_oneshot");
  {
    Result<FileWriter> out = FileWriter::Open(streamed);
    ASSERT_TRUE(out.ok());
    // Pieces below, at and above the writer's buffer size.
    size_t pos = 0;
    for (size_t piece : {1u, 7u, 512u, 65536u, 70000u, 100u}) {
      ASSERT_TRUE(out->Append(data.data() + pos, piece).ok());
      pos += piece;
    }
    ASSERT_TRUE(out->Append(data.data() + pos, data.size() - pos).ok());
    EXPECT_EQ(out->size(), data.size());
    EXPECT_EQ(out->crc(), Crc32(data));
    EXPECT_FALSE(std::filesystem::exists(streamed));  // not committed yet
    ASSERT_TRUE(out->Commit().ok());
  }
  ASSERT_TRUE(WriteBinaryFile(oneshot, data).ok());
  Result<std::string> a = ReadBinaryFile(streamed);
  Result<std::string> b = ReadBinaryFile(oneshot);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, data);
  EXPECT_EQ(*b, data);

  // An abandoned writer leaves the destination and no temp file behind.
  {
    Result<FileWriter> out = FileWriter::Open(oneshot);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out->Append("replacement").ok());
  }
  EXPECT_FALSE(std::filesystem::exists(oneshot + ".tmp"));
  EXPECT_EQ(*ReadBinaryFile(oneshot), data);

  // The reader hands back the same bytes in any piece sizes, and a read
  // past the end is Corruption.
  Result<FileReader> in = FileReader::Open(streamed);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in->size(), data.size());
  std::string back(data.size(), '\0');
  size_t pos = 0;
  for (size_t piece : {3u, 65536u, 1u, 100000u}) {
    ASSERT_TRUE(in->Read(back.data() + pos, piece).ok());
    pos += piece;
  }
  ASSERT_TRUE(in->Read(back.data() + pos, in->remaining()).ok());
  EXPECT_EQ(back, data);
  char extra;
  EXPECT_EQ(in->Read(&extra, 1, "tail").code(), StatusCode::kCorruption);
  std::filesystem::remove(streamed);
  std::filesystem::remove(oneshot);
}

// --- Rng ----------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_EQ(rng.Uniform(1), 0u);
  }
}

TEST(RngTest, UniformCoversRangeRoughly) {
  Rng rng(11);
  std::vector<int> hits(10, 0);
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) ++hits[rng.Uniform(10)];
  for (int bucket : hits) {
    EXPECT_GT(bucket, kDraws / 10 - kDraws / 50);
    EXPECT_LT(bucket, kDraws / 10 + kDraws / 50);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, PoissonMeanIsClose) {
  Rng rng(5);
  double sum = 0;
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) sum += static_cast<double>(rng.Poisson(10.0));
  double mean = sum / kDraws;
  EXPECT_NEAR(mean, 10.0, 0.2);
}

TEST(RngTest, ExponentialMeanIsClose) {
  Rng rng(9);
  double sum = 0;
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / kDraws, 2.0, 0.1);
}

TEST(RngTest, UniformInRangeInclusive) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    int64_t v = rng.UniformInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// --- I/O cost model -----------------------------------------------------------

TEST(IoModelTest, BlocksForRoundsUp) {
  EXPECT_EQ(BlocksFor(0, 4096), 0u);
  EXPECT_EQ(BlocksFor(1, 4096), 1u);
  EXPECT_EQ(BlocksFor(4096, 4096), 1u);
  EXPECT_EQ(BlocksFor(4097, 4096), 2u);
}

TEST(IoModelTest, SimulatedSecondsWeighsRandomReadsMore) {
  IoCostParams params = IoCostParams::PaperEraDisk();
  IoStats seq;
  seq.sequential_reads = 100;
  IoStats rand;
  rand.random_reads = 100;
  EXPECT_LT(SimulatedIoSeconds(seq, params), SimulatedIoSeconds(rand, params));
}

TEST(IoModelTest, AccumulateAndReset) {
  IoStats a;
  a.sequential_reads = 1;
  a.random_reads = 2;
  a.writes = 3;
  IoStats b;
  b.sequential_reads = 10;
  b += a;
  EXPECT_EQ(b.sequential_reads, 11u);
  EXPECT_EQ(b.random_reads, 2u);
  EXPECT_EQ(b.writes, 3u);
  EXPECT_EQ(b.TotalReads(), 13u);
  b.Reset();
  EXPECT_EQ(b.TotalReads(), 0u);
  EXPECT_NE(a.ToString().find("seq_reads=1"), std::string::npos);
}

// --- ResultTable ----------------------------------------------------------------

TEST(ResultTableTest, PrintsAlignedRows) {
  ResultTable table("demo");
  table.SetHeader({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22222"});
  std::ostringstream out;
  table.Print(out);
  std::string text = out.str();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22222"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(ResultTableTest, CsvOutput) {
  ResultTable table("csv");
  table.SetHeader({"x", "y"});
  table.AddRow({"1", "2"});
  std::ostringstream out;
  table.PrintCsv(out);
  EXPECT_NE(out.str().find("x,y\n1,2\n"), std::string::npos);
}

TEST(ResultTableTest, NumberFormatting) {
  EXPECT_EQ(ResultTable::Num(1.23456, 2), "1.23");
  EXPECT_EQ(ResultTable::Num(2.0, 0), "2");
  EXPECT_EQ(ResultTable::Int(-42), "-42");
}

}  // namespace
}  // namespace bbsmine
