// Tests for src/core: RNG streams, parallel_for, tables, env parsing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/env.hpp"
#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "core/timer.hpp"

namespace mcmi {
namespace {

TEST(Rng, SameKeySameStream) {
  Xoshiro256 a = make_stream(42, 1, 2, 3);
  Xoshiro256 b = make_stream(42, 1, 2, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentKeysDiffer) {
  Xoshiro256 a = make_stream(42, 1, 2, 3);
  Xoshiro256 b = make_stream(42, 1, 2, 4);
  Xoshiro256 c = make_stream(43, 1, 2, 3);
  int same_ab = 0, same_ac = 0;
  for (int i = 0; i < 64; ++i) {
    const u64 va = a();
    if (va == b()) ++same_ab;
    if (va == c()) ++same_ac;
  }
  EXPECT_LT(same_ab, 2);
  EXPECT_LT(same_ac, 2);
}

TEST(Rng, KeyOrderMatters) {
  Xoshiro256 a = make_stream(7, 1, 2);
  Xoshiro256 b = make_stream(7, 2, 1);
  EXPECT_NE(a(), b());
}

TEST(Rng, SubstreamOfPrefixKeyIsMakeStream) {
  // The walk engine keys a row once and derives each chain's stream from
  // it; that must be the (seed, row, chain) stream itself.
  const u64 row_key = stream_key(20250922, 17);
  for (u64 chain : {0ULL, 1ULL, 116ULL}) {
    Xoshiro256 a = substream(row_key, chain);
    Xoshiro256 b = make_stream(20250922, 17, chain);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
  }
}

TEST(Rng, Uniform01InRange) {
  Xoshiro256 rng = make_stream(5);
  for (int i = 0; i < 10000; ++i) {
    const real_t u = uniform01(rng);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanIsHalf) {
  Xoshiro256 rng = make_stream(11);
  real_t sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += uniform01(rng);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Xoshiro256 rng = make_stream(13);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) counts[uniform_index(rng, 7)]++;
  for (int c : counts) EXPECT_NEAR(c, n / 7, n / 7 * 0.1);
}

TEST(Rng, NormalMoments) {
  Xoshiro256 rng = make_stream(17);
  const int n = 200000;
  real_t sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const real_t x = normal01(rng);
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, NormalScaleShift) {
  Xoshiro256 rng = make_stream(19);
  const int n = 100000;
  real_t sum = 0.0;
  for (int i = 0; i < n; ++i) sum += normal(rng, 3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(ParallelFor, VisitsEveryIndexOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(0, 1000, [&](index_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, RethrowsLowestIndexException) {
  // Several bodies throw; whatever the schedule, the caller sees the one
  // thrown at the lowest index, and every body below it has run.
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(4);
#endif
  for (int round = 0; round < 10; ++round) {
    std::vector<int> hits(1000, 0);
    std::string caught;
    try {
      parallel_for(0, 1000, [&](index_t i) {
        hits[static_cast<std::size_t>(i)]++;
        if (i == 611 || i == 37 || i == 998 || i == 40) {
          throw std::runtime_error(std::to_string(i));
        }
      });
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught, "37") << "round " << round;
    for (std::size_t i = 0; i <= 37; ++i) EXPECT_EQ(hits[i], 1) << i;
    for (int h : hits) EXPECT_LE(h, 1);
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

TEST(TextTable, AlignsAndCounts) {
  TextTable t({"name", "value"});
  t.add_row({"a", TextTable::fmt(static_cast<index_t>(3))});
  t.add_row({"bb", TextTable::sci(12345.6, 2)});
  EXPECT_EQ(t.rows(), 2);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("name"), std::string::npos);
  EXPECT_NE(os.str().find("1.23e+04"), std::string::npos);
}

TEST(TextTable, RejectsRaggedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TextTable, CsvRoundtripEscaping) {
  TextTable t({"x"});
  t.add_row({"va\"l,ue"});
  const std::string path = "/tmp/mcmi_test_table.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "x");
  EXPECT_EQ(row, "\"va\"\"l,ue\"");
}

TEST(Env, ParsesIntRealFlag) {
  setenv("MCMI_TEST_INT", "42", 1);
  setenv("MCMI_TEST_REAL", "2.5", 1);
  setenv("MCMI_TEST_FLAG", "yes", 1);
  EXPECT_EQ(env_int("MCMI_TEST_INT", 0), 42);
  EXPECT_DOUBLE_EQ(env_real("MCMI_TEST_REAL", 0.0), 2.5);
  EXPECT_TRUE(env_flag("MCMI_TEST_FLAG", false));
  EXPECT_EQ(env_int("MCMI_TEST_MISSING", 7), 7);
  setenv("MCMI_TEST_INT", "not-a-number", 1);
  EXPECT_EQ(env_int("MCMI_TEST_INT", 7), 7);
}

TEST(Timer, MeasuresElapsed) {
  WallTimer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x += std::sqrt(static_cast<double>(i));
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.millis(), t.seconds());
}

}  // namespace
}  // namespace mcmi
