// Tests for util/: checked asserts, RNG, statistics, tables.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace dtm {
namespace {

TEST(Check, ThrowsWithMessage) {
  try {
    DTM_CHECK(1 == 2, "context " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Check, PassesSilently) { DTM_CHECK(2 + 2 == 4); }

TEST(Check, RequireThrowsThePlainMessage) {
  const auto what = [](auto fail) {
    try {
      fail();
    } catch (const CheckError& e) {
      return std::string(e.what());
    }
    return std::string("no CheckError");
  };
  EXPECT_EQ(what([] { DTM_REQUIRE(1 == 2, "bad input " << 42); }),
            "bad input 42");
  EXPECT_EQ(what([] { DTM_REQUIRE(1 == 2); }), "requirement failed: 1 == 2");
  DTM_REQUIRE(2 + 2 == 4, "never streamed");
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(4);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, Uniform01Range) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, GeometricGapAtLeastOne) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) EXPECT_GE(rng.geometric_gap(0.3), 1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.geometric_gap(1.0), 1);
}

TEST(Rng, SampleDistinctProperties) {
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    const auto s = rng.sample_distinct(20, 7);
    EXPECT_EQ(s.size(), 7u);
    std::set<std::int32_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 7u);
    for (const auto v : s) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 20);
    }
  }
}

TEST(Rng, SampleDistinctFullRange) {
  Rng rng(22);
  const auto s = rng.sample_distinct(5, 5);
  std::set<std::int32_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::multiset<int> a(v.begin(), v.end()), b(w.begin(), w.end());
  EXPECT_EQ(a, b);
}

TEST(Zipf, UniformWhenSZero) {
  ZipfSampler z(4, 0.0);
  Rng rng(77);
  std::vector<int> count(4, 0);
  for (int i = 0; i < 8000; ++i) ++count[z.draw(rng)];
  for (const int c : count) EXPECT_NEAR(c, 2000, 250);
}

TEST(Zipf, SkewFavorsLowRanks) {
  ZipfSampler z(100, 1.2);
  Rng rng(78);
  std::vector<int> count(100, 0);
  for (int i = 0; i < 20000; ++i) ++count[z.draw(rng)];
  EXPECT_GT(count[0], count[10]);
  EXPECT_GT(count[0], 20000 / 100 * 5);  // far above uniform share
}

TEST(Zipf, DrawInRange) {
  ZipfSampler z(7, 2.0);
  Rng rng(79);
  for (int i = 0; i < 1000; ++i) {
    const auto r = z.draw(rng);
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 7);
  }
}

TEST(OnlineStats, KnownValues) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  OnlineStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37 - 3;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(Percentile, EndpointsAndMedian) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
}

TEST(Table, RendersAlignedAndCsv) {
  Table t({"name", "n", "ratio"});
  t.row().add("clique").add(16).add(1.5);
  t.row().add("line").add(128).add(2.25);
  EXPECT_EQ(t.num_rows(), 2u);
  std::ostringstream os;
  t.print(os, "demo");
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("clique"), std::string::npos);
  EXPECT_NE(s.find("2.250"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("name,n,ratio"), std::string::npos);
  EXPECT_NE(csv.str().find("line,128,2.250"), std::string::npos);
}

TEST(Table, RaggedRowRejected) {
  Table t({"a", "b"});
  t.row().add(1);
  EXPECT_THROW((void)t.row(), CheckError);
}

TEST(Table, AddBeforeRowRejected) {
  Table t({"a"});
  EXPECT_THROW((void)t.add(1), CheckError);
}

}  // namespace
}  // namespace dtm
