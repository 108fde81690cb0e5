#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace tsi {
namespace {

TEST(StatsTest, MeanAndEmpty) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(StatsTest, PercentileInterpolatesOrderStatistics) {
  // NIST / numpy-default definition: index p/100 * (n-1), interpolated.
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 1.75);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 99), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(StatsTest, SummarizeMatchesPointQueries) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  LatencySummary s = Summarize(v);
  EXPECT_DOUBLE_EQ(s.mean, Mean(v));
  EXPECT_DOUBLE_EQ(s.p50, Percentile(v, 50));
  EXPECT_DOUBLE_EQ(s.p95, Percentile(v, 95));
  EXPECT_DOUBLE_EQ(s.p99, Percentile(v, 99));
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  LatencySummary empty = Summarize({});
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  EXPECT_DOUBLE_EQ(empty.max, 0.0);
}

// Every latency percentile the serving reports print goes through
// SortedPercentile, so its bits are pinned: an FNV-1a hash over Percentile
// and Summarize results for seeded vectors of every length up to 200, at
// quantiles that land between order statistics. Recorded on a native
// build; a build without -march=native must match it (tools/check.sh
// portable), which holds only if stats.cc spells the one fused
// multiply-add a native build contracts to.
TEST(StatsGoldenTest, PercentileBitsMatchTheRecordedHash) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](double d) {
    const uint64_t bits = std::bit_cast<uint64_t>(d);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  Rng rng(41);
  const double quantiles[] = {0, 1, 5, 10, 25, 33.3, 50, 66.7, 75, 90,
                              95, 99, 99.9, 100};
  for (int n = 1; n <= 200; ++n) {
    std::vector<double> v(static_cast<size_t>(n));
    for (double& x : v) x = rng.NextDouble() * 0.0375;
    for (double p : quantiles) mix(Percentile(v, p));
    const LatencySummary s = Summarize(v);
    for (double d : {s.mean, s.p50, s.p95, s.p99, s.max}) mix(d);
  }
  EXPECT_EQ(h, 0x1d01f88b93d41539ull);
}

TEST(TableTest, AlignsColumnsAndCountsRows) {
  Table t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "22"});
  EXPECT_EQ(t.num_rows(), 2u);
  std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  // Separator line present.
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TableTest, CsvHasNoPadding) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(FormatTest, Milliseconds) {
  EXPECT_EQ(FormatMs(0.0285), "28.5ms");
  EXPECT_EQ(FormatMs(1.9), "1.90s");
  EXPECT_EQ(FormatMs(0.0001), "0.1ms");
}

TEST(FormatTest, Percent) {
  EXPECT_EQ(FormatPercent(0.76), "76%");
  EXPECT_EQ(FormatPercent(0.0), "0%");
  EXPECT_EQ(FormatPercent(1.0), "100%");
}

TEST(FormatTest, Bytes) {
  EXPECT_EQ(FormatBytes(512), "512.0 B");
  EXPECT_EQ(FormatBytes(32.0 * 1024 * 1024 * 1024), "32.0 GiB");
  EXPECT_EQ(FormatBytes(3.0e12), "2.7 TiB");
}

TEST(FormatTest, Counts) {
  EXPECT_EQ(FormatCount(540000000000ll), "540B");
  EXPECT_EQ(FormatCount(1200000), "1.2M");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1500), "1.5k");
  EXPECT_EQ(FormatCount(1300000000000ll), "1.3T");
}

TEST(FormatTest, DoubleDigits) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(3.0, 0), "3");
}

}  // namespace
}  // namespace tsi
