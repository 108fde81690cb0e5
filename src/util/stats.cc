#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace tsi {

double SortedPercentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  double idx = p / 100.0 * (static_cast<double>(sorted.size()) - 1.0);
  size_t lo = static_cast<size_t>(idx);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = idx - static_cast<double>(lo);
  // The fused multiply-add a native build contracts this interpolation to,
  // spelled out so every ISA rounds it the same way (tsi_util gets
  // -march=native, and GCC contracts a*b + c by default).
  return std::fma(sorted[lo], 1 - frac, sorted[hi] * frac);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double s = 0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

double Percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return SortedPercentile(values, p);
}

LatencySummary Summarize(const std::vector<double>& values) {
  LatencySummary s;
  if (values.empty()) return s;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  s.mean = Mean(sorted);
  s.p50 = SortedPercentile(sorted, 50);
  s.p95 = SortedPercentile(sorted, 95);
  s.p99 = SortedPercentile(sorted, 99);
  s.max = sorted.back();
  return s;
}

}  // namespace tsi
