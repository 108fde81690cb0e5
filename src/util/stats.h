// Shared summary statistics for latency/throughput reporting.
//
// One implementation of mean/percentile used by every layer that reports
// request latencies: the serving loop and the static-batch baseline
// (serve/scheduler.h, serve/analytic.h), the obs reporters
// (obs::Histogram sample quantiles, obs/anatomy.h, obs/slo.h), and the
// benches.
//
// THE percentile contract (all reporters share it, so an anatomy report and
// a bench summary can never disagree on the same data): linear interpolation
// between order statistics (NIST 7.2.5.2 / numpy default). Values sorted
// ascending, index p/100 * (n-1), interpolate between the two surrounding
// order statistics; bounds are inclusive -- p=0 is the minimum, p=100 the
// maximum, and a percentile always lies within [min, max] (never a bucket
// bound or an extrapolation).
#pragma once

#include <vector>

namespace tsi {

// Arithmetic mean; 0 for an empty vector.
double Mean(const std::vector<double>& values);

// p-th percentile, p in [0, 100], linear interpolation between order
// statistics; 0 for an empty vector. Takes a copy because it sorts.
double Percentile(std::vector<double> values, double p);

// Same contract over values the caller already sorted ascending (exposed so
// multi-quantile reporters sort once); 0 for an empty vector.
double SortedPercentile(const std::vector<double>& sorted, double p);

// The percentile set every serving report uses.
struct LatencySummary {
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

// Computes the summary in one sort; zeros for an empty vector.
LatencySummary Summarize(const std::vector<double>& values);

}  // namespace tsi
