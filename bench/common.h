// Shared helpers for the reproduction harnesses (one binary per paper
// table/figure; see DESIGN.md's experiment index and EXPERIMENTS.md for the
// paper-vs-measured record).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "hw/chip.h"
#include "plan/autotune.h"
#include "util/table.h"

namespace tsi {

inline std::vector<int> PaperChipCounts() { return {8, 16, 32, 64, 128, 256}; }

inline std::vector<double> PowerOfTwoBatches(double lo, double hi) {
  std::vector<double> out;
  for (double b = lo; b <= hi; b *= 2) out.push_back(b);
  return out;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// Formats a microsecond-precision latency like the paper's tables (ms).
inline std::string Ms(double seconds, int digits = 1) {
  return FormatDouble(seconds * 1e3, digits);
}

}  // namespace tsi
