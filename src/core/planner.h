// Partitioning planner: the layout search space and Pareto frontiers (§4).
//
// Instead of black-box search (Alpa/GSPMD style), layouts come from the
// paper's small structured space -- mesh factorizations of the chip count,
// the five FFN layouts, and the two attention shardings -- enumerated here.
// The one search over it is the autotuner (plan/autotune.h): it prices each
// candidate with the analytical estimator, discards configurations that do
// not fit in memory, and keeps the latency winner. Sweeping batch size and
// chip count through it (plan::Sweep) then yields the cost-vs-latency
// Pareto frontiers of Figure 1/C.1, which ParetoFrontier extracts.
#pragma once

#include <vector>

#include "core/inference_cost.h"

namespace tsi {

// All candidate specs for `n_chips`: mesh shapes whose X divides d_model and
// whose Y*Z divides d_ff, crossed with FFN layouts (WS-1D only on X == 1
// meshes, WS-2D only on X > 1) and both attention shardings.
//
// By default the list is DEDUPLICATED: candidates whose cost model inputs
// coincide -- same attention sharding, same (X, Y*Z), same weight-gather
// width and same residual-reduction group -- are represented by their first
// enumeration (e.g. the y/z transposes of a mesh for any layout, or WG-X vs
// WG-XY on a z-only mesh). The first-of-equals convention matches the
// autotuner's tie-breaking (it keeps the first of equally fast candidates),
// so dedup never changes a winner. `dedup = false` returns the raw cross
// product (tests compare the two).
std::vector<PartitionSpec> EnumerateSpecs(const ModelConfig& config, int n_chips,
                                          WeightFormat format,
                                          bool dedup = true);

// One point of a latency/efficiency sweep.
struct SweepPoint {
  int chips = 0;
  double batch = 0;
  PartitionSpec spec;
  double latency = 0;  // seconds per token (decode) or seconds total (prefill)
  double cost_chipsec_per_token = 0;
  double mfu = 0;
};

// Keeps the points not dominated in (latency, cost): a point survives iff no
// other point is at most as slow AND at most as expensive (with one strict).
// Output is sorted by latency. Only the cost field is read as the efficiency
// metric, so Figure C.1 reuses it by storing the negated MFU there.
std::vector<SweepPoint> ParetoFrontier(std::vector<SweepPoint> points);

}  // namespace tsi
