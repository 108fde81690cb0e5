// Layout autotuner: the one layout search, run through the propagation pass.
//
// For each operating point (chips, phase, batch, context) the tuner takes
// the candidate enumeration (core/planner.h EnumerateSpecs, §4's structured
// space), runs every candidate through propagate + lower, self-checks that
// the schedule prices identically to the hand-coded LayerCost, and keeps
// the lowest-latency plan that fits memory (the first of equals). The
// figure benches, the examples and the serving plan cache all pick their
// layouts here.
//
// The search is purely analytic (milliseconds per point); functional
// validation of the winners -- bit-identical logits between a plan-chosen
// spec and the same spec run directly on the distributed engine -- lives in
// plan/validate.h and runs from tests and `plan_cli validate --functional`.
#pragma once

#include <optional>
#include <vector>

#include "core/planner.h"
#include "plan/cache.h"
#include "plan/lower.h"

namespace tsi {
namespace plan {

struct TuneResult {
  LoweredPlan plan;    // propagated + lowered winner
  PhaseResult result;  // analytic estimate at the tuned point
};

struct TuneStats {
  int points = 0;        // operating points tuned
  int candidates = 0;    // specs considered across all points
  int infeasible = 0;    // dropped for not fitting memory
  // Candidates whose schedule-derived price differed from LayerCost in any
  // CostBreakdown field. Must be zero; exported so BENCH_plan.json and
  // --validate catch a divergence the moment one appears.
  int price_mismatches = 0;
};

// True iff PriceBlock on the lowered schedule equals LayerCost on the
// lowered spec in every CostBreakdown field, bit for bit.
bool PriceMatchesLayerCost(const LoweredPlan& plan,
                           const InferenceEstimator& est, Phase phase,
                           double batch, double new_tokens, double context);

// Best plan for one phase at one operating point. Prefill prices the whole
// input (new_tokens = context_tokens); decode prices one step at `context`.
std::optional<TuneResult> TunePhase(const InferenceEstimator& est, Phase phase,
                                    int chips, WeightFormat format,
                                    double batch, double context,
                                    TuneStats* stats = nullptr);

// Best plan for a full generate (Figure 1 operating mode: `gen_len` tokens
// after `input_len` of context).
std::optional<TuneResult> TuneGenerate(const InferenceEstimator& est,
                                       int chips, WeightFormat format,
                                       double batch, double input_len,
                                       double gen_len,
                                       TuneStats* stats = nullptr);

// The tuned winner at every (chips, batch) point, in that order, skipping
// points where nothing fits -- the input of Figure 1/C.1's Pareto frontiers
// (ParetoFrontier). Decode points tune a generate of `gen_len` tokens after
// `input_len` and report the latency per generated token; prefill points
// tune the whole `input_len` input and report its total time.
std::vector<SweepPoint> Sweep(const InferenceEstimator& est, Phase phase,
                              const std::vector<int>& chip_counts,
                              const std::vector<double>& batches,
                              WeightFormat format, double input_len,
                              double gen_len = 0);

struct AutotuneRequest {
  std::vector<int> chip_counts;
  std::vector<double> batches;   // tuned at their power-of-two buckets
  std::vector<double> contexts;  // prefill input lens / decode context lens
  WeightFormat format = WeightFormat::kBf16;
};

// Tunes both phases over the request grid into a PlanCache keyed by
// (model, chips, phase, batch bucket, context bucket). Points whose bucket
// was already tuned are skipped, so the cache is a pure function of the
// bucketed grid -- independent of duplicate or unsorted request entries.
PlanCache BuildPlanCache(const InferenceEstimator& est,
                         const AutotuneRequest& req,
                         TuneStats* stats = nullptr);

}  // namespace plan
}  // namespace tsi
