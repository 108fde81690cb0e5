// Lowering: propagated block graph -> legacy PartitionSpec + priced
// collective schedule.
//
// LowerBlock groups the inserted collectives into the pricing structure
// LayerCost charges (the F-side group over x, the residual E-side
// all-reduces, the per-layer weight gather, the attention all-to-all pair)
// and recovers the FfnLayout enum from the gather axes, so a propagated plan
// can flow into everything built on PartitionSpec (InferenceEstimator, the
// serving stack, the benches).
//
// PriceBlock then prices the schedule with the SAME arithmetic LayerCost
// uses -- shared helpers from core/block_cost.h, byte volumes from
// core/ffn_cost.h -- differing only in where the structure (which groups
// exist, how many alphas each carries, which axes they span) comes from:
// LayerCost hand-codes it per layout enum, PriceBlock reads it off the
// inserted collectives. tests/plan_test.cc holds the two equal to the double
// (EXPECT_DOUBLE_EQ) for every paper layout; that equality is the proof the
// propagation pass rederives §3 rather than approximating it.
#pragma once

#include "core/block_cost.h"
#include "plan/propagate.h"

namespace tsi {
namespace plan {

struct LoweredPlan {
  PartitionSpec spec;     // legacy-vocabulary equivalent of the assignment
  PropagatedBlock block;  // per-op specs + schedule, for inspection

  // Pricing groups read off the schedule:
  int f_collectives = 0;     // alpha-bearing entries in the F-side group
  unsigned f_axes = kAxisNone;
  int e_allreduces = 0;      // residual all-reduce count (= paper's e_pairs)
  unsigned e_axes = kAxisNone;
  bool weight_gathered = false;
  unsigned gather_axes = kAxisNone;
  // Attention reshard all-to-alls: 2, less one for each replication site
  // that removes one (q/k/v: the inbound, wo: the outbound); 0 without
  // batch-sharded attention on a weight-stationary layout.
  int a2a_count = 0;

  // Human-readable schedule, one collective per line.
  std::string ScheduleToString() const;
};

// Dies (TSI_CHECK) on assignments with no PartitionSpec equivalent
// (E sharded off x, F sharded off yz, or a gather set that is not a
// prefix of x <= xy <= xyz).
LoweredPlan LowerBlock(const PropagatedBlock& block);

// Convenience: canonical assignment -> build -> propagate -> lower, with
// the q/k/v, wo and x replication ChooseReplication (core/replication.h)
// picks for `spec` on `chip` at `hop_latency`.
LoweredPlan LowerSpec(const ModelConfig& config, const PartitionSpec& spec,
                      const ChipSpec& chip, double hop_latency);

// Prices the lowered schedule; equals LayerCost(config, plan.spec, ...)
// exactly for every canonical layout when the plan was lowered on `chip` at
// sys.hop_latency.
CostBreakdown PriceBlock(const LoweredPlan& plan, const ChipSpec& chip,
                         const SystemModel& sys, Phase phase, double batch,
                         double new_tokens, double context);

}  // namespace plan
}  // namespace tsi
