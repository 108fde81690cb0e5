// Planner behaviour: spec enumeration, layout selection (through the
// autotuner) matching the paper's serving strategy (§4.1), and
// Pareto-frontier invariants (§4.4 / Figure 1).
#include "core/planner.h"

#include <gtest/gtest.h>

#include "hw/chip.h"
#include "plan/autotune.h"

namespace tsi {
namespace {

TEST(PlannerTest, EnumerationRespectsDivisibility) {
  ModelConfig cfg = Palm540BPadded();  // E = 18432 = 2^11 * 9
  for (const auto& s : EnumerateSpecs(cfg, 64, WeightFormat::kBf16)) {
    EXPECT_EQ(cfg.d_model % s.mesh.x(), 0) << s.ToString();
    EXPECT_EQ(cfg.d_ff % (s.mesh.y() * s.mesh.z()), 0) << s.ToString();
    if (s.ffn == FfnLayout::kWS1D) {
      EXPECT_EQ(s.mesh.x(), 1);
    }
    if (s.ffn == FfnLayout::kWS2D) {
      EXPECT_GT(s.mesh.x(), 1);
    }
  }
}

TEST(PlannerTest, EnumerationCoversAllLayoutFamilies) {
  ModelConfig cfg = Palm540BPadded();
  auto specs = EnumerateSpecs(cfg, 64, WeightFormat::kBf16);
  bool ws1d = false, ws2d = false, wg = false, batch = false, heads = false;
  for (const auto& s : specs) {
    ws1d |= s.ffn == FfnLayout::kWS1D;
    ws2d |= s.ffn == FfnLayout::kWS2D;
    wg |= s.ffn == FfnLayout::kWGXYZ;
    batch |= s.attn == AttnSharding::kBatch;
    heads |= s.attn == AttnSharding::kHeads;
  }
  EXPECT_TRUE(ws1d && ws2d && wg && batch && heads);
}

TEST(PlannerTest, SingleChipHasDegenerateSpec) {
  auto specs = EnumerateSpecs(TinyTestModel(), 1, WeightFormat::kBf16);
  ASSERT_FALSE(specs.empty());
  EXPECT_EQ(specs[0].num_chips(), 1);
}

// §4.1's serving strategy: decode always prefers weight-stationary 2D;
// prefill switches to weight-gathered as batch-in-tokens grows.
TEST(PlannerTest, DecodePrefersWeightStationary2D) {
  InferenceEstimator est(Palm540BPadded(), TpuV4());
  for (double batch : {64.0, 256.0, 512.0}) {
    auto best =
        plan::TuneGenerate(est, 64, WeightFormat::kBf16, batch, 1984, 64);
    ASSERT_TRUE(best.has_value()) << batch;
    EXPECT_EQ(best->plan.spec.ffn, FfnLayout::kWS2D) << "batch " << batch;
  }
}

TEST(PlannerTest, PrefillSwitchesToWeightGatheredAtLargeBatch) {
  InferenceEstimator est(Palm540BPadded(), TpuV4());
  auto small =
      plan::TunePhase(est, Phase::kPrefill, 64, WeightFormat::kBf16, 1, 2048);
  auto large =
      plan::TunePhase(est, Phase::kPrefill, 64, WeightFormat::kBf16, 512, 2048);
  ASSERT_TRUE(small && large);
  EXPECT_TRUE(small->plan.spec.ffn == FfnLayout::kWS2D ||
              small->plan.spec.ffn == FfnLayout::kWS1D)
      << small->plan.spec.ToString();
  EXPECT_TRUE(large->plan.spec.ffn == FfnLayout::kWGX ||
              large->plan.spec.ffn == FfnLayout::kWGXY ||
              large->plan.spec.ffn == FfnLayout::kWGXYZ)
      << large->plan.spec.ToString();
}

// The paper's proposed decode layout: batch-sharded multiquery attention
// wins at long context.
TEST(PlannerTest, DecodePrefersBatchShardedAttentionAtLongContext) {
  InferenceEstimator est(Palm540BPadded(), TpuV4());
  auto best = plan::TuneGenerate(est, 64, WeightFormat::kBf16, 256, 8192, 64);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->plan.spec.attn, AttnSharding::kBatch);
}

TEST(PlannerTest, InfeasibleReturnsNullopt) {
  // bf16 540B on 4 chips cannot fit (280 GB/chip needed vs 32 GiB).
  InferenceEstimator est(Palm540BPadded(), TpuV4());
  EXPECT_FALSE(
      plan::TuneGenerate(est, 4, WeightFormat::kBf16, 64, 1984, 64).has_value());
}

TEST(PlannerTest, ParetoFrontierHasNoDominatedPoints) {
  InferenceEstimator est(Palm62B(), TpuV4());
  auto points = plan::Sweep(est, Phase::kDecode, {8, 16, 32, 64},
                            {8, 32, 128, 512}, WeightFormat::kBf16, 1984, 64);
  ASSERT_GT(points.size(), 4u);
  auto frontier = ParetoFrontier(points);
  ASSERT_FALSE(frontier.empty());
  EXPECT_LE(frontier.size(), points.size());
  // Sorted by latency, strictly improving cost.
  for (size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GE(frontier[i].latency, frontier[i - 1].latency);
    EXPECT_LT(frontier[i].cost_chipsec_per_token,
              frontier[i - 1].cost_chipsec_per_token);
  }
  // No frontier point dominated by any sweep point.
  for (const auto& f : frontier) {
    for (const auto& p : points) {
      bool dominates = p.latency < f.latency &&
                       p.cost_chipsec_per_token < f.cost_chipsec_per_token;
      EXPECT_FALSE(dominates);
    }
  }
}

// Figure 1's structure: more chips buy latency at higher cost; larger batch
// buys cost at higher latency.
TEST(PlannerTest, BatchTradesLatencyForCost) {
  InferenceEstimator est(Palm540BPadded(), TpuV4());
  auto b64 = plan::TuneGenerate(est, 64, WeightFormat::kBf16, 64, 1984, 64);
  auto b512 = plan::TuneGenerate(est, 64, WeightFormat::kBf16, 512, 1984, 64);
  ASSERT_TRUE(b64 && b512);
  EXPECT_LT(b64->result.PerStepLatency(), b512->result.PerStepLatency());
  EXPECT_GT(b64->result.cost_chipsec_per_token,
            b512->result.cost_chipsec_per_token);
}

TEST(PlannerTest, MoreChipsReduceLatencyAtFixedBatch) {
  InferenceEstimator est(Palm540BPadded(), TpuV4());
  auto c64 = plan::TuneGenerate(est, 64, WeightFormat::kInt8, 64, 1984, 64);
  auto c256 = plan::TuneGenerate(est, 256, WeightFormat::kInt8, 64, 1984, 64);
  ASSERT_TRUE(c64 && c256);
  EXPECT_LT(c256->result.PerStepLatency(), c64->result.PerStepLatency());
}

TEST(PlannerTest, DefaultMeshNearHalfSqrt) {
  // Appendix A.2.1: X ~ 0.5 * sqrt(n).
  EXPECT_EQ(DefaultMeshFor(64).x(), 4);
  EXPECT_EQ(DefaultMeshFor(256).x(), 8);
  EXPECT_EQ(DefaultMeshFor(16).x(), 2);
  EXPECT_EQ(DefaultMeshFor(1).num_chips(), 1);
  for (int n : {4, 8, 16, 64, 128, 256}) {
    EXPECT_EQ(DefaultMeshFor(n).num_chips(), n);
  }
}

}  // namespace
}  // namespace tsi
