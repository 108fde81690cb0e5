// End-to-end analytical estimator (§2 metrics, §4 case study): the model's
// predictions must land near the paper's measured anchors and reproduce its
// qualitative claims.
#include "core/inference_cost.h"

#include <gtest/gtest.h>

#include "hw/chip.h"
#include "plan/autotune.h"

namespace tsi {
namespace {

PartitionSpec Ws2dBatch64(WeightFormat f = WeightFormat::kBf16) {
  PartitionSpec s;
  s.mesh = Torus3D(4, 4, 4);
  s.ffn = FfnLayout::kWS2D;
  s.attn = AttnSharding::kBatch;
  s.weight_format = f;
  return s;
}

// Paper headline: "29ms per token during generation (int8), 64 chips,
// PaLM 540B, 2048 context". Allow 25%.
TEST(InferenceCostTest, HeadlineDecodeLatencyInt8) {
  InferenceEstimator est(Palm540BPadded(), TpuV4());
  auto best = plan::TuneGenerate(est, 64, WeightFormat::kInt8, 64, 1984, 64);
  ASSERT_TRUE(best.has_value());
  EXPECT_NEAR(best->result.PerStepLatency() / 28.4e-3, 1.0, 0.25);
}

// Figure 1: bf16 achieves ~36.9 ms/token where int8 achieves ~28.5.
TEST(InferenceCostTest, Int8BeatsBf16AtLowBatch) {
  InferenceEstimator est(Palm540BPadded(), TpuV4());
  auto i8 = plan::TuneGenerate(est, 64, WeightFormat::kInt8, 64, 1984, 64);
  auto bf = plan::TuneGenerate(est, 64, WeightFormat::kBf16, 64, 1984, 64);
  ASSERT_TRUE(i8 && bf);
  double ratio = bf->result.PerStepLatency() / i8->result.PerStepLatency();
  EXPECT_NEAR(ratio, 36.9 / 28.5, 0.2);
}

// At large batch the cost gap between int8 and bf16 narrows ("cost is more
// neutral ... dominated by the compute time").
TEST(InferenceCostTest, Int8AdvantageShrinksWithBatch) {
  InferenceEstimator est(Palm540BPadded(), TpuV4());
  auto adv = [&](double batch) {
    auto i8 = plan::TuneGenerate(est, 64, WeightFormat::kInt8, batch, 1984, 64);
    auto bf = plan::TuneGenerate(est, 64, WeightFormat::kBf16, batch, 1984, 64);
    return bf->result.cost_chipsec_per_token / i8->result.cost_chipsec_per_token;
  };
  EXPECT_GT(adv(16), adv(512));
  EXPECT_LT(adv(512), 1.35);
}

// Table 2 anchors (PaLM 540B, 64 chips): decode B=512 bf16 ~6.0s/64 tokens
// at 33% MFU; prefill B=512 bf16 ~85.2s at 76% MFU. Generous bands: our
// substrate is a model, not their testbed.
TEST(InferenceCostTest, Table2HighThroughputDecode) {
  InferenceEstimator est(Palm540BPadded(), TpuV4());
  auto r = est.Generate(Ws2dBatch64(), 512, 1984, 64);
  EXPECT_NEAR(r.seconds / 6.0, 1.0, 0.35);
  EXPECT_NEAR(r.mfu / 0.33, 1.0, 0.45);
}

TEST(InferenceCostTest, Table2HighThroughputPrefill) {
  InferenceEstimator est(Palm540BPadded(), TpuV4());
  auto best = plan::TunePhase(est, Phase::kPrefill, 64, WeightFormat::kBf16,
                              512, 2048);
  ASSERT_TRUE(best.has_value());
  EXPECT_NEAR(best->result.seconds / 85.2, 1.0, 0.25);
  EXPECT_NEAR(best->result.mfu / 0.76, 1.0, 0.2);
  // And the winning prefill layout is weight-gathered with batch-sharded
  // attention, as in Table 2.
  EXPECT_TRUE(best->plan.spec.ffn == FfnLayout::kWGXY ||
              best->plan.spec.ffn == FfnLayout::kWGXYZ)
      << best->plan.spec.ToString();
  EXPECT_EQ(best->plan.spec.attn, AttnSharding::kBatch);
}

// §4.3: serial blocks cost ~14% more decode latency than parallel blocks.
TEST(InferenceCostTest, SerialBlockCostsMoreDecodeLatency) {
  ModelConfig par = Palm540BPadded();
  ModelConfig ser = par;
  ser.parallel_block = false;
  InferenceEstimator ep(par, TpuV4()), es(ser, TpuV4());
  double tp = ep.DecodeStep(Ws2dBatch64(), 512, 2048).seconds;
  double ts = es.DecodeStep(Ws2dBatch64(), 512, 2048).seconds;
  double overhead = ts / tp;
  EXPECT_GT(overhead, 1.04);
  EXPECT_LT(overhead, 1.25);
}

// §3.5: disabling collective/compute overlap slows inference; the gain is
// largest where communication dominates.
TEST(InferenceCostTest, OverlapAblation) {
  SystemModel with;            // default overlap
  SystemModel without = with;
  without.overlap_fraction = 0;
  InferenceEstimator ew(Palm540BPadded(), TpuV4(), with);
  InferenceEstimator eo(Palm540BPadded(), TpuV4(), without);
  double speedup = eo.DecodeStep(Ws2dBatch64(), 512, 2048).seconds /
                   ew.DecodeStep(Ws2dBatch64(), 512, 2048).seconds;
  EXPECT_GT(speedup, 1.02);
  // 1D weight-stationary at 256 chips is communication-bound: bigger gain.
  PartitionSpec ws1d;
  ws1d.mesh = Torus3D(1, 16, 16);
  ws1d.ffn = FfnLayout::kWS1D;
  ws1d.attn = AttnSharding::kBatch;
  double speedup_1d = eo.DecodeStep(ws1d, 512, 2048).seconds /
                      ew.DecodeStep(ws1d, 512, 2048).seconds;
  EXPECT_GT(speedup_1d, speedup);
}

TEST(InferenceCostTest, DecodeLatencyGrowsWithContext) {
  InferenceEstimator est(Palm540BPadded(), TpuV4());
  double t1 = est.DecodeStep(Ws2dBatch64(), 512, 1024).seconds;
  double t2 = est.DecodeStep(Ws2dBatch64(), 512, 8192).seconds;
  EXPECT_GT(t2, t1);
}

TEST(InferenceCostTest, MfuImprovesWithBatch) {
  InferenceEstimator est(Palm540BPadded(), TpuV4());
  double m16 = est.Generate(Ws2dBatch64(), 16, 1984, 64).mfu;
  double m512 = est.Generate(Ws2dBatch64(), 512, 1984, 64).mfu;
  EXPECT_GT(m512, 2.0 * m16);
}

TEST(InferenceCostTest, CostMetricDefinition) {
  // cost = n_chips * time / tokens (§4.4).
  InferenceEstimator est(Palm62B(), TpuV4());
  PartitionSpec s;
  s.mesh = Torus3D(2, 2, 2);
  auto r = est.Prefill(s, 4, 512);
  EXPECT_DOUBLE_EQ(r.cost_chipsec_per_token, 8.0 * r.seconds / (4.0 * 512.0));
}

TEST(InferenceCostTest, PrefillWithPriorContextIsCheaperThanFull) {
  // Chatbot turn: 64 new tokens over 1920 of history costs far less than
  // prefilling 1984 from scratch.
  InferenceEstimator est(Palm540BPadded(), TpuV4());
  PartitionSpec s = Ws2dBatch64(WeightFormat::kInt8);
  double incremental = est.Prefill(s, 1, 64, 1920).seconds;
  double full = est.Prefill(s, 1, 1984, 0).seconds;
  EXPECT_LT(incremental, 0.25 * full);
}

// §4.4: "low-batch-size latencies grow sublinearly with model size".
TEST(InferenceCostTest, LatencyGrowsSublinearlyWithModelSize) {
  InferenceEstimator e62(Palm62B(), TpuV4());
  InferenceEstimator e540(Palm540BPadded(), TpuV4());
  auto b62 = plan::TuneGenerate(e62, 16, WeightFormat::kInt8, 32, 1984, 64);
  auto b540 = plan::TuneGenerate(e540, 64, WeightFormat::kInt8, 32, 1984, 64);
  ASSERT_TRUE(b62 && b540);
  double latency_ratio = b540->result.PerStepLatency() / b62->result.PerStepLatency();
  double size_ratio = 540.0 / 62.0;  // ~8.7
  EXPECT_LT(latency_ratio, 0.6 * size_ratio);
  EXPECT_GT(latency_ratio, 1.0);
}

TEST(InferenceCostTest, RooflineCompositionIsFasterThanAdditive) {
  SystemModel roofline;
  roofline.additive = false;
  InferenceEstimator ea(Palm540BPadded(), TpuV4());
  InferenceEstimator er(Palm540BPadded(), TpuV4(), roofline);
  double ta = ea.DecodeStep(Ws2dBatch64(), 256, 2048).seconds;
  double tr = er.DecodeStep(Ws2dBatch64(), 256, 2048).seconds;
  EXPECT_LT(tr, ta);
}

TEST(InferenceCostTest, GenerateSumsDecodeSteps) {
  InferenceEstimator est(Palm62B(), TpuV4());
  PartitionSpec s;
  s.mesh = Torus3D(2, 2, 2);
  s.attn = AttnSharding::kBatch;
  auto gen = est.Generate(s, 8, 100, 4);
  double sum = 0;
  for (int i = 1; i <= 4; ++i) sum += est.DecodeStep(s, 8, 100 + i).seconds;
  EXPECT_NEAR(gen.seconds, sum, 1e-9);
  EXPECT_DOUBLE_EQ(gen.steps, 4.0);
  EXPECT_DOUBLE_EQ(gen.tokens, 32.0);
}

}  // namespace
}  // namespace tsi
