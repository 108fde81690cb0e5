// Failure injection and boundary behaviour: invariant violations must die
// loudly (TSI_CHECK), and degenerate-but-legal inputs must work.
#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/sampler.h"
#include "hw/chip.h"
#include "model/reference.h"
#include "plan/autotune.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace tsi {
namespace {

using EdgeDeathTest = ::testing::Test;

TEST(EdgeDeathTest, TensorChunkRequiresDivisibility) {
  Tensor t(Shape{6, 4});
  EXPECT_DEATH(t.Chunk(0, 4, 0), "not divisible");
}

TEST(EdgeDeathTest, TensorSliceBoundsChecked) {
  Tensor t(Shape{4, 4});
  EXPECT_DEATH(t.Slice(0, 2, 3), "slice");
}

TEST(EdgeDeathTest, MatMulInnerDimMismatch) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{4, 2});
  EXPECT_DEATH(MatMul(a, b), "inner-dim mismatch");
}

TEST(EdgeDeathTest, ReshapeNumelMismatch) {
  Tensor t(Shape{2, 3});
  EXPECT_DEATH(t.Reshape({4, 2}), "->");
}

TEST(EdgeDeathTest, CausalMaskRejectsMoreQueriesThanKeys) {
  Tensor scores(Shape{5, 3});
  EXPECT_DEATH(CausalMask(scores), "queries cannot outnumber");
}

TEST(EdgeDeathTest, TorusRejectsNonPositiveDims) {
  EXPECT_DEATH(Torus3D(0, 1, 1), "positive");
}

TEST(EdgeDeathTest, EngineRejectsWs1DOnShardedMesh) {
  ModelWeights w = ModelWeights::Random(TinyTestModel(), 1);
  SimMachine machine(Torus3D(2, 2, 1), TpuV4());
  EngineSpec spec;
  spec.prefill_ffn = FfnLayout::kWS1D;
  spec.decode_ffn = FfnLayout::kWS1D;
  EXPECT_DEATH(DistributedEngine(w, &machine, spec), "mesh.x == 1");
}

TEST(EdgeDeathTest, EngineRejectsWeightGatheredWithHeadSharding) {
  ModelWeights w = ModelWeights::Random(TinyTestModel(), 2);
  SimMachine machine(Torus3D(2, 2, 1), TpuV4());
  EngineSpec spec;
  spec.prefill_ffn = FfnLayout::kWGXYZ;
  spec.attn = AttnSharding::kHeads;
  EXPECT_DEATH(DistributedEngine(w, &machine, spec), "batch-sharded");
}

TEST(EdgeDeathTest, EngineRejectsAnalyticOnlyLayouts) {
  ModelWeights w = ModelWeights::Random(TinyTestModel(), 3);
  SimMachine machine(Torus3D(2, 2, 1), TpuV4());
  EngineSpec spec;
  spec.prefill_ffn = FfnLayout::kWGX;
  EXPECT_DEATH(DistributedEngine(w, &machine, spec), "analytically");
}

TEST(EdgeDeathTest, BatchShardingRequiresDivisibleBatch) {
  ModelWeights w = ModelWeights::Random(TinyTestModel(), 4);
  SimMachine machine(Torus3D(2, 2, 1), TpuV4());
  EngineSpec spec;
  spec.attn = AttnSharding::kBatch;
  DistributedEngine engine(w, &machine, spec);
  std::vector<int32_t> tokens(3 * 2, 1);  // batch 3 on 4 chips
  EXPECT_DEATH(engine.Prefill(tokens, 3), "batch");
}

TEST(EdgeDeathTest, ShardingRequiresDivisibleDims) {
  ModelConfig cfg = TinyTestModel();  // d_ff = 64
  ModelWeights w = ModelWeights::Random(cfg, 5);
  EXPECT_DEATH(ShardWeights(w, Torus3D(1, 3, 1)), "divide");
}

// The KV cache's write protocol dies loudly on the inconsistencies that
// previously corrupted length() silently (mismatched t across chips/layers,
// partial layer coverage, stray appends).

TEST(EdgeDeathTest, KvCacheRejectsAppendOutsideStep) {
  ShardedKvCache cache(1, 1, AttnSharding::kHeads);
  Tensor kv({1, 2, 1, 4});
  EXPECT_DEATH(cache.Append(0, 0, kv, kv), "outside a BeginStep");
}

TEST(EdgeDeathTest, KvCacheRejectsMismatchedT) {
  ShardedKvCache cache(2, 1, AttnSharding::kBatch);
  cache.BeginStep({{0}, {1}}, 2);
  Tensor good({1, 2, 1, 4}), bad({1, 3, 1, 4});
  cache.Append(0, 0, good, good);
  EXPECT_DEATH(cache.Append(1, 0, bad, bad), "mismatched t");
}

TEST(EdgeDeathTest, KvCacheRejectsLaneAppendingAnotherWidth) {
  // A ragged step: lane 0 declares 3 positions, lane 1 one. A block that
  // gives lane 0 two positions (or packs the wrong total) must die.
  ShardedKvCache cache(1, 1, AttnSharding::kHeads);
  cache.BeginStep({{0, 1}}, {{3, 1}});
  Tensor per_lane({2, 2, 1, 4});
  EXPECT_DEATH(cache.Append(0, 0, per_lane, per_lane),
               "lane 0 appended 2 positions into a 3-wide lane");
  Tensor packed({1, 5, 1, 4});
  EXPECT_DEATH(cache.Append(0, 0, packed, packed), "4 positions in all");
  Tensor good({1, 4, 1, 4});
  cache.Append(0, 0, good, good);
  cache.CommitStep();
  EXPECT_EQ(cache.slot_length(0), 3);
  EXPECT_EQ(cache.slot_length(1), 1);
}

TEST(EdgeDeathTest, KvCacheRejectsRowsNotMatchingTargets) {
  ShardedKvCache cache(1, 1, AttnSharding::kHeads);
  cache.BeginStep({{0, 1}}, 1);  // two declared targets
  Tensor one_row({1, 1, 1, 4});
  EXPECT_DEATH(cache.Append(0, 0, one_row, one_row), "slot targets declared");
}

TEST(EdgeDeathTest, KvCacheRejectsDoubleAppend) {
  ShardedKvCache cache(1, 2, AttnSharding::kHeads);
  cache.BeginStep({{0}}, 1);
  Tensor kv({1, 1, 1, 4});
  cache.Append(0, 0, kv, kv);
  EXPECT_DEATH(cache.Append(0, 0, kv, kv), "double append");
}

TEST(EdgeDeathTest, KvCacheRejectsFp32AppendIntoInt8Cache) {
  // An int8-format cache (decode fast path) only accepts AppendQuantized;
  // silently widening one chip's block would corrupt the shared cache.
  ShardedKvCache cache(1, 1, AttnSharding::kHeads, WeightFormat::kInt8);
  cache.BeginStep({{0}}, 2);
  Tensor kv({1, 2, 1, 4});
  EXPECT_DEATH(cache.Append(0, 0, kv, kv), "mixed-precision append");
}

TEST(EdgeDeathTest, KvCacheRejectsQuantizedAppendIntoFp32Cache) {
  ShardedKvCache cache(1, 1, AttnSharding::kHeads);
  cache.BeginStep({{0}}, 2);
  Rng rng(3);
  QuantizedKv q = QuantizeKvInt8(Tensor::Gaussian({1, 2, 1, 4}, rng));
  EXPECT_DEATH(cache.AppendQuantized(0, 0, q, q), "mixed-precision append");
}

TEST(EdgeDeathTest, KvCacheRejectsMismatchedScaleCount) {
  // A quantized block must carry exactly one scale per (row, position,
  // head); a truncated scale vector would read out of bounds in SDPA.
  ShardedKvCache cache(1, 1, AttnSharding::kHeads, WeightFormat::kInt8);
  cache.BeginStep({{0}}, 2);
  Rng rng(4);
  QuantizedKv good = QuantizeKvInt8(Tensor::Gaussian({1, 2, 1, 4}, rng));
  QuantizedKv bad = good;
  bad.scales.pop_back();
  EXPECT_DEATH(cache.AppendQuantized(0, 0, bad, good),
               "mismatched scale count");
  EXPECT_DEATH(cache.AppendQuantized(0, 0, good, bad),
               "mismatched scale count");
}

TEST(EdgeDeathTest, KvCacheRejectsMissingLayerCoverage) {
  ShardedKvCache cache(1, 2, AttnSharding::kHeads);
  cache.BeginStep({{0}}, 1);
  Tensor kv({1, 1, 1, 4});
  cache.Append(0, 0, kv, kv);  // layer 1 never appended
  EXPECT_DEATH(cache.CommitStep(), "never appended");
}

TEST(EdgeDeathTest, KvCacheRejectsKvShapeDrift) {
  ShardedKvCache cache(1, 1, AttnSharding::kHeads);
  Tensor kv({1, 1, 1, 4});
  cache.BeginStep({{0}}, 1);
  cache.Append(0, 0, kv, kv);
  cache.CommitStep();
  Tensor drifted({1, 1, 2, 4});  // kv heads changed mid-stream
  cache.BeginStep({{0}}, 1);
  EXPECT_DEATH(cache.Append(0, 0, drifted, drifted), "shape drift");
}

TEST(EdgeDeathTest, KvCacheRejectsResetMidStep) {
  ShardedKvCache cache(1, 1, AttnSharding::kHeads);
  cache.BeginStep({{0}}, 1);
  EXPECT_DEATH(cache.ResetSlot(0), "mid-step");
}

TEST(EdgeDeathTest, KvCacheRejectsNonResidentSlot) {
  // kBatch: slot 0's context lives on chip 0; a later step cannot route the
  // slot's rows to chip 1.
  ShardedKvCache cache(2, 1, AttnSharding::kBatch);
  Tensor kv({1, 1, 1, 4});
  cache.BeginStep({{0}, {}}, 1);
  cache.Append(0, 0, kv, kv);
  cache.CommitStep();
  EXPECT_DEATH(cache.BeginStep({{}, {0}}, 1), "not resident");
}

// --- Paged-cache failure modes (ForkSlot / refcount protocol) ---------------

namespace {
// One committed 6-token step into `slot` of a 1-chip, 1-layer fp32 cache
// (page_size 4: the second page is partial, primed for COW).
void CommitSixTokens(ShardedKvCache& cache, int64_t slot) {
  Tensor kv({1, 6, 1, 4});
  cache.BeginStep({{slot}}, 6);
  cache.Append(0, 0, kv, kv);
  cache.CommitStep();
}
}  // namespace

TEST(EdgeDeathTest, KvCacheRejectsForkFromNonResidentSlot) {
  ShardedKvCache cache(1, 1, AttnSharding::kHeads, WeightFormat::kBf16,
                       KvCacheConfig{/*page_size=*/4});
  // Nothing committed anywhere: there is no prefix to share.
  EXPECT_DEATH(cache.ForkSlot(0, 1, 4), "non-resident");
  CommitSixTokens(cache, 0);
  cache.ResetSlot(0);  // freed again -> non-resident again
  EXPECT_DEATH(cache.ForkSlot(0, 1, 4), "non-resident");
}

TEST(EdgeDeathTest, KvCacheRejectsForkMidStep) {
  ShardedKvCache cache(1, 1, AttnSharding::kHeads, WeightFormat::kBf16,
                       KvCacheConfig{/*page_size=*/4});
  CommitSixTokens(cache, 0);
  cache.BeginStep({{0}}, 1);
  // Mid-step the boundary page is already allocated to this step's append;
  // sharing it now would hand the child half-written data.
  EXPECT_DEATH(cache.ForkSlot(0, 1, 4), "mid-step");
}

TEST(EdgeDeathTest, KvCacheRejectsForkBeyondCommittedPrefix) {
  ShardedKvCache cache(1, 1, AttnSharding::kHeads, WeightFormat::kBf16,
                       KvCacheConfig{/*page_size=*/4});
  CommitSixTokens(cache, 0);
  EXPECT_DEATH(cache.ForkSlot(0, 1, 7), "exceeds slot");
}

TEST(EdgeDeathTest, KvCacheRejectsForkIntoNonEmptySlot) {
  ShardedKvCache cache(1, 1, AttnSharding::kHeads, WeightFormat::kBf16,
                       KvCacheConfig{/*page_size=*/4});
  CommitSixTokens(cache, 0);
  CommitSixTokens(cache, 1);
  EXPECT_DEATH(cache.ForkSlot(0, 1, 4), "non-empty");
}

TEST(EdgeDeathTest, KvCacheRejectsDoubleResetRefcountUnderflow) {
  ShardedKvCache cache(1, 1, AttnSharding::kHeads, WeightFormat::kBf16,
                       KvCacheConfig{/*page_size=*/4});
  CommitSixTokens(cache, 0);
  cache.ResetSlot(0);
  // The slot's pages went back to the free list; dereferencing them again
  // would underflow another sequence's refcounts.
  EXPECT_DEATH(cache.ResetSlot(0), "refcount underflow");
}

TEST(EdgeDeathTest, KvCacheRejectsAppendIntoUncommittedCowSplit) {
  ShardedKvCache cache(1, 1, AttnSharding::kHeads, WeightFormat::kBf16,
                       KvCacheConfig{/*page_size=*/4});
  CommitSixTokens(cache, 0);
  cache.ForkSlot(0, 1, 6);
  // The child's divergent step COW-splits the boundary page in BeginStep;
  // abandoning that step (no CommitStep) leaves the cache poisoned -- the
  // next BeginStep dies rather than appending into the half-committed split.
  Tensor kv({1, 1, 1, 4});
  cache.BeginStep({{1}}, 1);
  cache.Append(0, 0, kv, kv);
  EXPECT_DEATH(cache.BeginStep({{1}}, 1), "step already open");
}

// --- Degenerate but legal ---------------------------------------------------

TEST(EdgeCaseTest, SingleChipEngineIsJustTheModel) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights w = ModelWeights::Random(cfg, 6);
  ReferenceModel reference(&w);
  SimMachine machine(Torus3D(1, 1, 1), TpuV4());
  EngineSpec spec;
  spec.prefill_ffn = FfnLayout::kWS1D;
  spec.decode_ffn = FfnLayout::kWS1D;
  DistributedEngine engine(w, &machine, spec);
  std::vector<int32_t> tokens = {1, 2, 3};
  KvCache cache;
  EXPECT_LT(MaxAbsDiff(engine.Prefill(tokens, 1), reference.Prefill(tokens, 1, &cache)),
            1e-4f);
  EXPECT_EQ(machine.TotalNetworkBytes(), 0.0);
}

TEST(EdgeCaseTest, BatchOfOneWorks) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights w = ModelWeights::Random(cfg, 7);
  SimMachine machine(Torus3D(2, 2, 1), TpuV4());
  EngineSpec spec;  // head-sharded: batch-1 is fine
  DistributedEngine engine(w, &machine, spec);
  Tensor logits = engine.Prefill({5, 6}, 1);
  EXPECT_EQ(logits.shape(), (Shape{1, 2, cfg.vocab_size}));
}

TEST(EdgeCaseTest, SingleTokenPrefill) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights w = ModelWeights::Random(cfg, 8);
  SimMachine machine(Torus3D(1, 2, 2), TpuV4());
  EngineSpec spec;
  spec.attn = AttnSharding::kBatch;
  DistributedEngine engine(w, &machine, spec);
  std::vector<int32_t> one_each = {1, 2, 3, 4};
  Tensor logits = engine.Prefill(one_each, 4);
  EXPECT_EQ(logits.dim(1), 1);
  EXPECT_EQ(engine.context_length(), 1);
}

TEST(EdgeCaseTest, PlannerOnOddChipCounts) {
  // 12 = 2^2 * 3. PaLM dims are powers of two, so no 12-chip mesh divides
  // them: the planner must report infeasibility rather than produce an
  // invalid layout.
  InferenceEstimator palm(Palm62B(), TpuV4());
  EXPECT_FALSE(
      plan::TuneGenerate(palm, 12, WeightFormat::kInt8, 12, 512, 8).has_value());

  // A model whose dims carry a factor of 3 partitions fine on 12 chips.
  ModelConfig cfg = TinyTestModel();
  cfg.d_model = 96;
  cfg.d_ff = 192;
  cfg.n_heads = 12;
  cfg.num_layers = 8;
  InferenceEstimator est(cfg, TpuV4());
  auto best = plan::TuneGenerate(est, 12, WeightFormat::kInt8, 12, 512, 8);
  ASSERT_TRUE(best.has_value());
  const Torus3D& mesh = best->plan.spec.mesh;
  EXPECT_EQ(mesh.num_chips(), 12);
  EXPECT_EQ(cfg.d_model % mesh.x(), 0);
  EXPECT_EQ(cfg.d_ff % (mesh.y() * mesh.z()), 0);
}

TEST(EdgeCaseTest, EstimatorHandlesTinyAndHugeBatch) {
  InferenceEstimator est(Palm62B(), TpuV4());
  PartitionSpec s;
  s.mesh = Torus3D(2, 2, 2);
  s.weight_format = WeightFormat::kInt8;
  auto tiny = est.DecodeStep(s, 1, 1);
  auto huge = est.DecodeStep(s, 4096, 32768);
  EXPECT_GT(tiny.seconds, 0);
  EXPECT_GT(huge.seconds, tiny.seconds);
  EXPECT_FALSE(huge.fits_memory);  // 4096 x 32k context cannot fit on 8 chips
}

TEST(EdgeCaseTest, ZeroTemperatureSamplerNeverConsumesRandomness) {
  SamplerOptions opt;
  opt.temperature = 0.0;
  opt.seed = 1;
  Sampler a(opt);
  std::vector<float> l1 = {0.0f, 1.0f};
  // Interleave greedy samples; results depend only on logits.
  EXPECT_EQ(a.Sample(l1.data(), 2), 1);
  EXPECT_EQ(a.Sample(l1.data(), 2), 1);
}

}  // namespace
}  // namespace tsi
