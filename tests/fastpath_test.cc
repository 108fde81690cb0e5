// Decode fast path (engine/fastpath.h, docs/fastpath.md): the block op-graph
// and fusion pass must plan exactly the fusions each layout admits, and every
// fused kernel the plan maps to must be bit-identical to the unfused
// composition it replaces -- fp32 fusion is a pure memory-traffic
// optimization, and the int8 pipeline's fused quantizers and int8-KV
// attention reproduce their two-step counterparts exactly.
#include "engine/fastpath.h"

#include <gtest/gtest.h>

#include "model/attention.h"
#include "model/config.h"
#include "quant/int8.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace tsi {
namespace {

constexpr auto kWS1D = FfnLayout::kWS1D;
constexpr auto kWS2D = FfnLayout::kWS2D;
constexpr auto kWG = FfnLayout::kWGXYZ;
constexpr auto kHeads = AttnSharding::kHeads;
constexpr auto kFp32 = FastPathPrecision::kFp32;
constexpr auto kI8 = FastPathPrecision::kInt8;

FusedPlan PlanFor(const ModelConfig& cfg, FfnLayout ffn, int x, int yz,
                  bool fuse_collectives, FastPathPrecision prec,
                  BlockGraph* out_graph = nullptr) {
  BlockGraph g = BuildBlockGraph(cfg, ffn, kHeads, x, yz, fuse_collectives, prec,
                                 Replication{});
  FastPathConfig fc;
  fc.fuse_ops = true;
  fc.precision = prec;
  FusedPlan plan = FuseBlockGraph(&g, fc);
  if (out_graph != nullptr) *out_graph = std::move(g);
  return plan;
}

// --- Fusion-pass planning ---------------------------------------------------

TEST(FusionPassTest, FuseOpsOffPlansNothing) {
  BlockGraph g = BuildBlockGraph(TinyTestModel(), kWS1D, kHeads, 1, 4,
                                 /*fuse_collectives=*/false, kFp32,
                                 Replication{});
  FusedPlan plan = FuseBlockGraph(&g, FastPathConfig{});
  EXPECT_FALSE(plan.AnyFusion());
  EXPECT_EQ(plan.fused_ops_per_block, 0);
  EXPECT_EQ(g.NumFused(), 0);
}

TEST(FusionPassTest, ReplicatedQkvDropsOnlyTheInboundReshard) {
  // Batch-sharded attention on 2x2: the graph carries the all-to-all into
  // attention only while the q/k/v columns are head-sharded
  // (core/replication.h); the one back out stays either way.
  for (bool replicated : {false, true}) {
    BlockGraph g = BuildBlockGraph(TinyTestModel(), kWS2D, AttnSharding::kBatch,
                                   2, 2, /*fuse_collectives=*/false, kFp32,
                                   Replication{replicated});
    EXPECT_EQ(g.Find("attn_reshard") != nullptr, !replicated);
    ASSERT_NE(g.Find("attn_unshard"), nullptr);
    EXPECT_EQ(g.Find("attn")->inputs,
              std::vector<std::string>{replicated ? "qkv_allreduce"
                                                  : "attn_reshard"});
  }
}

TEST(FusionPassTest, ReplicatedWoDropsTheOutboundReshardAndBranchSum) {
  // With wo's rows on both yz chips (core/replication.h, site 3) the rows
  // stay on their owner: only the all-gather(x) separates attention from
  // wo (none on 1x2), and the branch sum happens inside the yz all-reduce,
  // so neither output projection accumulates it.
  const Replication wo{true, false, true};
  for (int x : {2, 1}) {
    BlockGraph g = BuildBlockGraph(TinyTestModel(), x == 1 ? kWS1D : kWS2D,
                                   AttnSharding::kBatch, x, 2,
                                   /*fuse_collectives=*/false, kFp32, wo);
    EXPECT_EQ(g.Find("attn_unshard"), nullptr);
    EXPECT_EQ(g.Find("attn_gather") != nullptr, x > 1);
    EXPECT_EQ(g.Find("branch_sum"), nullptr);
    ASSERT_NE(g.Find("block_allreduce"), nullptr);
    EXPECT_EQ(g.Find("block_allreduce")->inputs,
              (std::vector<std::string>{"wo", "ffn_out"}));
    FastPathConfig fc;
    fc.fuse_ops = true;
    const FusedPlan plan = FuseBlockGraph(&g, fc);
    EXPECT_FALSE(plan.wo_accumulate);
    EXPECT_FALSE(plan.wout_accumulate);
    EXPECT_TRUE(plan.norm_into_attn);
  }
}

TEST(FusionPassTest, LayerWholeOverXHasNoXCollective) {
  // With every layer weight whole over x (core/replication.h, site 4) the
  // 2x2 block's only collective is the yz all-reduce. The x ranks' E-block
  // partials are summed on the chip, between the projections and their
  // consumers, so the FFN activation stays out of the input matmul's
  // epilogue while the norm still fuses into every projection and the
  // int8 quantize into the activation.
  Replication all{true, true, true};
  all.x = true;
  for (FastPathPrecision prec : {kFp32, FastPathPrecision::kInt8}) {
    BlockGraph g = BuildBlockGraph(TinyTestModel(), kWS2D, AttnSharding::kBatch,
                                   2, 2, /*fuse_collectives=*/true, prec, all);
    std::vector<std::string> comms;
    for (const OpNode& op : g.ops)
      if (op.kind == OpKind::kComm) comms.push_back(op.tag);
    EXPECT_EQ(comms, std::vector<std::string>{"block_allreduce"});
    ASSERT_NE(g.Find("qkv_block_sum"), nullptr);
    EXPECT_EQ(g.Find("attn")->inputs,
              std::vector<std::string>{"qkv_block_sum"});
    ASSERT_NE(g.Find("ffn_block_sum"), nullptr);
    EXPECT_EQ(g.Find("ffn_act")->inputs,
              std::vector<std::string>{"ffn_block_sum"});
    FastPathConfig fc;
    fc.fuse_ops = true;
    fc.precision = prec;
    const FusedPlan plan = FuseBlockGraph(&g, fc);
    EXPECT_FALSE(plan.act_epilogue);
    if (prec == kFp32) {
      EXPECT_TRUE(plan.norm_into_attn);
      EXPECT_TRUE(plan.norm_into_ffn);
    } else {
      EXPECT_TRUE(plan.quantize_fused_norm);
      EXPECT_TRUE(plan.quantize_fused_act);
    }
  }
  // On one x rank the site changes nothing.
  BlockGraph one = BuildBlockGraph(TinyTestModel(), kWS1D, AttnSharding::kBatch,
                                   1, 2, false, kFp32, all);
  EXPECT_EQ(one.Find("qkv_block_sum"), nullptr);
  EXPECT_EQ(one.Find("ffn_block_sum"), nullptr);
}

TEST(FusionPassTest, ParallelBlockFusesNormActivationAndBranchSum) {
  // TinyTestModel: parallel block, gated FFN, MQA. On WS1D with yz > 1 the
  // block allreduce bars the final residual, but the branch sum folds into
  // wout and both norm reads fuse into their consumers.
  BlockGraph g;
  FusedPlan plan = PlanFor(TinyTestModel(), kWS1D, 1, 4, false, kFp32, &g);
  EXPECT_TRUE(plan.norm_into_attn);
  EXPECT_TRUE(plan.norm_into_ffn);
  EXPECT_TRUE(plan.act_epilogue);
  EXPECT_TRUE(plan.wout_accumulate);
  EXPECT_FALSE(plan.wo_accumulate);
  // ln folded into its first consumer (q), ffn_act into ffn_in, branch_sum
  // into ffn_out.
  EXPECT_EQ(g.Find("ln")->fused_into, g.IndexOf("q"));
  EXPECT_EQ(g.Find("ffn_act")->fused_into, g.IndexOf("ffn_in"));
  EXPECT_EQ(g.Find("branch_sum")->fused_into, g.IndexOf("ffn_out"));
  EXPECT_EQ(plan.fused_ops_per_block, 3);
}

TEST(FusionPassTest, SerialBlockOnOneChipFusesBothResiduals) {
  // MHA serial block, single chip: no collectives anywhere, so both
  // residual adds fold into their producing projections.
  FusedPlan plan = PlanFor(TinyTestModelMultihead(), kWS1D, 1, 1, false, kFp32);
  EXPECT_TRUE(plan.wo_accumulate);
  EXPECT_TRUE(plan.wout_accumulate);
  EXPECT_TRUE(plan.norm_into_attn);
  EXPECT_TRUE(plan.norm_into_ffn);
  EXPECT_TRUE(plan.act_epilogue);
}

TEST(FusionPassTest, BranchAllReduceBarsResidualFusion) {
  // Serial block with yz > 1: an allreduce sits between each projection and
  // its residual add, so neither accumulate fusion may fire.
  BlockGraph g;
  FusedPlan plan =
      PlanFor(TinyTestModelMultihead(), kWS1D, 1, 2, false, kFp32, &g);
  EXPECT_FALSE(plan.wo_accumulate);
  EXPECT_FALSE(plan.wout_accumulate);
  EXPECT_EQ(g.Find("attn_residual")->fused_into, -1);
  // The norm and activation fusions are local and still apply.
  EXPECT_TRUE(plan.norm_into_attn);
  EXPECT_TRUE(plan.act_epilogue);
}

TEST(FusionPassTest, FusedCollectiveFfnInputBarsNormFusion) {
  // fuse_collectives on a 2D mesh turns ffn_in into a matmul+reduce-scatter
  // comm node, which needs the materialized normed tensor: norm_into_ffn
  // must not fire while norm_into_attn still does.
  BlockGraph g;
  FusedPlan plan = PlanFor(TinyTestModel(), kWS2D, 2, 2, true, kFp32, &g);
  EXPECT_TRUE(plan.norm_into_attn);
  EXPECT_FALSE(plan.norm_into_ffn);
  EXPECT_EQ(g.Find("ffn_in")->kind, OpKind::kComm);
  // Activation reads a comm output, not a matmul: no epilogue fusion.
  EXPECT_FALSE(plan.act_epilogue);
}

TEST(FusionPassTest, WeightGatheredBlockFusesEverythingLocally) {
  // WG blocks are all-local (only the weight prefetch is a collective):
  // every pattern matches.
  FusedPlan plan = PlanFor(TinyTestModel(), kWG, 2, 2, false, kFp32);
  EXPECT_TRUE(plan.norm_into_attn);
  EXPECT_TRUE(plan.norm_into_ffn);
  EXPECT_TRUE(plan.act_epilogue);
  EXPECT_TRUE(plan.wo_accumulate);
  EXPECT_TRUE(plan.wout_accumulate);
}

TEST(FusionPassTest, Int8PlansQuantizeFusionsInsteadOfFp32Prologues) {
  BlockGraph g;
  FusedPlan plan = PlanFor(TinyTestModel(), kWS1D, 1, 1, false, kI8, &g);
  EXPECT_TRUE(plan.int8);
  // Int8 matmuls read quantized rows: the fp32 norm prologue and activation
  // epilogue do not apply...
  EXPECT_FALSE(plan.norm_into_attn);
  EXPECT_FALSE(plan.norm_into_ffn);
  EXPECT_FALSE(plan.act_epilogue);
  // ...the quantizers fuse into their producers instead, and residual
  // accumulation still folds into the int8 projections.
  EXPECT_TRUE(plan.quantize_fused_norm);
  EXPECT_TRUE(plan.quantize_fused_act);
  EXPECT_TRUE(plan.wout_accumulate);
  EXPECT_EQ(g.Find("ln_quant")->fused_into, g.IndexOf("ln"));
  EXPECT_EQ(g.Find("act_quant")->fused_into, g.IndexOf("ffn_act"));
}

TEST(FusionPassTest, Int8CrossChipActivationQuantizeDoesNotFuse) {
  // With d_model split over x the activation requantize reads the all-gather
  // output, not the activation kernel: it stays a standalone pass.
  FusedPlan plan = PlanFor(TinyTestModel(), kWS2D, 2, 2, false, kI8);
  EXPECT_TRUE(plan.quantize_fused_norm);  // norm output is still local
  EXPECT_FALSE(plan.quantize_fused_act);
}

// --- Fused fp32 kernels: bit-identical to the unfused composition ----------

struct FusedKernelFixture {
  Rng rng{123};
  Tensor x = Tensor::Gaussian({6, 16}, rng);
  Tensor gain = Tensor::Gaussian({16}, rng);
  Tensor w = Tensor::Gaussian({16, 12}, rng);
  Tensor wg = Tensor::Gaussian({16, 12}, rng);
};

TEST(FusedKernelTest, MatMulNormAMatchesLayerNormThenMatMul) {
  FusedKernelFixture f;
  Tensor want = MatMul(LayerNorm(f.x, f.gain), f.w);
  RowNormTransform nt = NormTransformFromRows(f.x, f.gain);
  Tensor got = MatMulNormA(f.x, nt, f.w);
  EXPECT_EQ(MaxAbsDiff(got, want), 0.0f) << "norm-on-pack must be exact";
}

TEST(FusedKernelTest, MatMulNormAMatchesMomentsPath) {
  // The distributed-norm site: the transform built from reduced moments must
  // reproduce NormalizeWithMoments reads exactly.
  FusedKernelFixture f;
  Tensor moments = RowMoments(f.x);
  Tensor want = MatMul(NormalizeWithMoments(f.x, moments, f.gain, 16.0), f.w);
  RowNormTransform nt = NormTransformFromMoments(moments, f.gain, 16.0);
  EXPECT_EQ(MaxAbsDiff(MatMulNormA(f.x, nt, f.w), want), 0.0f);
}

TEST(FusedKernelTest, MatMulNormAGeluMatchesComposition) {
  FusedKernelFixture f;
  Tensor want = Gelu(MatMul(LayerNorm(f.x, f.gain), f.w));
  RowNormTransform nt = NormTransformFromRows(f.x, f.gain);
  EXPECT_EQ(MaxAbsDiff(MatMulNormAGelu(f.x, nt, f.w), want), 0.0f);
}

TEST(FusedKernelTest, MatMulNormASwishMulGateMatchesComposition) {
  FusedKernelFixture f;
  Tensor y = LayerNorm(f.x, f.gain);
  Tensor want = Swish2(MatMul(y, f.w)).Mul(MatMul(y, f.wg));
  RowNormTransform nt = NormTransformFromRows(f.x, f.gain);
  EXPECT_EQ(MaxAbsDiff(MatMulNormASwishMulGate(f.x, nt, f.w, f.wg), want),
            0.0f);
}

TEST(FusedKernelTest, MatMulAccumulateMatchesAddInPlace) {
  FusedKernelFixture f;
  Tensor c = Tensor::Gaussian({6, 12}, f.rng);
  Tensor want = c;
  want.AddInPlace(MatMul(f.x, f.w));
  MatMulAccumulate(f.x, f.w, &c);
  EXPECT_EQ(MaxAbsDiff(c, want), 0.0f) << "accumulate epilogue must be exact";
}

// --- Fused int8 quantizers: bit-identical to quantize(composition) ---------

void ExpectSameQuantized(const QuantizedActivations& got,
                         const QuantizedActivations& want) {
  ASSERT_EQ(got.shape, want.shape);
  EXPECT_EQ(got.values, want.values);
  EXPECT_EQ(got.scales, want.scales);
}

TEST(FusedQuantTest, QuantizeNormedMatchesTwoStep) {
  FusedKernelFixture f;
  ExpectSameQuantized(
      QuantizeNormedInt8(f.x, NormTransformFromRows(f.x, f.gain)),
      QuantizeActivationsInt8(LayerNorm(f.x, f.gain)));
}

TEST(FusedQuantTest, QuantizeNormedMatchesMomentsSite) {
  FusedKernelFixture f;
  Tensor moments = RowMoments(f.x);
  ExpectSameQuantized(
      QuantizeNormedInt8(f.x, NormTransformFromMoments(moments, f.gain, 16.0)),
      QuantizeActivationsInt8(NormalizeWithMoments(f.x, moments, f.gain, 16.0)));
}

TEST(FusedQuantTest, QuantizeGeluAndSwishGateMatchTwoStep) {
  Rng rng(7);
  Tensor h = Tensor::Gaussian({5, 24}, rng);
  Tensor g = Tensor::Gaussian({5, 24}, rng);
  ExpectSameQuantized(QuantizeGeluInt8(h), QuantizeActivationsInt8(Gelu(h)));
  ExpectSameQuantized(QuantizeSwishGateInt8(h, g),
                      QuantizeActivationsInt8(Swish2(h).Mul(g)));
}

TEST(FusedQuantTest, MatMulInt8AccumulateMatchesAddInPlace) {
  Rng rng(11);
  QuantizedActivations xq = QuantizeActivationsInt8(Tensor::Gaussian({4, 16}, rng));
  QuantizedTensor wq = QuantizeInt8(Tensor::Gaussian({16, 8}, rng));
  Tensor c = Tensor::Gaussian({4, 8}, rng);
  Tensor want = c;
  want.AddInPlace(MatMulInt8(xq, wq));
  MatMulInt8Accumulate(xq, wq, &c);
  EXPECT_EQ(MaxAbsDiff(c, want), 0.0f);
}

// --- Int8 KV cache payload and SDPA ----------------------------------------

TEST(QuantizedKvTest, RoundTripErrorBoundedByHalfScale) {
  Rng rng(21);
  Tensor kv = Tensor::Gaussian({3, 4, 2, 8}, rng);
  QuantizedKv q = QuantizeKvInt8(kv);
  ASSERT_EQ(q.shape, kv.shape());
  ASSERT_EQ(static_cast<int64_t>(q.scales.size()), 3 * 4 * 2);
  Tensor back = Dequantize(q);
  for (int64_t i = 0; i < kv.numel(); ++i) {
    const float scale = q.scales[static_cast<size_t>(i / 8)];
    EXPECT_LE(std::abs(kv[i] - back[i]), 0.5f * scale + 1e-7f) << "elem " << i;
  }
  // Bytes: int8 payload plus one fp32 scale per (row, position, head).
  EXPECT_EQ(q.ByteSize(), kv.numel() + 4 * 3 * 4 * 2);
}

TEST(QuantizedKvTest, AllZeroVectorUsesUnitScaleAndStaysZero) {
  Tensor kv = Tensor::Zeros({1, 2, 1, 4});
  QuantizedKv q = QuantizeKvInt8(kv);
  for (float s : q.scales) EXPECT_EQ(s, 1.0f);
  EXPECT_EQ(MaxAbsDiff(Dequantize(q), kv), 0.0f);
}

TEST(QuantizedKvTest, SliceConcatAndRowMatchFp32Counterparts) {
  Rng rng(31);
  Tensor a = Tensor::Gaussian({2, 3, 4, 8}, rng);
  Tensor b = Tensor::Gaussian({2, 2, 4, 8}, rng);
  QuantizedKv qa = QuantizeKvInt8(a), qb = QuantizeKvInt8(b);

  EXPECT_EQ(MaxAbsDiff(Dequantize(SliceKvHeads(qa, 1, 2)),
                       Dequantize(qa).Slice(2, 1, 2)),
            0.0f);
  EXPECT_EQ(MaxAbsDiff(Dequantize(ConcatKvTime(qa, qb)),
                       Tensor::Concat(1, {Dequantize(qa), Dequantize(qb)})),
            0.0f);
  // Positions 2..3 of the rows laid end to end: row 0's last, row 1's first.
  EXPECT_EQ(MaxAbsDiff(Dequantize(SliceKvPositions(qa, 2, 2)),
                       Dequantize(qa).Reshape({1, 6, 4, 8}).Slice(1, 2, 2)),
            0.0f);
  // Concat onto an empty block returns the appended block unchanged.
  QuantizedKv empty;
  EXPECT_EQ(MaxAbsDiff(Dequantize(ConcatKvTime(empty, qb)), Dequantize(qb)),
            0.0f);
}

TEST(Int8KvSdpaTest, BitIdenticalToFp32SdpaOnDequantizedKv) {
  Rng rng(41);
  // GQA shape: 4 query heads reading 2 kv heads, decode-style q block.
  Tensor q = Tensor::Gaussian({3, 1, 4, 8}, rng);
  Tensor k = Tensor::Gaussian({3, 6, 2, 8}, rng);
  Tensor v = Tensor::Gaussian({3, 6, 2, 8}, rng);
  QuantizedKv kq = QuantizeKvInt8(k), vq = QuantizeKvInt8(v);
  Tensor want =
      ScaledDotProductAttention(q, Dequantize(kq), Dequantize(vq), true);
  Tensor got = ScaledDotProductAttentionInt8Kv(q, kq, vq, true);
  EXPECT_EQ(MaxAbsDiff(got, want), 0.0f)
      << "int8-KV attention must fold dequant exactly";
}

}  // namespace
}  // namespace tsi
