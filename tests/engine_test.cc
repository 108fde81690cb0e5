// Distributed-engine correctness: every supported combination of mesh shape,
// FFN layout, attention sharding, block style and weight format must produce
// the same logits as the single-chip reference model, for prefill and for
// autoregressive decode on the shared KV cache.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>

#include "core/attn_cost.h"
#include "hw/chip.h"
#include "model/reference.h"
#include "sim/trace.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace tsi {
namespace {

std::vector<int32_t> RandomTokens(int64_t n, int64_t vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> t(static_cast<size_t>(n));
  for (auto& v : t) v = static_cast<int32_t>(rng.NextBelow(static_cast<uint64_t>(vocab)));
  return t;
}

struct EngineCase {
  int x, y, z;
  FfnLayout prefill_ffn;
  FfnLayout decode_ffn;
  AttnSharding attn;
  int variant;  // 0: MQA+parallel+gated, 1: MHA+serial+plain, 2: GQA(2 kv)
  WeightFormat format;
  bool fused = false;  // §3.5 Looped CollectiveEinsum
};

std::string CaseName(const ::testing::TestParamInfo<EngineCase>& info) {
  const auto& p = info.param;
  std::string s = std::to_string(p.x) + "x" + std::to_string(p.y) + "x" +
                  std::to_string(p.z);
  auto clean = [](std::string v) {
    std::string out;
    for (char c : v)
      if (isalnum(static_cast<unsigned char>(c))) out += c;
    return out;
  };
  s += "_" + clean(ToString(p.prefill_ffn)) + "_" + clean(ToString(p.decode_ffn));
  s += "_" + clean(ToString(p.attn));
  s += p.variant == 0 ? "_mqa" : (p.variant == 1 ? "_mha" : "_gqa");
  s += "_" + clean(ToString(p.format));
  if (p.fused) s += "_fused";
  return s;
}

ModelConfig ConfigForVariant(int variant) {
  switch (variant) {
    case 1: return TinyTestModelMultihead();
    case 2: return TinyTestModelGrouped();
    default: return TinyTestModel();
  }
}

class EngineEquivalenceTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineEquivalenceTest, MatchesReferenceThroughPrefillAndDecode) {
  const EngineCase& p = GetParam();
  ModelConfig cfg = ConfigForVariant(p.variant);
  ModelWeights weights = ModelWeights::Random(cfg, 42);

  // Reference: identical numerics include the int8 roundtrip when used.
  ModelWeights ref_weights = weights;
  if (p.format == WeightFormat::kInt8) ref_weights.SimulateInt8Roundtrip();
  ReferenceModel reference(&ref_weights);

  SimMachine machine(Torus3D(p.x, p.y, p.z), TpuV4());
  EngineSpec spec;
  spec.prefill_ffn = p.prefill_ffn;
  spec.decode_ffn = p.decode_ffn;
  spec.attn = p.attn;
  spec.weight_format = p.format;
  spec.fuse_collectives = p.fused;
  DistributedEngine engine(weights, &machine, spec);

  const int64_t B = 8, L = 4;
  auto tokens = RandomTokens(B * L, cfg.vocab_size, 7);

  KvCache ref_cache;
  Tensor want = reference.Prefill(tokens, B, &ref_cache);
  Tensor got = engine.Prefill(tokens, B);
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_LT(MaxAbsDiff(got, want), 5e-3f) << "prefill logits diverge";
  EXPECT_EQ(engine.context_length(), L);
  EXPECT_GT(machine.MaxTime(), 0.0) << "virtual clock must advance";

  // Two decode steps on the shared cache.
  auto next = RandomTokens(B, cfg.vocab_size, 8);
  for (int step = 0; step < 2; ++step) {
    Tensor want_step = reference.DecodeStep(next, &ref_cache);
    Tensor got_step = engine.DecodeStep(next);
    EXPECT_LT(MaxAbsDiff(got_step, want_step), 5e-3f) << "decode step " << step;
    next = RandomTokens(B, cfg.vocab_size, 9 + static_cast<uint64_t>(step));
  }
  EXPECT_EQ(engine.context_length(), L + 2);
}

constexpr auto kWS1D = FfnLayout::kWS1D;
constexpr auto kWS2D = FfnLayout::kWS2D;
constexpr auto kWG = FfnLayout::kWGXYZ;
constexpr auto kHeads = AttnSharding::kHeads;
constexpr auto kBatch = AttnSharding::kBatch;
constexpr auto kBf16 = WeightFormat::kBf16;
constexpr auto kInt8 = WeightFormat::kInt8;

INSTANTIATE_TEST_SUITE_P(
    Layouts, EngineEquivalenceTest,
    ::testing::Values(
        // Single chip degenerate.
        EngineCase{1, 1, 1, kWS1D, kWS1D, kHeads, false, kBf16},
        // 1D weight-stationary (Megatron-style), heads and batch sharding.
        EngineCase{1, 2, 2, kWS1D, kWS1D, kHeads, false, kBf16},
        EngineCase{1, 2, 2, kWS1D, kWS1D, kBatch, false, kBf16},
        EngineCase{1, 4, 1, kWS1D, kWS1D, kHeads, true, kBf16},
        EngineCase{1, 2, 4, kWS1D, kWS1D, kHeads, false, kBf16},
        // 2D weight-stationary across mesh shapes.
        EngineCase{2, 2, 1, kWS2D, kWS2D, kHeads, false, kBf16},
        EngineCase{2, 2, 2, kWS2D, kWS2D, kHeads, false, kBf16},
        EngineCase{2, 2, 2, kWS2D, kWS2D, kBatch, false, kBf16},
        EngineCase{4, 2, 1, kWS2D, kWS2D, kHeads, false, kBf16},
        EngineCase{2, 1, 2, kWS2D, kWS2D, kBatch, false, kBf16},
        // Multihead + serial blocks.
        EngineCase{2, 2, 1, kWS2D, kWS2D, kHeads, true, kBf16},
        EngineCase{2, 2, 2, kWS2D, kWS2D, kBatch, true, kBf16},
        EngineCase{1, 2, 2, kWS1D, kWS1D, kBatch, true, kBf16},
        // Weight-gathered prefill and decode.
        EngineCase{2, 2, 2, kWG, kWG, kBatch, false, kBf16},
        EngineCase{2, 2, 1, kWG, kWG, kBatch, true, kBf16},
        // The paper's serving mixture: weight-gathered prefill, 2D
        // weight-stationary decode, batch-sharded attention (Table 2).
        EngineCase{2, 2, 2, kWG, kWS2D, kBatch, false, kBf16},
        EngineCase{2, 2, 1, kWG, kWS2D, kBatch, true, kBf16},
        EngineCase{1, 2, 2, kWG, kWS1D, kBatch, false, kBf16},
        // Grouped-query attention (2 kv heads): sharded over yz when it
        // divides (yz=2), replicated when it does not (yz=4, yz=8).
        EngineCase{2, 2, 1, kWS2D, kWS2D, kHeads, 2, kBf16},
        EngineCase{2, 2, 2, kWS2D, kWS2D, kHeads, 2, kBf16},
        EngineCase{1, 2, 4, kWS1D, kWS1D, kHeads, 2, kBf16},
        EngineCase{2, 2, 2, kWS2D, kWS2D, kBatch, 2, kBf16},
        EngineCase{2, 2, 2, kWG, kWS2D, kBatch, 2, kBf16},
        // Int8 weights.
        EngineCase{2, 2, 1, kWS2D, kWS2D, kHeads, false, kInt8},
        EngineCase{2, 2, 2, kWG, kWS2D, kBatch, false, kInt8},
        EngineCase{1, 2, 2, kWS1D, kWS1D, kHeads, true, kInt8},
        // Fused collectives (§3.5) combined with int8 and GQA.
        EngineCase{4, 2, 1, kWS2D, kWS2D, kBatch, 0, kInt8, true},
        EngineCase{2, 2, 2, kWS2D, kWS2D, kHeads, 2, kBf16, true},
        EngineCase{2, 2, 1, kWS2D, kWS2D, kHeads, 1, kBf16, true}),
    CaseName);

TEST(EngineTest, MultiplePrefillsAccumulateContext) {
  // §3.5 "incremental processing of sequences during prefill": two prefill
  // calls must equal one combined prefill.
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 1);
  ReferenceModel reference(&weights);

  const int64_t B = 4, L1 = 3, L2 = 2;
  auto t1 = RandomTokens(B * L1, cfg.vocab_size, 2);
  auto t2 = RandomTokens(B * L2, cfg.vocab_size, 3);

  // Reference over the concatenation, per sequence.
  std::vector<int32_t> all;
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t i = 0; i < L1; ++i) all.push_back(t1[static_cast<size_t>(b * L1 + i)]);
    for (int64_t i = 0; i < L2; ++i) all.push_back(t2[static_cast<size_t>(b * L2 + i)]);
  }
  KvCache rc;
  Tensor want = reference.Prefill(all, B, &rc);

  SimMachine machine(Torus3D(2, 2, 1), TpuV4());
  EngineSpec spec;
  spec.attn = AttnSharding::kBatch;
  DistributedEngine engine(weights, &machine, spec);
  engine.Prefill(t1, B);
  Tensor got2 = engine.Prefill(t2, B);
  EXPECT_EQ(engine.context_length(), L1 + L2);
  // The second prefill's logits must match the tail of the combined run.
  Tensor want2 = want.Slice(1, L1, L2);
  EXPECT_LT(MaxAbsDiff(got2, want2), 5e-3f);
}

TEST(EngineTest, IncrementalWeightGatheredPrefillThenStationaryDecode) {
  // The serving mixture end to end (§3.5): a prompt prefilled in TWO
  // weight-gathered chunks, then decoded weight-stationary on the same
  // batch-sharded cache, must track the reference model throughout.
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 11);
  ReferenceModel reference(&weights);

  const int64_t B = 8, L1 = 3, L2 = 2;
  auto t1 = RandomTokens(B * L1, cfg.vocab_size, 12);
  auto t2 = RandomTokens(B * L2, cfg.vocab_size, 13);
  std::vector<int32_t> all;
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t i = 0; i < L1; ++i) all.push_back(t1[static_cast<size_t>(b * L1 + i)]);
    for (int64_t i = 0; i < L2; ++i) all.push_back(t2[static_cast<size_t>(b * L2 + i)]);
  }
  KvCache rc;
  Tensor want = reference.Prefill(all, B, &rc);

  SimMachine machine(Torus3D(2, 2, 2), TpuV4());
  EngineSpec spec;
  spec.prefill_ffn = FfnLayout::kWGXYZ;
  spec.decode_ffn = FfnLayout::kWS2D;
  spec.attn = AttnSharding::kBatch;
  DistributedEngine engine(weights, &machine, spec);
  engine.Prefill(t1, B);
  Tensor got2 = engine.Prefill(t2, B);
  EXPECT_EQ(engine.context_length(), L1 + L2);
  EXPECT_LT(MaxAbsDiff(got2, want.Slice(1, L1, L2)), 5e-3f)
      << "chunked WG prefill diverges";

  auto next = RandomTokens(B, cfg.vocab_size, 14);
  for (int step = 0; step < 3; ++step) {
    Tensor want_step = reference.DecodeStep(next, &rc);
    Tensor got_step = engine.DecodeStep(next);
    EXPECT_LT(MaxAbsDiff(got_step, want_step), 5e-3f)
        << "WS decode after incremental WG prefill, step " << step;
    next = RandomTokens(B, cfg.vocab_size, 15 + static_cast<uint64_t>(step));
  }
  EXPECT_EQ(engine.context_length(), L1 + L2 + 3);
}

TEST(EngineTest, TimingScalesWithContext) {
  // Decode steps at longer context charge more time (KV streaming).
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 4);
  SimMachine machine(Torus3D(2, 2, 1), TpuV4());
  EngineSpec spec;
  spec.attn = AttnSharding::kBatch;
  DistributedEngine engine(weights, &machine, spec);

  const int64_t B = 4;
  engine.Prefill(RandomTokens(B * 8, cfg.vocab_size, 5), B);
  machine.ResetCounters();
  engine.DecodeStep(RandomTokens(B, cfg.vocab_size, 6));
  double early = machine.MaxTime();

  for (int i = 0; i < 16; ++i)
    engine.DecodeStep(RandomTokens(B, cfg.vocab_size, 7 + static_cast<uint64_t>(i)));
  machine.ResetCounters();
  engine.DecodeStep(RandomTokens(B, cfg.vocab_size, 30));
  double late = machine.MaxTime();
  EXPECT_GT(late, early);
}

TEST(EngineTest, Int8ChargesHalfTheWeightTraffic) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 9);
  const int64_t B = 4, L = 4;
  auto tokens = RandomTokens(B * L, cfg.vocab_size, 10);

  auto hbm_bytes = [&](WeightFormat f) {
    SimMachine machine(Torus3D(2, 2, 1), TpuV4());
    EngineSpec spec;
    spec.weight_format = f;
    DistributedEngine engine(weights, &machine, spec);
    engine.Prefill(tokens, B);
    double total = 0;
    for (int c = 0; c < machine.num_chips(); ++c)
      total += machine.counters(c).hbm_bytes;
    return total;
  };
  double bf16 = hbm_bytes(WeightFormat::kBf16);
  double int8 = hbm_bytes(WeightFormat::kInt8);
  EXPECT_LT(int8, bf16);
  // Weight traffic halves; KV/attention traffic is unchanged, so the ratio
  // sits between 0.5 and 1.
  EXPECT_GT(int8 / bf16, 0.45);
  EXPECT_LT(int8 / bf16, 0.95);
}

TEST(EngineTest, BatchShardedKvCacheIsSmallerPerChip) {
  // The point of Fig 4c: per-chip KV bytes shrink by ~n_chips vs the
  // replicated baseline for multiquery attention.
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 11);
  const int64_t B = 8, L = 8;
  auto tokens = RandomTokens(B * L, cfg.vocab_size, 12);

  auto cache_bytes = [&](AttnSharding a) {
    SimMachine machine(Torus3D(2, 2, 2), TpuV4());
    EngineSpec spec;
    spec.attn = a;
    DistributedEngine engine(weights, &machine, spec);
    engine.Prefill(tokens, B);
    return engine.cache().TotalBytes(2.0);
  };
  double heads = cache_bytes(AttnSharding::kHeads);
  double batch = cache_bytes(AttnSharding::kBatch);
  EXPECT_NEAR(heads / batch, 8.0, 1e-6);  // replicated on 8 chips vs sharded
}

TEST(EngineTest, FusedCollectivesMatchUnfusedAndRunFaster) {
  // §3.5 Looped CollectiveEinsum as an engine option: identical logits,
  // strictly less (or equal) virtual time.
  ModelConfig cfg = TinyTestModel();
  cfg.num_layers = 3;
  ModelWeights weights = ModelWeights::Random(cfg, 91);
  const int64_t B = 8, L = 8;
  auto tokens = RandomTokens(B * L, cfg.vocab_size, 92);

  auto run = [&](bool fuse) {
    SimMachine machine(Torus3D(4, 2, 1), TpuV4());
    EngineSpec spec;
    spec.attn = AttnSharding::kBatch;
    spec.fuse_collectives = fuse;
    DistributedEngine engine(weights, &machine, spec);
    Tensor logits = engine.Prefill(tokens, B);
    return std::make_pair(std::move(logits), machine.MaxTime());
  };
  auto [unfused_logits, unfused_time] = run(false);
  auto [fused_logits, fused_time] = run(true);
  EXPECT_LT(MaxAbsDiff(fused_logits, unfused_logits), 1e-4f);
  EXPECT_LE(fused_time, unfused_time + 1e-15);
  EXPECT_LT(fused_time, unfused_time) << "pipelining should hide something";
}

TEST(EngineTest, FusedEngineStillMatchesReference) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 93);
  ReferenceModel reference(&weights);
  SimMachine machine(Torus3D(2, 2, 2), TpuV4());
  EngineSpec spec;
  spec.attn = AttnSharding::kBatch;
  spec.fuse_collectives = true;
  DistributedEngine engine(weights, &machine, spec);

  const int64_t B = 8, L = 4;
  auto tokens = RandomTokens(B * L, cfg.vocab_size, 94);
  KvCache cache;
  Tensor want = reference.Prefill(tokens, B, &cache);
  Tensor got = engine.Prefill(tokens, B);
  EXPECT_LT(MaxAbsDiff(got, want), 5e-3f);
  auto next = RandomTokens(B, cfg.vocab_size, 95);
  EXPECT_LT(MaxAbsDiff(engine.DecodeStep(next), reference.DecodeStep(next, &cache)),
            5e-3f);
}

// --- Decode fast path (engine/fastpath.h) ----------------------------------

struct FastPathCase {
  int x, y, z;
  FfnLayout prefill_ffn, decode_ffn;
  AttnSharding attn;
  int variant;
  bool fuse_collectives = false;
};

// Runs prefill + two decode steps and returns all three logit tensors.
std::vector<Tensor> RunFastPath(const ModelConfig& cfg,
                                const ModelWeights& weights,
                                const FastPathCase& p, FastPathConfig fp) {
  SimMachine machine(Torus3D(p.x, p.y, p.z), TpuV4());
  EngineSpec spec;
  spec.prefill_ffn = p.prefill_ffn;
  spec.decode_ffn = p.decode_ffn;
  spec.attn = p.attn;
  spec.fuse_collectives = p.fuse_collectives;
  spec.fastpath = fp;
  DistributedEngine engine(weights, &machine, spec);
  const int64_t B = 8, L = 4;
  std::vector<Tensor> out;
  out.push_back(engine.Prefill(RandomTokens(B * L, cfg.vocab_size, 70), B));
  out.push_back(engine.DecodeStep(RandomTokens(B, cfg.vocab_size, 71)));
  out.push_back(engine.DecodeStep(RandomTokens(B, cfg.vocab_size, 72)));
  return out;
}

class FastPathEquivalenceTest : public ::testing::TestWithParam<FastPathCase> {
};

TEST_P(FastPathEquivalenceTest, FusedFp32BitIdenticalToUnfused) {
  // The whole point of the fp32 fast path: operator fusion changes memory
  // traffic, never results. Prefill and decode logits must be bit-identical
  // with fusion on and off.
  const FastPathCase& p = GetParam();
  ModelConfig cfg = ConfigForVariant(p.variant);
  ModelWeights weights = ModelWeights::Random(cfg, 61);
  FastPathConfig fused;
  fused.fuse_ops = true;
  auto base = RunFastPath(cfg, weights, p, FastPathConfig{});
  auto got = RunFastPath(cfg, weights, p, fused);
  for (size_t i = 0; i < base.size(); ++i)
    EXPECT_EQ(MaxAbsDiff(got[i], base[i]), 0.0f)
        << "fused fp32 diverges at step " << i;
}

TEST_P(FastPathEquivalenceTest, FusedInt8BitIdenticalToUnfusedInt8) {
  // The int8 pipeline's fused quantizers reproduce the two-step
  // quantization exactly, so fusion must not move a single bit here either.
  const FastPathCase& p = GetParam();
  ModelConfig cfg = ConfigForVariant(p.variant);
  ModelWeights weights = ModelWeights::Random(cfg, 62);
  FastPathConfig int8_plain, int8_fused;
  int8_plain.precision = FastPathPrecision::kInt8;
  int8_fused.precision = FastPathPrecision::kInt8;
  int8_fused.fuse_ops = true;
  auto base = RunFastPath(cfg, weights, p, int8_plain);
  auto got = RunFastPath(cfg, weights, p, int8_fused);
  for (size_t i = 0; i < base.size(); ++i)
    EXPECT_EQ(MaxAbsDiff(got[i], base[i]), 0.0f)
        << "fused int8 diverges at step " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, FastPathEquivalenceTest,
    ::testing::Values(
        // Single chip: every local fusion fires (incl. serial residuals).
        FastPathCase{1, 1, 1, kWS1D, kWS1D, kHeads, 0},
        FastPathCase{1, 1, 1, kWS1D, kWS1D, kHeads, 1},
        // yz > 1: branch allreduce bars residual fusion, norm fusion stays.
        FastPathCase{1, 2, 2, kWS1D, kWS1D, kHeads, 0},
        FastPathCase{1, 2, 2, kWS1D, kWS1D, kHeads, 1},
        // x > 1: distributed-norm moments path feeds the fused A-transform.
        FastPathCase{2, 2, 1, kWS2D, kWS2D, kHeads, 1},
        FastPathCase{2, 2, 2, kWS2D, kWS2D, kBatch, 0},
        // GQA head-group slicing against the (possibly int8) shared cache.
        FastPathCase{2, 2, 2, kWS2D, kWS2D, kHeads, 2},
        // Fused collectives: ffn_in is a comm node, norm_into_ffn must not
        // fire (and must not be needed).
        FastPathCase{4, 2, 1, kWS2D, kWS2D, kBatch, 0, true},
        // Weight-gathered prefill and all-local WG fusion.
        FastPathCase{2, 2, 2, kWG, kWS2D, kBatch, 0},
        FastPathCase{2, 2, 2, kWG, kWG, kBatch, 1}),
    [](const ::testing::TestParamInfo<FastPathCase>& info) {
      const auto& p = info.param;
      std::string s = std::to_string(p.x) + "x" + std::to_string(p.y) + "x" +
                      std::to_string(p.z) + "_v" + std::to_string(p.variant);
      if (p.prefill_ffn == kWG) s += "_wg";
      if (p.attn == kBatch) s += "_batch";
      if (p.fuse_collectives) s += "_cefused";
      return s;
    });

TEST(FastPathEngineTest, Int8TracksReferenceAndGreedyTokensMatch) {
  // End-to-end int8 generation: logits stay close to the fp32 reference and
  // greedy argmax decoding picks the same tokens on the test model.
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 63);
  ReferenceModel reference(&weights);
  SimMachine machine(Torus3D(1, 2, 2), TpuV4());
  EngineSpec spec;
  spec.prefill_ffn = FfnLayout::kWS1D;
  spec.decode_ffn = FfnLayout::kWS1D;
  spec.fastpath.fuse_ops = true;
  spec.fastpath.precision = FastPathPrecision::kInt8;
  DistributedEngine engine(weights, &machine, spec);

  const int64_t B = 4, L = 4;
  auto tokens = RandomTokens(B * L, cfg.vocab_size, 64);
  KvCache ref_cache;
  Tensor want = reference.Prefill(tokens, B, &ref_cache);
  Tensor got = engine.Prefill(tokens, B);
  EXPECT_LT(MaxAbsDiff(got, want), 0.35f) << "int8 prefill drifts too far";

  auto argmax_last = [&](const Tensor& logits) {
    // logits [B, T, V]: greedy token per sequence from the last position.
    const int64_t T = logits.dim(1), V = logits.dim(2);
    std::vector<int32_t> out;
    for (int64_t b = 0; b < B; ++b) {
      int64_t best = 0;
      for (int64_t v = 1; v < V; ++v)
        if (logits[(b * T + T - 1) * V + v] > logits[(b * T + T - 1) * V + best])
          best = v;
      out.push_back(static_cast<int32_t>(best));
    }
    return out;
  };

  std::vector<int32_t> next = argmax_last(got);
  EXPECT_EQ(next, argmax_last(want)) << "prefill greedy tokens diverge";
  for (int step = 0; step < 4; ++step) {
    Tensor want_step = reference.DecodeStep(next, &ref_cache);
    Tensor got_step = engine.DecodeStep(next);
    EXPECT_LT(MaxAbsDiff(got_step, want_step), 0.35f) << "decode step " << step;
    auto want_tok = argmax_last(want_step);
    next = argmax_last(got_step);
    EXPECT_EQ(next, want_tok) << "greedy tokens diverge at step " << step;
  }
}

TEST(FastPathEngineTest, Int8ShrinksKvCacheAndDecodeTraffic) {
  // §3.6 / D.3: the int8 KV cache stores 1 byte per element plus one fp32
  // scale per (row, position, head) -- for d_head 8 that is 1.5 bytes vs the
  // modelled bf16 cache's 2 -- and the decode step streams fewer HBM bytes
  // (narrower weights AND narrower KV).
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 65);
  const int64_t B = 8, L = 8;
  auto tokens = RandomTokens(B * L, cfg.vocab_size, 66);

  auto run = [&](FastPathConfig fp) {
    SimMachine machine(Torus3D(2, 2, 1), TpuV4());
    EngineSpec spec;
    spec.attn = AttnSharding::kBatch;
    spec.fastpath = fp;
    DistributedEngine engine(weights, &machine, spec);
    engine.Prefill(tokens, B);
    machine.ResetCounters();
    engine.DecodeStep(RandomTokens(B, cfg.vocab_size, 67));
    double hbm = 0;
    for (int c = 0; c < machine.num_chips(); ++c)
      hbm += machine.counters(c).hbm_bytes;
    return std::make_pair(engine.cache().TotalBytes(2.0), hbm);
  };
  FastPathConfig int8;
  int8.precision = FastPathPrecision::kInt8;
  auto [base_cache, base_hbm] = run(FastPathConfig{});
  auto [int8_cache, int8_hbm] = run(int8);
  // d_head = 8: (8 + 4) / (8 * 2) = 0.75 of the bf16-modelled bytes.
  EXPECT_NEAR(int8_cache / base_cache, 0.75, 1e-9);
  EXPECT_LT(int8_hbm, base_hbm) << "int8 decode must stream fewer bytes";
}

TEST(FastPathEngineTest, FusionCountersRecordActivity) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 68);
  SimMachine machine(Torus3D(1, 1, 1), TpuV4());
  EngineSpec spec;
  spec.prefill_ffn = FfnLayout::kWS1D;
  spec.decode_ffn = FfnLayout::kWS1D;
  spec.fastpath.fuse_ops = true;
  DistributedEngine engine(weights, &machine, spec);
  EXPECT_TRUE(engine.decode_plan().AnyFusion());
  EXPECT_GT(engine.decode_plan().fused_ops_per_block, 0);

  obs::MetricsRegistry metrics;
  engine.set_metrics(&metrics);
  const int64_t B = 4;
  engine.Prefill(RandomTokens(B * 4, cfg.vocab_size, 69), B);
  engine.DecodeStep(RandomTokens(B, cfg.vocab_size, 70));
  EXPECT_GT(metrics.GetCounter("fastpath/fused_ops")->value(), 0);
  EXPECT_GT(metrics.GetCounter("fastpath/bytes_saved")->value(), 0);
}

// --- Paged KV cache bit-identity guard (engine/kvcache.h) -------------------

struct PagedCase {
  int x, y, z;
  AttnSharding attn;
  int variant;
  bool int8_;
};

class PagedKvIdentityTest : public ::testing::TestWithParam<PagedCase> {};

TEST_P(PagedKvIdentityTest, PagedDecodeBitIdenticalToContiguous) {
  // The paging contract: page size and SPMD slot count are storage and
  // scheduling choices -- logits and the virtual clock must not move by a
  // single bit. A huge page (1024) holds every sequence in one page, the
  // contiguous layout; page size 4 forces multi-page tables with partial
  // boundary pages (prefill length 5 is not a multiple of 4).
  const PagedCase& p = GetParam();
  ModelConfig cfg = ConfigForVariant(p.variant);
  ModelWeights weights = ModelWeights::Random(cfg, 80);
  const int64_t B = 8, L = 5;
  auto prompt = RandomTokens(B * L, cfg.vocab_size, 81);
  auto d1 = RandomTokens(B, cfg.vocab_size, 82);
  auto d2 = RandomTokens(B, cfg.vocab_size, 83);

  struct Run {
    std::vector<Tensor> logits;
    double time, hbm, net;
  };
  auto run = [&](KvCacheConfig kv, int spmd_slots) {
    SimMachine machine(Torus3D(p.x, p.y, p.z), TpuV4());
    EngineSpec spec;
    spec.attn = p.attn;
    if (p.int8_) spec.fastpath.precision = FastPathPrecision::kInt8;
    spec.kv = kv;
    DistributedEngine engine(weights, &machine, spec);
    engine.spmd().set_slots(spmd_slots);
    Run r;
    r.logits.push_back(engine.Prefill(prompt, B));
    r.logits.push_back(engine.DecodeStep(d1));
    r.logits.push_back(engine.DecodeStep(d2));
    r.time = machine.MaxTime();
    r.hbm = r.net = 0;
    for (int c = 0; c < machine.num_chips(); ++c) {
      r.hbm += machine.counters(c).hbm_bytes;
      r.net += machine.counters(c).network_bytes;
    }
    return r;
  };

  const Run base = run(KvCacheConfig{/*page_size=*/1024}, /*spmd_slots=*/1);
  ASSERT_GT(base.time, 0.0);
  for (int slots : {1, 8}) {
    for (KvCacheConfig kv :
         {KvCacheConfig{4}, KvCacheConfig{16}, KvCacheConfig{1024}}) {
      const Run got = run(kv, slots);
      for (size_t i = 0; i < base.logits.size(); ++i)
        EXPECT_EQ(MaxAbsDiff(got.logits[i], base.logits[i]), 0.0f)
            << "page_size " << kv.page_size << " slots " << slots
            << " step " << i;
      EXPECT_EQ(got.time, base.time) << "virtual clock moved";
      EXPECT_EQ(got.hbm, base.hbm) << "HBM bytes moved";
      EXPECT_EQ(got.net, base.net) << "network bytes moved";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, PagedKvIdentityTest,
    ::testing::Values(PagedCase{2, 2, 1, kHeads, 0, false},
                      PagedCase{2, 2, 1, kBatch, 0, false},
                      PagedCase{2, 2, 1, kHeads, 2, false},  // GQA head slices
                      PagedCase{2, 2, 1, kHeads, 0, true},
                      PagedCase{2, 2, 1, kBatch, 0, true},
                      PagedCase{1, 2, 2, kBatch, 2, true}),
    [](const ::testing::TestParamInfo<PagedCase>& info) {
      const auto& p = info.param;
      std::string s = std::to_string(p.x) + "x" + std::to_string(p.y) + "x" +
                      std::to_string(p.z);
      s += p.attn == kBatch ? "_batch" : "_heads";
      s += p.variant == 0 ? "_mqa" : (p.variant == 1 ? "_mha" : "_gqa");
      s += p.int8_ ? "_int8" : "_fp32";
      return s;
    });

TEST(EngineTest, ForkSlotSkipsRePrefillBitExactly) {
  // COW prefix sharing end to end: prefill a prompt into slot 0, fork its
  // committed prefix into slot 1, and decode both. The forked lane must
  // produce bit-identical logits to a lane that re-prefilled the same
  // prompt -- the pages really are the same bytes.
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 84);
  SimMachine machine(Torus3D(1, 2, 2), TpuV4());
  EngineSpec spec;
  spec.kv.page_size = 4;
  DistributedEngine engine(weights, &machine, spec);
  const int64_t L = 6;
  auto prompt = RandomTokens(L, cfg.vocab_size, 85);

  engine.Step({{0, prompt}}, StepPhase::kPrefill);
  engine.ForkSlot(/*parent=*/0, /*child=*/1, /*prefix_len=*/L);
  EXPECT_EQ(engine.slot_length(1), L);
  // The fork shares pages instead of re-storing them.
  EXPECT_GT(engine.cache().pages_shared(), 0);

  auto next = RandomTokens(2, cfg.vocab_size, 86);
  auto decode = [&](int32_t a, int32_t b) {
    return engine.Step({{0, {a}}, {1, {b}}}, StepPhase::kDecode);
  };
  Tensor both = decode(next[0], next[0]);
  // Identical context + identical token => identical logits on both lanes
  // (the divergent append COW-split the shared boundary page first).
  EXPECT_EQ(MaxAbsDiff(both.Slice(0, 0, 1), both.Slice(0, 1, 1)), 0.0f);
  EXPECT_GT(engine.cache().cow_splits(), 0);
  // Feed different tokens, then the same token again: the contexts have
  // diverged, so the lanes must no longer agree -- each slot really owns a
  // private copy of the boundary page.
  decode(next[0], next[1]);
  Tensor after = decode(next[0], next[0]);
  EXPECT_GT(MaxAbsDiff(after.Slice(0, 0, 1), after.Slice(0, 1, 1)), 0.0f);
}

// --- Ragged step (DistributedEngine::Step) ----------------------------------

uint64_t Fnv1a(uint64_t h, const Tensor& t) {
  for (int64_t i = 0; i < t.numel(); ++i) {
    uint32_t bits;
    const float f = t[i];
    std::memcpy(&bits, &f, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}
constexpr uint64_t kFnvBasis = 14695981039346656037ull;

struct StepCase {
  AttnSharding attn;
  bool int8_;
  // Golden values of the uniform frames below, recorded on the engine that
  // ran them as separate slot-mapped prefill and decode calls.
  uint64_t prefill_hash, decode_hash;
  double time, hbm, net;
};

std::string StepCaseName(const ::testing::TestParamInfo<StepCase>& info) {
  return std::string(info.param.attn == kBatch ? "batch" : "heads") +
         (info.param.int8_ ? "_int8" : "_fp32");
}

class StepTest : public ::testing::TestWithParam<StepCase> {
 protected:
  // The serving frame on 2x2x1: 8 slots, kBatch owner group slot / 2.
  static constexpr int64_t kSlots = 8;
  static int64_t GroupOf(int64_t slot) { return slot / 2; }

  StepTest()
      : cfg_(TinyTestModel()),
        weights_(ModelWeights::Random(cfg_, 90)),
        machine_(Torus3D(2, 2, 1), TpuV4()),
        engine_(weights_, &machine_, Spec(GetParam())) {}

  static EngineSpec Spec(const StepCase& p) {
    EngineSpec spec;
    spec.attn = p.attn;
    if (p.int8_) spec.fastpath.precision = FastPathPrecision::kInt8;
    return spec;
  }

  StepLane Lane(int64_t slot, std::vector<int32_t> tokens) const {
    return {slot, std::move(tokens),
            GetParam().attn == kBatch && slot >= 0 ? GroupOf(slot) : 0};
  }

  // A lone-chunk prefill of 5 + s tokens into every slot s; hashes each
  // pass's logits.
  uint64_t PrefillEverySlot(DistributedEngine& engine) const {
    uint64_t h = kFnvBasis;
    for (int64_t s = 0; s < kSlots; ++s)
      h = Fnv1a(h, engine.Step({Lane(s, RandomTokens(5 + s, cfg_.vocab_size,
                                                     91 + static_cast<uint64_t>(s)))},
                               StepPhase::kPrefill));
    return h;
  }

  // The fixed decode frame: one lane per slot, `idle` a scratch lane.
  std::vector<StepLane> DecodeFrame(uint64_t seed, int64_t idle) const {
    auto toks = RandomTokens(kSlots, cfg_.vocab_size, seed);
    std::vector<StepLane> frame;
    for (int64_t s = 0; s < kSlots; ++s) {
      if (s == idle) {
        StepLane pad = Lane(ShardedKvCache::kScratchSlot, {0});
        pad.group = GetParam().attn == kBatch ? GroupOf(s) : 0;
        frame.push_back(pad);
      } else {
        frame.push_back(Lane(s, {toks[static_cast<size_t>(s)]}));
      }
    }
    return frame;
  }

  double Hbm() const {
    double b = 0;
    for (int c = 0; c < machine_.num_chips(); ++c)
      b += machine_.counters(c).hbm_bytes;
    return b;
  }
  double Net() const {
    double b = 0;
    for (int c = 0; c < machine_.num_chips(); ++c)
      b += machine_.counters(c).network_bytes;
    return b;
  }

  ModelConfig cfg_;
  ModelWeights weights_;
  SimMachine machine_;
  DistributedEngine engine_;
};

TEST_P(StepTest, UniformFramesReproduceGoldenValues) {
  // Lone chunks (kBatch: one equally wide scratch lane per other owner
  // group) and uniform decode frames (slot 3 idle) reproduce the golden
  // logits, modeled time, HBM bytes and network bytes.
  const StepCase& p = GetParam();
  EXPECT_EQ(PrefillEverySlot(engine_), p.prefill_hash);
  uint64_t h = kFnvBasis;
  for (uint64_t step = 0; step < 2; ++step) {
    Tensor logits = engine_.Step(DecodeFrame(100 + step, /*idle=*/3),
                                 StepPhase::kDecode);
    ASSERT_EQ(logits.dim(0), kSlots);
    for (int64_t s = 0; s < kSlots; ++s)
      if (s != 3) h = Fnv1a(h, logits.Slice(0, s, 1));
  }
  EXPECT_EQ(h, p.decode_hash);
  EXPECT_EQ(machine_.MaxTime(), p.time);
  EXPECT_EQ(Hbm(), p.hbm);
  EXPECT_EQ(Net(), p.net);
}

TEST_P(StepTest, ChunkRidingADecodeFrameMatchesTwoPassesAndCostsLess) {
  // One pass carrying a 64-token prefill chunk (slot 8) and 8 decode lanes
  // gives every lane the logits it gets when the chunk and the decode step
  // run as two passes, leaves the same cache behind, and costs less
  // modeled time: one pass's collective latency instead of two.
  const StepCase& p = GetParam();
  DistributedEngine& split = engine_;
  SimMachine merged_machine(Torus3D(2, 2, 1), TpuV4());
  DistributedEngine merged(weights_, &merged_machine, Spec(p));
  PrefillEverySlot(split);
  PrefillEverySlot(merged);
  const auto chunk = RandomTokens(64, cfg_.vocab_size, 120);
  StepLane chunk_lane = Lane(8, chunk);
  chunk_lane.group = p.attn == kBatch ? 1 : 0;
  const std::vector<StepLane> frame = DecodeFrame(121, /*idle=*/-1);

  double t0 = machine_.MaxTime();
  Tensor chunk_logits = split.Step({chunk_lane}, StepPhase::kPrefill);
  Tensor decode_logits = split.Step(frame, StepPhase::kDecode);
  const double two_passes = machine_.MaxTime() - t0;

  std::vector<StepLane> both = frame;
  both.push_back(chunk_lane);
  t0 = merged_machine.MaxTime();
  Tensor logits = merged.Step(both, StepPhase::kDecode);
  const double one_pass = merged_machine.MaxTime() - t0;

  ASSERT_EQ(logits.dim(0), kSlots + 64);
  EXPECT_EQ(MaxAbsDiff(logits.Slice(0, 0, kSlots), decode_logits), 0.0f);
  EXPECT_EQ(MaxAbsDiff(logits.Slice(0, kSlots, 64), chunk_logits), 0.0f);
  EXPECT_LT(one_pass, two_passes);

  // Same cache afterwards: a decode frame over all nine slots agrees too.
  std::vector<StepLane> next = DecodeFrame(122, /*idle=*/-1);
  StepLane nine = Lane(8, {chunk[0]});
  nine.group = chunk_lane.group;
  next.push_back(nine);
  EXPECT_EQ(MaxAbsDiff(merged.Step(next, StepPhase::kDecode),
                       split.Step(next, StepPhase::kDecode)),
            0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, StepTest,
    ::testing::Values(
        StepCase{kHeads, false, 0x346c762f6e078624ull, 0xa8b380204eafbce7ull,
                 0.00011029658666666671, 545536, 197568},
        StepCase{kHeads, true, 0xfdad6e45f7027ee3ull, 0x2b0cd5ebf0b8839eull,
                 0.00011025644000000022, 352832, 197568},
        StepCase{kBatch, false, 0x346c762f6e078624ull, 0xa8b380204eafbce7ull,
                 0.00015077013333333336, 518080, 714240},
        StepCase{kBatch, true, 0xfdad6e45f7027ee3ull, 0x2b0cd5ebf0b8839eull,
                 0.00015073120000000032, 332240, 714240}),
    StepCaseName);

TEST(EngineTest, PagedKvBytesMatchAnalyticModel) {
  // The analytic memory model and the functional cache must agree EXACTLY on
  // page-granular KV bytes: B sequences of L tokens at page size 4 round to
  // whole pages per sequence, under both shardings.
  ModelConfig cfg = TinyTestModelMultihead();  // 8 kv heads: kHeads shards
  ModelWeights weights = ModelWeights::Random(cfg, 87);
  const int64_t B = 4, L = 6, PS = 4;  // 6 tokens -> 2 pages of 4
  auto tokens = RandomTokens(B * L, cfg.vocab_size, 88);

  for (AttnSharding attn : {AttnSharding::kHeads, AttnSharding::kBatch}) {
    SimMachine machine(Torus3D(1, 2, 1), TpuV4());
    EngineSpec spec;
    spec.attn = attn;
    spec.kv.page_size = PS;
    DistributedEngine engine(weights, &machine, spec);
    engine.Prefill(tokens, B);

    const double bpe = machine.bytes_per_element();
    const int n = machine.num_chips();
    const double analytic = n * KvCacheBytesPerChipPaged(
                                    cfg, attn, n, static_cast<double>(B),
                                    static_cast<double>(L), bpe, PS);
    EXPECT_EQ(engine.cache().TotalBytes(bpe), analytic)
        << (attn == AttnSharding::kBatch ? "kBatch" : "kHeads");
    // The rounding is real: the page-granular charge exceeds the
    // token-granular one (6 tokens occupy 8 positions of capacity).
    EXPECT_GT(analytic,
              n * KvCacheBytesPerChip(cfg, attn, n, static_cast<double>(B),
                                      static_cast<double>(L), bpe));
  }
}

TEST(EngineTest, DecodeWithoutPrefillIsRejected) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 13);
  SimMachine machine(Torus3D(1, 1, 1), TpuV4());
  DistributedEngine engine(weights, &machine, EngineSpec{});
  EXPECT_DEATH(engine.DecodeStep({0}), "decode requires a prefilled cache");
}

// The weight-stationary schedule runs one collective per mesh axis per
// program point (§3.4): the q/k/v and FFN input partial sums share one
// reduce-scatter(x), and the gathers back share one all-gather(x). A traced
// decode step shows exactly that set per layer, plus the logit head's
// all-gather(x) (activations and final-norm moments together) and
// all-gather(xyz).
struct ScheduleCase {
  AttnSharding attn;
  bool parallel;
  bool multihead;
  // Collective calls per layer, by trace name.
  std::map<std::string, int> per_layer;
};

class CollectiveScheduleTest : public ::testing::TestWithParam<ScheduleCase> {};

// Collective calls on chip 0 by name. On 2x2x1 every all-reduce runs over
// one 2-chip axis, where it is a single exchange: one event per call.
std::map<std::string, int> CollectiveCalls(const Tracer& tracer) {
  std::map<std::string, int> calls;
  for (const TraceEvent& e : tracer.events())
    if (e.chip == 0 && std::string(CategoryFor(e.name)) == "comm") ++calls[e.name];
  return calls;
}

TEST_P(CollectiveScheduleTest, DecodeStepRunsOneCollectivePerAxisPerPoint) {
  const ScheduleCase& p = GetParam();
  ModelConfig cfg = p.multihead ? TinyTestModelMultihead() : TinyTestModel();
  cfg.parallel_block = p.parallel;
  ModelWeights weights = ModelWeights::Random(cfg, 17);
  SimMachine machine(Torus3D(2, 2, 1), TpuV4());
  EngineSpec spec;
  spec.attn = p.attn;
  DistributedEngine engine(weights, &machine, spec);
  const int64_t B = 4;
  engine.Prefill(RandomTokens(B * 4, cfg.vocab_size, 18), B);

  Tracer tracer;
  machine.AttachTracer(&tracer);
  engine.DecodeStep(RandomTokens(B, cfg.vocab_size, 19));

  std::map<std::string, int> want;
  for (const auto& [name, n] : p.per_layer) want[name] = n * cfg.num_layers;
  ++want["all-gather(x)"];   // activations + final norm moments
  ++want["all-gather(xyz)"]; // vocab-sharded logits
  EXPECT_EQ(CollectiveCalls(tracer), want);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, CollectiveScheduleTest,
    ::testing::Values(
        ScheduleCase{kBatch, true, false,
                     {{"all-reduce(x)", 1}, {"reduce-scatter(x)", 1},
                      {"all-to-all(yz)", 2}, {"all-gather(x)", 1},
                      {"all-reduce(yz)", 1}}},
        ScheduleCase{kHeads, true, false,
                     {{"all-reduce(x)", 1}, {"reduce-scatter(x)", 1},
                      {"all-gather(x)", 1}, {"all-reduce(yz)", 1}}},
        // Serial: each half has its own norm, reduce-scatter, gather and
        // yz reduction.
        ScheduleCase{kBatch, false, false,
                     {{"all-reduce(x)", 2}, {"reduce-scatter(x)", 2},
                      {"all-to-all(yz)", 2}, {"all-gather(x)", 2},
                      {"all-reduce(yz)", 2}}},
        ScheduleCase{kHeads, false, false,
                     {{"all-reduce(x)", 2}, {"reduce-scatter(x)", 2},
                      {"all-gather(x)", 2}, {"all-reduce(yz)", 2}}},
        // Multihead K/V heads shard over yz: they reshard with q in one
        // all-to-all.
        ScheduleCase{kBatch, false, true,
                     {{"all-reduce(x)", 2}, {"reduce-scatter(x)", 2},
                      {"all-to-all(yz)", 2}, {"all-gather(x)", 2},
                      {"all-reduce(yz)", 2}}}),
    [](const ::testing::TestParamInfo<ScheduleCase>& info) {
      const ScheduleCase& p = info.param;
      return std::string(p.attn == kBatch ? "batch" : "heads") +
             (p.parallel ? "_parallel" : "_serial") +
             (p.multihead ? "_mha" : "_mqa");
    });

TEST(CollectiveScheduleTest, BatchShardedDecodeStepPaysFifteenHops) {
  // The paper's parallel layer on 2x2x1 with batch-sharded attention: per
  // layer 1 (moments all-reduce) + 1 (reduce-scatter) + 2 (all-to-alls) +
  // 1 (all-gather) + 1 (yz all-reduce) = 6 hop latencies; the logit head
  // adds 1 (all-gather(x) with the final norm's moments) + 2
  // (all-gather(xyz)). A ring collective runs one ring per torus axis and
  // pays sum_a (k_a - 1) hops; an all-reduce over one 2-chip axis is one
  // exchange, an all-to-all one hop. Every event must include its hops.
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 21);
  const Torus3D mesh(2, 2, 1);
  SimMachine machine(mesh, TpuV4());
  EngineSpec spec;
  spec.attn = AttnSharding::kBatch;
  DistributedEngine engine(weights, &machine, spec);
  const int64_t B = 4;
  engine.Prefill(RandomTokens(B * 4, cfg.vocab_size, 22), B);

  Tracer tracer;
  machine.AttachTracer(&tracer);
  engine.DecodeStep(RandomTokens(B, cfg.vocab_size, 23));
  const double hop = machine.comm_cost().hop_latency;
  double hops = 0;
  for (const TraceEvent& e : tracer.events()) {
    if (e.chip != 0 || std::string(CategoryFor(e.name)) != "comm") continue;
    int event_hops = 1;  // all-to-all, or an exchange over one 2-chip axis
    if (e.name.rfind("all-to-all", 0) != 0 &&
        e.name.rfind("all-reduce", 0) != 0) {
      event_hops = 0;
      for (char a : e.name.substr(e.name.find('(')))
        event_hops += a == 'x' ? mesh.x() - 1
                    : a == 'y' ? mesh.y() - 1
                    : a == 'z' ? mesh.z() - 1
                               : 0;
    }
    hops += event_hops;
    EXPECT_GE(e.duration, event_hops * hop) << e.name;
  }
  EXPECT_EQ(hops, 2 * 6 + 3);
}

}  // namespace
}  // namespace tsi
