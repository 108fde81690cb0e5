// Distributed-engine correctness: every supported combination of mesh shape,
// FFN layout, attention sharding, block style and weight format must produce
// the same logits as the single-chip reference model, for prefill and for
// autoregressive decode on the shared KV cache.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "core/attn_cost.h"
#include "hw/chip.h"
#include "model/reference.h"
#include "sim/trace.h"
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
  for (const std::string& part :
       {clean(ToString(p.prefill_ffn)), clean(ToString(p.decode_ffn)),
        clean(ToString(p.attn))}) {
    s += '_';
    s += part;
  }
  s += p.variant == 0 ? "_mqa" : (p.variant == 1 ? "_mha" : "_gqa");
  s += '_';
  s += clean(ToString(p.format));
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

// Prefill on 4x2x1 with and without §3.5 Looped CollectiveEinsum, at hop
// latency `hop`: the logits and the virtual time.
std::pair<std::pair<Tensor, double>, std::pair<Tensor, double>>
FusedVsUnfusedPrefill(double hop) {
  ModelConfig cfg = TinyTestModel();
  cfg.num_layers = 3;
  ModelWeights weights = ModelWeights::Random(cfg, 91);
  const int64_t B = 8, L = 8;
  auto tokens = RandomTokens(B * L, cfg.vocab_size, 92);

  auto run = [&](bool fuse) {
    SimMachine machine(Torus3D(4, 2, 1), TpuV4());
    machine.set_hop_latency(hop);
    EngineSpec spec;
    spec.attn = AttnSharding::kBatch;
    spec.fuse_collectives = fuse;
    DistributedEngine engine(weights, &machine, spec);
    Tensor logits = engine.Prefill(tokens, B);
    return std::make_pair(std::move(logits), machine.MaxTime());
  };
  return {run(false), run(true)};
}

TEST(EngineTest, FusedCollectivesMatchUnfusedAndRunFaster) {
  // §3.5 Looped CollectiveEinsum as an engine option: identical logits,
  // strictly less virtual time. At hop latency 0 the paper's layout runs
  // the reduce-scatter(x) the fused matmuls pipeline under.
  auto [unfused, fused] = FusedVsUnfusedPrefill(0.0);
  EXPECT_LT(MaxAbsDiff(fused.first, unfused.first), 1e-4f);
  EXPECT_LT(fused.second, unfused.second) << "pipelining should hide something";
}

TEST(EngineTest, FusedCollectivesChangeNothingWhenLayersAreWholeOverX) {
  // At 1 us the layers stay whole over x (core/replication.h, site 4):
  // no reduce-scatter(x) is left to pipeline, so the option changes
  // neither the logits nor the time.
  auto [unfused, fused] = FusedVsUnfusedPrefill(1e-6);
  EXPECT_EQ(MaxAbsDiff(fused.first, unfused.first), 0.0f);
  EXPECT_EQ(fused.second, unfused.second);
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

// --- Int8 precision (docs/fastpath.md) -------------------------------------

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
                      PagedCase{2, 2, 1, kHeads, 2, false},
                      PagedCase{2, 2, 1, kHeads, 2, true},
                      // GQA head slices: 2 kv heads over yz = 4 are
                      // replicated, and each chip reads its kv group
                      PagedCase{1, 2, 2, kHeads, 2, false},
                      PagedCase{1, 2, 2, kHeads, 2, true},
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

// `lanes` with every owner group of the n-chip mesh topped up by one
// scratch lane to the largest group's row count: the padded kBatch frame
// that ragged frames are compared against, and the one StepTest's golden
// values were recorded on.
std::vector<StepLane> PaddedFrame(std::vector<StepLane> lanes, int n) {
  std::vector<int64_t> rows(static_cast<size_t>(n), 0);
  for (const StepLane& l : lanes)
    rows[static_cast<size_t>(l.group)] += static_cast<int64_t>(l.tokens.size());
  const int64_t R = *std::max_element(rows.begin(), rows.end());
  for (int g = 0; g < n; ++g) {
    const int64_t pad = R - rows[static_cast<size_t>(g)];
    if (pad > 0)
      lanes.push_back({ShardedKvCache::kScratchSlot,
                       std::vector<int32_t>(static_cast<size_t>(pad), 0), g});
  }
  return lanes;
}

struct StepCase {
  AttnSharding attn;
  bool int8_;
  // Golden values of the uniform frames below, recorded on the engine that
  // ran them as separate slot-mapped prefill and decode calls.
  uint64_t prefill_hash, decode_hash;
  double time, hbm, net;
  // ConfigForVariant's model and the mesh. GQA's 2 kv heads on 1x2x2 are
  // replicated over yz = 4 under kHeads, so every lane, scratch lanes
  // included, reads its chip's kv head slice.
  int variant = 0;
  int x = 2, y = 2, z = 1;
};

std::string StepCaseName(const ::testing::TestParamInfo<StepCase>& info) {
  const StepCase& p = info.param;
  std::string s = std::string(p.attn == kBatch ? "batch" : "heads") +
                  (p.int8_ ? "_int8" : "_fp32");
  if (p.variant == 2) {
    s += "_gqa_";
    s += std::to_string(p.x) + "x" + std::to_string(p.y) + "x" +
         std::to_string(p.z);
  }
  return s;
}

class StepTest : public ::testing::TestWithParam<StepCase> {
 protected:
  // The serving frame: 8 slots, kBatch (on 2x2x1) owner group slot / 2.
  static constexpr int64_t kSlots = 8;
  static int64_t GroupOf(int64_t slot) { return slot / 2; }

  StepTest()
      : cfg_(ConfigForVariant(GetParam().variant)),
        weights_(ModelWeights::Random(cfg_, 90)),
        machine_(Mesh(GetParam()), TpuV4()),
        engine_(weights_, &machine_, Spec(GetParam())) {}

  static Torus3D Mesh(const StepCase& p) { return Torus3D(p.x, p.y, p.z); }

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

  // A lone-chunk prefill of 5 + s tokens into every slot s (kBatch: with
  // one equally wide scratch lane per other owner group, the frame the
  // golden values were recorded on); hashes each chunk's logits.
  uint64_t PrefillEverySlot(DistributedEngine& engine) const {
    uint64_t h = kFnvBasis;
    for (int64_t s = 0; s < kSlots; ++s) {
      std::vector<StepLane> lanes = {
          Lane(s, RandomTokens(5 + s, cfg_.vocab_size,
                               91 + static_cast<uint64_t>(s)))};
      if (GetParam().attn == kBatch) lanes = PaddedFrame(lanes, 4);
      h = Fnv1a(h, engine.Step(lanes, StepPhase::kPrefill).Slice(0, 0, 5 + s));
    }
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
  // Lone chunks (kBatch: explicit, equally wide scratch lanes for the other
  // owner groups) and uniform decode frames (slot 3 idle) reproduce the
  // golden logits, modeled time, HBM bytes and network bytes.
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
  SimMachine merged_machine(Mesh(p), TpuV4());
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

// The replication rule (core/replication.h) fires at every site on this
// mesh: chip 0 runs the whole logit head (no all-gather(xyz)), and under
// kBatch the q/k/v columns, wo's rows and the FFN are whole on every yz
// chip and every layer weight is whole over x: each chip streams the whole
// layer, runs only its own group's rows, and the whole logit head for
// them, and no collective runs (no network byte).
INSTANTIATE_TEST_SUITE_P(
    Layouts, StepTest,
    ::testing::Values(
        StepCase{kHeads, false, 0x346c762f6e078624ull, 0xa8b380204eafbce7ull,
                 9.0292320000000058e-05, 545536, 165312},
        StepCase{kHeads, true, 0xfdad6e45f7027ee3ull, 0x2b0cd5ebf0b8839eull,
                 9.0252173333333515e-05, 352832, 165312},
        StepCase{kBatch, false, 0x346c762f6e078624ull, 0xa8b380204eafbce7ull,
                 3.9893333333333304e-07, 1910720, 0},
        StepCase{kBatch, true, 0xfdad6e45f7027ee3ull, 0x2b0cd5ebf0b8839eull,
                 2.5440000000000048e-07, 1218000, 0},
        StepCase{kHeads, false, 0xe1f2007dcb8d848cull, 0x23f1a8a06d2afbc0ull,
                 8.0224586666666781e-05, 668416, 64512, 2, 1, 2, 2},
        StepCase{kHeads, true, 0x85cb9a8a7a4674f3ull, 0xa94685fec5e85a4cull,
                 8.0171640000000169e-05, 414272, 64512, 2, 1, 2, 2}),
    StepCaseName);

// Ragged kBatch frames: each owner group runs exactly its lanes' rows. The
// logits and the cache left behind are bit-identical to the padded frame the
// engine used to build (PaddedFrame), while the modeled time and the network
// bytes are strictly lower.
struct RaggedCase {
  int x, y, z;
  FfnLayout prefill_ffn;
  bool int8_;
  bool fused;
};

class RaggedFrameTest : public ::testing::TestWithParam<RaggedCase> {
 protected:
  RaggedFrameTest()
      : cfg_(TinyTestModel()), weights_(ModelWeights::Random(cfg_, 95)) {}

  EngineSpec Spec() const {
    const RaggedCase& p = GetParam();
    EngineSpec spec;
    spec.attn = AttnSharding::kBatch;
    spec.prefill_ffn = p.prefill_ffn;
    spec.fuse_collectives = p.fused;
    if (p.int8_) spec.fastpath.precision = FastPathPrecision::kInt8;
    return spec;
  }
  Torus3D Mesh() const {
    const RaggedCase& p = GetParam();
    return Torus3D(p.x, p.y, p.z);
  }
  static double Net(const SimMachine& m) {
    double b = 0;
    for (int c = 0; c < m.num_chips(); ++c) b += m.counters(c).network_bytes;
    return b;
  }

  // Runs `lanes` ragged on one engine and padded on the other; the real
  // lanes' logits must agree bit for bit and the ragged pass must move
  // strictly fewer network bytes. Weight-stationary passes are strictly
  // faster too: every chip's matmuls run over the frame's rows. A
  // weight-gathered pass costs exactly the padded time: each chip computes
  // only its own group's rows, so the busiest chip -- the largest group,
  // which padding never grew -- does the same work either way, and the
  // logits all-gather is charged as its busiest member. A weight-stationary
  // pass on a purely data-parallel mesh (replication site 5, 2x2x1) also
  // computes only each chip's own rows and moves no byte at all; in these
  // frames the largest group's chip stays the busiest when padded, so it
  // too costs exactly the padded time.
  void ExpectCheaperAndIdentical(const std::vector<StepLane>& lanes,
                                 StepPhase phase, const std::string& what) {
    int64_t real_rows = 0;
    for (const StepLane& l : lanes)
      real_rows += static_cast<int64_t>(l.tokens.size());
    const double t0 = ragged_machine_->MaxTime(), n0 = Net(*ragged_machine_);
    const double p0 = padded_machine_->MaxTime(), q0 = Net(*padded_machine_);
    Tensor ragged = ragged_->Step(lanes, phase);
    Tensor padded =
        padded_->Step(PaddedFrame(lanes, ragged_machine_->num_chips()), phase);
    ASSERT_EQ(ragged.dim(0), real_rows) << what;
    EXPECT_TRUE(BitIdentical(ragged, padded.Slice(0, 0, real_rows))) << what;
    const FfnLayout layout = phase == StepPhase::kPrefill
                                 ? GetParam().prefill_ffn
                                 : FfnLayout::kWS2D;
    const double ragged_time = ragged_machine_->MaxTime() - t0;
    const double padded_time = padded_machine_->MaxTime() - p0;
    const bool data_parallel =
        layout != FfnLayout::kWGXYZ && ragged_->replication().ffn;
    if (layout == FfnLayout::kWGXYZ || data_parallel) {
      EXPECT_EQ(ragged_time, padded_time) << what;
    } else {
      EXPECT_LT(ragged_time, padded_time) << what;
    }
    if (data_parallel) {
      EXPECT_EQ(Net(*ragged_machine_) - n0, 0.0) << what;
      EXPECT_EQ(Net(*padded_machine_) - q0, 0.0) << what;
    } else {
      EXPECT_LT(Net(*ragged_machine_) - n0, Net(*padded_machine_) - q0)
          << what;
    }
  }

  void SetUp() override {
    ragged_machine_ = std::make_unique<SimMachine>(Mesh(), TpuV4());
    padded_machine_ = std::make_unique<SimMachine>(Mesh(), TpuV4());
    ragged_ = std::make_unique<DistributedEngine>(
        weights_, ragged_machine_.get(), Spec());
    padded_ = std::make_unique<DistributedEngine>(
        weights_, padded_machine_.get(), Spec());
  }

  static bool BitIdentical(const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
  }

  ModelConfig cfg_;
  ModelWeights weights_;
  std::unique_ptr<SimMachine> ragged_machine_, padded_machine_;
  std::unique_ptr<DistributedEngine> ragged_, padded_;
};

TEST_P(RaggedFrameTest, RaggedLoneChunkMatchesPaddedFrame) {
  const int n = ragged_machine_->num_chips();
  // Slot s lives on owner group s % n.
  auto lane = [&](int64_t slot, int64_t width, uint64_t seed) {
    return StepLane{slot, RandomTokens(width, cfg_.vocab_size, seed),
                    slot % n};
  };
  // A lone 16-token chunk: every other group is one scratch row.
  ExpectCheaperAndIdentical({lane(1, 16, 300)}, StepPhase::kPrefill,
                            "lone chunk");
  // Chunks in every group but two (groups 1 and n - 1 hold no lane).
  std::vector<StepLane> most;
  for (int64_t g = 0; g < n; ++g)
    if (g != 1 && g != n - 1)
      most.push_back(lane(g, 3 + g, 310 + static_cast<uint64_t>(g)));
  ExpectCheaperAndIdentical(most, StepPhase::kPrefill, "two empty groups");
  // A decode frame carrying a chunk: one lane per touched slot, slot 1's
  // lane a 12-token chunk.
  std::vector<StepLane> mixed;
  for (int64_t g = 0; g < n; ++g)
    if (g != 1 && g != n - 1)
      mixed.push_back(lane(g, 1, 330 + static_cast<uint64_t>(g)));
  mixed.push_back(lane(1, 12, 340));
  ExpectCheaperAndIdentical(mixed, StepPhase::kDecode,
                            "chunk in a decode frame");

  // The caches agree: a uniform decode frame over every slot, identical on
  // both engines, gives bit-identical logits.
  std::vector<StepLane> frame;
  for (int64_t s = 0; s < n; ++s) {
    if (s == n - 1) {
      frame.push_back({ShardedKvCache::kScratchSlot, {0}, s});
    } else {
      frame.push_back(lane(s, 1, 350 + static_cast<uint64_t>(s)));
    }
  }
  for (int64_t s = 0; s < n; ++s)
    EXPECT_EQ(ragged_->slot_length(s), padded_->slot_length(s)) << "slot " << s;
  EXPECT_TRUE(BitIdentical(ragged_->Step(frame, StepPhase::kDecode),
                           padded_->Step(frame, StepPhase::kDecode)));
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, RaggedFrameTest,
    ::testing::Values(RaggedCase{2, 2, 1, FfnLayout::kWS2D, false, false},
                      RaggedCase{2, 2, 1, FfnLayout::kWS2D, false, true},
                      RaggedCase{2, 2, 1, FfnLayout::kWS2D, true, false},
                      RaggedCase{2, 2, 1, FfnLayout::kWGXYZ, false, false},
                      RaggedCase{2, 2, 1, FfnLayout::kWGXYZ, true, false},
                      RaggedCase{2, 2, 2, FfnLayout::kWS2D, false, false},
                      RaggedCase{2, 2, 2, FfnLayout::kWS2D, false, true},
                      RaggedCase{2, 2, 2, FfnLayout::kWS2D, true, false},
                      RaggedCase{2, 2, 2, FfnLayout::kWGXYZ, false, false},
                      RaggedCase{2, 2, 2, FfnLayout::kWGXYZ, true, false}),
    [](const ::testing::TestParamInfo<RaggedCase>& info) {
      const RaggedCase& p = info.param;
      return std::to_string(p.x) + "x" + std::to_string(p.y) + "x" +
             std::to_string(p.z) +
             (p.prefill_ffn == FfnLayout::kWGXYZ ? "_wgxyz" : "_ws2d") +
             (p.int8_ ? "_int8" : "_fp32") + (p.fused ? "_fused" : "");
    });

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
// all-gather(x) (activations and final-norm moments together) and, when
// the head is vocab-sharded, all-gather(xyz).
//
// At the default hop latency the replication rule (core/replication.h)
// fires at every site on this mesh: kBatch keeps q/k/v, wo and the FFN
// whole on every yz chip and every layer weight whole over x, so every
// chip holds the whole layer and its own group's rows and runs no
// collective at all, the whole logit head included (the mesh runs purely
// data parallel); kHeads keeps the logit head whole on chip 0 (no
// all-gather(xyz)). At hop latency 0 nothing replicates and the paper's
// schedule runs.
struct ScheduleCase {
  AttnSharding attn;
  bool parallel;
  bool multihead;
  double hop_latency;
  // Collective calls per layer, by trace name.
  std::map<std::string, int> per_layer;
  // Collective calls after the last layer.
  std::map<std::string, int> head;
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
  machine.set_hop_latency(p.hop_latency);
  EngineSpec spec;
  spec.attn = p.attn;
  DistributedEngine engine(weights, &machine, spec);
  const int64_t B = 4;
  engine.Prefill(RandomTokens(B * 4, cfg.vocab_size, 18), B);

  Tracer tracer;
  machine.AttachTracer(&tracer);
  engine.DecodeStep(RandomTokens(B, cfg.vocab_size, 19));

  std::map<std::string, int> want = p.head;
  for (const auto& [name, n] : p.per_layer) want[name] += n * cfg.num_layers;
  EXPECT_EQ(CollectiveCalls(tracer), want);
}

// The logit head: the all-gather(x) of activations + final-norm moments,
// then whole on chip 0 (replicated) or vocab-sharded and gathered; with
// every chip holding its own rows, no collective at all.
const std::map<std::string, int> kReplicatedHead = {{"all-gather(x)", 1}};
const std::map<std::string, int> kDataParallelHead = {};
const std::map<std::string, int> kShardedHead = {{"all-gather(x)", 1},
                                                 {"all-gather(xyz)", 1}};

INSTANTIATE_TEST_SUITE_P(
    Layouts, CollectiveScheduleTest,
    ::testing::Values(
        ScheduleCase{kBatch, true, false, 1e-6, {}, kDataParallelHead},
        ScheduleCase{kHeads, true, false, 1e-6,
                     {{"all-reduce(x)", 1}, {"reduce-scatter(x)", 1},
                      {"all-gather(x)", 1}, {"all-reduce(yz)", 1}},
                     kReplicatedHead},
        // Serial: each half has its own norm, reduce-scatter, gather and
        // yz reduction (under kBatch none is left).
        ScheduleCase{kBatch, false, false, 1e-6, {}, kDataParallelHead},
        ScheduleCase{kHeads, false, false, 1e-6,
                     {{"all-reduce(x)", 2}, {"reduce-scatter(x)", 2},
                      {"all-gather(x)", 2}, {"all-reduce(yz)", 2}},
                     kReplicatedHead},
        // Multihead: the replicated K/V columns are projected for the
        // chip's own rows with q's.
        ScheduleCase{kBatch, false, true, 1e-6, {}, kDataParallelHead},
        // Hop latency 0: the paper's layouts. q reshards heads -> rows on
        // the way in, and the logits are vocab-sharded and gathered.
        ScheduleCase{kBatch, true, false, 0,
                     {{"all-reduce(x)", 1}, {"reduce-scatter(x)", 1},
                      {"all-to-all(yz)", 2}, {"all-gather(x)", 1},
                      {"all-reduce(yz)", 1}},
                     kShardedHead},
        ScheduleCase{kHeads, true, false, 0,
                     {{"all-reduce(x)", 1}, {"reduce-scatter(x)", 1},
                      {"all-gather(x)", 1}, {"all-reduce(yz)", 1}},
                     kShardedHead},
        // Multihead K/V heads shard over yz: they reshard with q in one
        // all-to-all.
        ScheduleCase{kBatch, false, true, 0,
                     {{"all-reduce(x)", 2}, {"reduce-scatter(x)", 2},
                      {"all-to-all(yz)", 2}, {"all-gather(x)", 2},
                      {"all-reduce(yz)", 2}},
                     kShardedHead}),
    [](const ::testing::TestParamInfo<ScheduleCase>& info) {
      const ScheduleCase& p = info.param;
      return std::string(p.attn == kBatch ? "batch" : "heads") +
             (p.parallel ? "_parallel" : "_serial") +
             (p.multihead ? "_mha" : "_mqa") +
             (p.hop_latency == 0 ? "_alpha0" : "");
    });

// Hop latencies of one traced kBatch decode step of the paper's parallel
// layer on 2x2x1 at `hop_latency`. A ring collective runs one ring per
// torus axis and pays sum_a (k_a - 1) hops; an all-reduce over one 2-chip
// axis is one exchange, an all-to-all one hop. Every event must include its
// hops. `comm_events`, if given, receives the comm events on every chip.
double BatchShardedDecodeStepHops(double hop_latency,
                                  int* comm_events = nullptr) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 21);
  const Torus3D mesh(2, 2, 1);
  SimMachine machine(mesh, TpuV4());
  machine.set_hop_latency(hop_latency);
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
  if (comm_events != nullptr) *comm_events = 0;
  for (const TraceEvent& e : tracer.events()) {
    const bool comm = std::string(CategoryFor(e.name)) == "comm";
    if (comm && comm_events != nullptr) ++*comm_events;
    if (e.chip != 0 || !comm) continue;
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
  return hops;
}

TEST(CollectiveScheduleTest, BatchShardedDecodeStepPaysNoHops) {
  // Every replica (core/replication.h): each chip holds the whole layer
  // and its own group's rows, sums the yz ranks' wo and FFN partials
  // itself, and runs the final norm and the whole logit head for its rows.
  // No collective event is traced on any chip.
  int comm_events = -1;
  EXPECT_EQ(BatchShardedDecodeStepHops(1e-6, &comm_events), 0);
  EXPECT_EQ(comm_events, 0);
}

TEST(CollectiveScheduleTest, BatchShardedDecodeStepRunsFifteenHopsAtAlphaZero) {
  // The paper's layouts: per layer 6 (both all-to-alls), and the logit head
  // adds 1 (all-gather(x)) + 2 (all-gather(xyz) of the vocab-sharded
  // logits).
  EXPECT_EQ(BatchShardedDecodeStepHops(0), 2 * 6 + 3);
}

}  // namespace
}  // namespace tsi
