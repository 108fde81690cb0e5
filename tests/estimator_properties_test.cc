// Property sweep over every enumerated partitioning: invariants the
// estimator must satisfy for any spec the planner can produce, plus
// engine-vs-analytic traffic accounting cross-checks.
#include <cmath>

#include <gtest/gtest.h>

#include "core/flops.h"
#include "core/planner.h"
#include "engine/engine.h"
#include "hw/chip.h"
#include "util/rng.h"

namespace tsi {
namespace {

class EstimatorPropertyTest : public ::testing::TestWithParam<int /*chips*/> {};

TEST_P(EstimatorPropertyTest, InvariantsHoldForEverySpec) {
  const int chips = GetParam();
  ModelConfig cfg = Palm62B();
  InferenceEstimator est(cfg, TpuV4());
  auto specs = EnumerateSpecs(cfg, chips, WeightFormat::kBf16);
  ASSERT_FALSE(specs.empty());
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec.ToString());
    auto d = est.DecodeStep(spec, 64, 2048);
    EXPECT_GT(d.seconds, 0);
    EXPECT_TRUE(std::isfinite(d.seconds));
    EXPECT_GT(d.mfu, 0);
    EXPECT_LE(d.mfu, 1.0);
    EXPECT_DOUBLE_EQ(d.cost_chipsec_per_token, chips * d.seconds / 64.0);

    // Monotone in context (KV streaming can only grow).
    auto d_long = est.DecodeStep(spec, 64, 8192);
    EXPECT_GE(d_long.seconds, d.seconds);

    // Monotone in input length for prefill.
    auto p_short = est.Prefill(spec, 8, 256);
    auto p_long = est.Prefill(spec, 8, 1024);
    EXPECT_GT(p_long.seconds, p_short.seconds);

    // Generate is bracketed by per-step bounds at the context endpoints.
    auto gen = est.Generate(spec, 64, 2048, 8);
    double lo = 8 * est.DecodeStep(spec, 64, 2048).seconds;
    double hi = 8 * est.DecodeStep(spec, 64, 2056).seconds;
    EXPECT_GE(gen.seconds, lo - 1e-12);
    EXPECT_LE(gen.seconds, hi + 1e-12);

    // int8 weights never slow anything down.
    PartitionSpec i8 = spec;
    i8.weight_format = WeightFormat::kInt8;
    EXPECT_LE(est.DecodeStep(i8, 64, 2048).seconds, d.seconds + 1e-12);

    // Breakdown components compose to the reported seconds.
    const auto& b = d.breakdown;
    double composed = b.compute + b.weight_memory + b.kv_memory + b.comm + b.overhead;
    EXPECT_NEAR(composed, d.seconds, 1e-12);  // additive default
  }
}

INSTANTIATE_TEST_SUITE_P(ChipCounts, EstimatorPropertyTest,
                         ::testing::Values(8, 16, 64),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "chips" + std::to_string(info.param);
                         });

// The functional engine's charged network egress must match the Appendix-A
// accounting exactly in a configuration where the collective set is known in
// closed form: WS-1D (x == 1), heads-sharded attention, parallel blocks.
// Per layer the only collective is the shared output all-reduce(yz) of the
// [B*T, E] activations. The logit head adds an all-gather of the
// vocab-sharded logits only when it is sharded: at the default hop latency
// the replication rule (core/replication.h) runs it whole on chip 0.
void ExpectWs1DHeadsEgress(double hop_latency, bool logits_gathered) {
  ModelConfig cfg = TinyTestModel();  // parallel blocks, 2 layers
  ModelWeights weights = ModelWeights::Random(cfg, 31);
  Torus3D topo(1, 2, 2);
  SimMachine machine(topo, TpuV4());
  machine.set_hop_latency(hop_latency);
  EngineSpec spec;
  spec.prefill_ffn = FfnLayout::kWS1D;
  spec.decode_ffn = FfnLayout::kWS1D;
  spec.attn = AttnSharding::kHeads;
  DistributedEngine engine(weights, &machine, spec);
  ASSERT_EQ(engine.replication().logit_head, !logits_gathered);

  const int64_t B = 4, T = 8;
  std::vector<int32_t> tokens(static_cast<size_t>(B * T), 3);
  engine.Prefill(tokens, B);

  const double n = topo.num_chips();
  const double bytes = static_cast<double>(B * T) * cfg.d_model *
                       machine.bytes_per_element();
  // all-reduce = 2 legs, each moving D*(n-1)/n per chip...
  double expect_per_chip = cfg.num_layers * 2.0 * bytes * (n - 1.0) / n;
  // ...plus the all-gather of the vocab-sharded logits.
  if (logits_gathered) {
    double logit_bytes = static_cast<double>(B * T) * cfg.vocab_size *
                         machine.bytes_per_element();
    expect_per_chip += logit_bytes * (n - 1.0) / n;
  }
  for (int c = 0; c < topo.num_chips(); ++c) {
    EXPECT_NEAR(machine.counters(c).network_bytes, expect_per_chip, 1e-6)
        << "chip " << c;
  }
}

TEST(EngineTrafficTest, Ws1DHeadsEgressMatchesClosedForm) {
  ExpectWs1DHeadsEgress(/*hop_latency=*/1e-6, /*logits_gathered=*/false);
}

TEST(EngineTrafficTest, Ws1DHeadsEgressMatchesClosedFormAtAlphaZero) {
  ExpectWs1DHeadsEgress(/*hop_latency=*/0, /*logits_gathered=*/true);
}

// Batch-sharded attention on WS-1D over one 2-chip yz axis (1x2x1): at the
// default hop latency replication sites 1-3 fire (core/replication.h), so
// no all-to-all runs and the logits are not gathered. With an FFN too wide
// for site 5 -- its other yz half, 1.5 MiB of bf16 per layer, streams in
// 1.3 us against the 1 us exchange -- the only collective per layer is the
// yz all-reduce, one exchange whose deposit is the FFN partial at every
// row plus this chip's own rows' wo terms for the other rank
// (SpmdContext::AllReduceOwnedRows): (N + N/2) * E per chip, where the
// all-reduce alone would send N * E.
TEST(EngineTrafficTest, Ws1DBatchEgressCarriesTheWoSideTerms) {
  ModelConfig cfg = TinyTestModel();  // parallel blocks, 2 layers
  cfg.d_ff = 16384;
  ModelWeights weights = ModelWeights::Random(cfg, 33);
  Torus3D topo(1, 2, 1);
  SimMachine machine(topo, TpuV4());
  EngineSpec spec;
  spec.prefill_ffn = FfnLayout::kWS1D;
  spec.decode_ffn = FfnLayout::kWS1D;
  spec.attn = AttnSharding::kBatch;
  DistributedEngine engine(weights, &machine, spec);
  ASSERT_EQ(engine.replication(), (Replication{true, true, true}));

  const int64_t B = 4, T = 8;  // two lanes per owner group
  std::vector<int32_t> tokens(static_cast<size_t>(B * T), 3);
  engine.Prefill(tokens, B);

  const double N = static_cast<double>(B * T);
  const double expect_per_chip = cfg.num_layers * (N + N / 2) *
                                 cfg.d_model * machine.bytes_per_element();
  for (int c = 0; c < topo.num_chips(); ++c) {
    EXPECT_EQ(machine.counters(c).network_bytes, expect_per_chip)
        << "chip " << c;
  }
}

// The same mesh with the tiny FFN: site 5 keeps it whole over yz too, each
// chip runs the whole layer over its own group's rows, and no byte moves.
TEST(EngineTrafficTest, Ws1DBatchDataParallelSendsNothing) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 33);
  Torus3D topo(1, 2, 1);
  SimMachine machine(topo, TpuV4());
  EngineSpec spec;
  spec.prefill_ffn = FfnLayout::kWS1D;
  spec.decode_ffn = FfnLayout::kWS1D;
  spec.attn = AttnSharding::kBatch;
  DistributedEngine engine(weights, &machine, spec);
  ASSERT_EQ(engine.replication(),
            (Replication{true, true, true, false, /*ffn=*/true}));

  const int64_t B = 4, T = 8;
  std::vector<int32_t> tokens(static_cast<size_t>(B * T), 3);
  engine.Prefill(tokens, B);
  engine.DecodeStep(std::vector<int32_t>(static_cast<size_t>(B), 5));
  for (int c = 0; c < topo.num_chips(); ++c)
    EXPECT_EQ(machine.counters(c).network_bytes, 0.0) << "chip " << c;
}

// Total matmul FLOPs charged across chips: sharded matmuls must sum back to
// the whole model's work (2 flops per param per token through the layers
// and the vocab-sharded logit head).
TEST(EngineTrafficTest, TotalFlopsMatchTwoNRule) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 32);
  Torus3D topo(2, 2, 1);
  SimMachine machine(topo, TpuV4());
  EngineSpec spec;
  spec.attn = AttnSharding::kHeads;
  DistributedEngine engine(weights, &machine, spec);

  const int64_t B = 4, T = 4;
  std::vector<int32_t> tokens(static_cast<size_t>(B * T), 1);
  engine.Prefill(tokens, B);

  const double BT = static_cast<double>(B * T);
  double layer_flops = 2.0 * BT * cfg.num_layers * cfg.ParamsPerLayer();
  double logit_flops = 2.0 * BT * cfg.d_model * cfg.vocab_size;
  // Attention dot products add a small context-dependent term on top.
  double total = machine.TotalFlops();
  EXPECT_GT(total, layer_flops + logit_flops - 1);
  EXPECT_LT(total, (layer_flops + logit_flops) * 1.15);
}

}  // namespace
}  // namespace tsi
