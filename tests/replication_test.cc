// The latency-aware replication rule (core/replication.h) on its own: where
// each of its five sites fires, where it never does, what it counts, and
// that the engine, the estimator and the src/plan lowering read the same
// answer from it.
#include "core/replication.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "core/block_cost.h"
#include "core/flops.h"
#include "core/inference_cost.h"
#include "engine/engine.h"
#include "engine/sharding.h"
#include "hw/chip.h"
#include "plan/lower.h"
#include "quant/int8.h"

namespace tsi {
namespace {

constexpr double kHop = 1e-6;  // SystemModel's and SimMachine's default

PartitionSpec Spec(const Torus3D& mesh, FfnLayout ffn, AttnSharding attn,
                   WeightFormat wf = WeightFormat::kBf16) {
  PartitionSpec s;
  s.mesh = mesh;
  s.ffn = ffn;
  s.attn = attn;
  s.weight_format = wf;
  return s;
}

TEST(ReplicationRuleTest, ServingBenchModelReplicatesBothSitesOn2x2x1) {
  // Streaming the other yz rank's 32 KiB of Wq takes 27 ns and the other
  // chips' 192 KiB of the head 160 ns, against one hop (the all-to-all(yz))
  // and two (the all-gather(xyz) of the logits).
  const ModelConfig cfg = PerfbenchModel();
  const Torus3D mesh(2, 2, 1);
  EXPECT_EQ(QkvReplicaParams(cfg, mesh) * 2.0, 32.0 * 1024);
  EXPECT_EQ(HeadReplicaParams(cfg, mesh) * 2.0, 192.0 * 1024);
  const Replication r = ChooseReplication(
      cfg, Spec(mesh, FfnLayout::kWS2D, AttnSharding::kBatch), TpuV4(), kHop);
  EXPECT_TRUE(r.qkv);
  EXPECT_TRUE(r.logit_head);
  // Site 1 needs batch-sharded attention; site 2 does not.
  const Replication heads = ChooseReplication(
      cfg, Spec(mesh, FfnLayout::kWS2D, AttnSharding::kHeads), TpuV4(), kHop);
  EXPECT_FALSE(heads.qkv);
  EXPECT_TRUE(heads.logit_head);
  // Weight-gathered layouts have neither collective to remove.
  EXPECT_EQ(ChooseReplication(
                cfg, Spec(mesh, FfnLayout::kWGXYZ, AttnSharding::kBatch),
                TpuV4(), kHop),
            Replication{});
  // Nothing to replicate over on one chip; no yz axis for site 1 on 2x1x1.
  EXPECT_EQ(ChooseReplication(cfg,
                              Spec(Torus3D(1, 1, 1), FfnLayout::kWS1D,
                                   AttnSharding::kBatch),
                              TpuV4(), kHop),
            Replication{});
  const Replication x_only = ChooseReplication(
      cfg, Spec(Torus3D(2, 1, 1), FfnLayout::kWS2D, AttnSharding::kBatch),
      TpuV4(), kHop);
  EXPECT_FALSE(x_only.qkv);
  EXPECT_TRUE(x_only.logit_head);
}

TEST(ReplicationRuleTest, ServingBenchModelReplicatesWoOnOneTwoChipYzAxis) {
  // Site 3: the other yz rank's 32 KiB of wo rows stream in 27 ns against
  // the all-to-all(yz)'s hop, wherever the yz all-reduce is one exchange --
  // one yz axis of extent 2, with any x (1x2x1 runs WS-1D, 2x1x2 puts the
  // axis on z).
  const ModelConfig cfg = PerfbenchModel();
  EXPECT_EQ(WoReplicaParams(cfg, Torus3D(2, 2, 1)) * 2.0, 32.0 * 1024);
  for (const Torus3D& mesh :
       {Torus3D(2, 2, 1), Torus3D(1, 2, 1), Torus3D(2, 1, 2)}) {
    const FfnLayout ws = mesh.x() == 1 ? FfnLayout::kWS1D : FfnLayout::kWS2D;
    for (WeightFormat wf : {WeightFormat::kBf16, WeightFormat::kInt8}) {
      const Replication r = ChooseReplication(
          cfg, Spec(mesh, ws, AttnSharding::kBatch, wf), TpuV4(), kHop);
      EXPECT_TRUE(r.wo) << mesh.ToString() << " " << ToString(wf);
      EXPECT_TRUE(r.qkv) << mesh.ToString() << " " << ToString(wf);
      // Head-sharded attention has no all-to-all to remove.
      EXPECT_FALSE(ChooseReplication(cfg,
                                     Spec(mesh, ws, AttnSharding::kHeads, wf),
                                     TpuV4(), kHop)
                       .wo)
          << mesh.ToString();
    }
  }
  // A yz all-reduce over 4 chips is more than one exchange: site 3 stays
  // off while site 1 still fires.
  for (const Torus3D& mesh : {Torus3D(2, 2, 2), Torus3D(1, 2, 2)}) {
    const FfnLayout ws = mesh.x() == 1 ? FfnLayout::kWS1D : FfnLayout::kWS2D;
    const Replication r = ChooseReplication(
        cfg, Spec(mesh, ws, AttnSharding::kBatch), TpuV4(), kHop);
    EXPECT_FALSE(r.wo) << mesh.ToString();
    EXPECT_TRUE(r.qkv) << mesh.ToString();
  }
  // Weight-gathered layouts never reshard attention.
  EXPECT_FALSE(ChooseReplication(
                   cfg, Spec(Torus3D(2, 2, 1), FfnLayout::kWGXYZ,
                             AttnSharding::kBatch),
                   TpuV4(), kHop)
                   .wo);
}

TEST(ReplicationRuleTest, ReplicatedWoBlocksAreTheOldShards) {
  // Each chip's wo block j is chip (x, j)'s shard in the paper's layout --
  // fp32 elements and, quantized, int8 bytes and column scales.
  const ModelConfig cfg = PerfbenchModel();
  const Torus3D mesh(2, 2, 1);
  const ModelWeights weights = ModelWeights::Random(cfg, 7);
  const Replication wo_only{false, false, true};
  const auto plain = ShardWeights(weights, mesh);
  const auto wide = ShardWeights(weights, mesh, wo_only);
  for (int c = 0; c < mesh.num_chips(); ++c) {
    const int xr = mesh.RankInGroup(c, kAxisX);
    const ShardedLayerWeights& lw = *wide[static_cast<size_t>(c)].layers[1];
    EXPECT_TRUE(plain[static_cast<size_t>(c)].layers[1]->wo_blocks.empty());
    ASSERT_EQ(lw.wo_blocks.size(), 2u);
    const QuantizedLayerShard q = QuantizeLayerShard(lw, cfg.gated_ffn);
    ASSERT_EQ(q.wo_blocks.size(), 2u);
    for (int j = 0; j < 2; ++j) {
      // The chip at x rank xr and yz rank j.
      int owner = -1;
      for (int o = 0; o < mesh.num_chips(); ++o)
        if (mesh.RankInGroup(o, kAxisX) == xr &&
            mesh.RankInGroup(o, kAxisY | kAxisZ) == j)
          owner = o;
      const ShardedLayerWeights& old =
          *plain[static_cast<size_t>(owner)].layers[1];
      const Tensor& block = lw.wo_blocks[static_cast<size_t>(j)];
      ASSERT_EQ(block.shape(), old.wo.shape());
      EXPECT_EQ(std::memcmp(block.data(), old.wo.data(),
                            static_cast<size_t>(block.numel()) * sizeof(float)),
                0)
          << "chip " << c << " block " << j;
      const QuantizedTensor old_q = QuantizeInt8(old.wo);
      const QuantizedTensor& new_q = q.wo_blocks[static_cast<size_t>(j)];
      EXPECT_EQ(new_q.shape, old_q.shape);
      EXPECT_EQ(new_q.values, old_q.values) << "chip " << c << " block " << j;
      EXPECT_EQ(new_q.scales, old_q.scales) << "chip " << c << " block " << j;
    }
    // The chip's own block is its shard.
    const int yzr = mesh.RankInGroup(c, kAxisY | kAxisZ);
    EXPECT_EQ(std::memcmp(lw.wo_blocks[static_cast<size_t>(yzr)].data(),
                          lw.wo.data(),
                          static_cast<size_t>(lw.wo.numel()) * sizeof(float)),
              0);
  }
}

TEST(ReplicationRuleTest, ServingBenchModelKeepsLayersWholeOverX) {
  // Site 4: the other x rank's 516 KiB of a layer (its shard with the
  // site-1 and site-3 replicas) stream in 0.44 us against the layer's three
  // x collectives (moments all-reduce, reduce-scatter, all-gather), 3 us of
  // hops on a 2-chip x axis.
  const ModelConfig cfg = PerfbenchModel();
  const Torus3D bench(2, 2, 1);
  const Replication yz_sites{true, true, true};
  EXPECT_EQ(XReplicaParams(cfg, bench, yz_sites) * 2.0, 516.0 * 1024);
  EXPECT_NEAR(TpuV4().MemoryTime(XReplicaParams(cfg, bench, yz_sites) * 2.0),
              0.44e-6, 0.01e-6);
  for (const Torus3D& mesh : {Torus3D(2, 2, 1), Torus3D(2, 2, 2),
                              Torus3D(2, 1, 2), Torus3D(4, 1, 1)}) {
    for (WeightFormat wf : {WeightFormat::kBf16, WeightFormat::kInt8}) {
      EXPECT_TRUE(ChooseReplication(
                      cfg, Spec(mesh, FfnLayout::kWS2D, AttnSharding::kBatch, wf),
                      TpuV4(), kHop)
                      .x)
          << mesh.ToString() << " " << ToString(wf);
      // Head-sharded attention keeps E sharded over x; weight-gathered
      // layouts move the weights anyway; hop latency 0 buys back nothing.
      EXPECT_FALSE(ChooseReplication(
                       cfg, Spec(mesh, FfnLayout::kWS2D, AttnSharding::kHeads, wf),
                       TpuV4(), kHop)
                       .x)
          << mesh.ToString();
      EXPECT_FALSE(ChooseReplication(
                       cfg, Spec(mesh, FfnLayout::kWGXYZ, AttnSharding::kBatch, wf),
                       TpuV4(), kHop)
                       .x)
          << mesh.ToString();
      EXPECT_FALSE(ChooseReplication(
                       cfg, Spec(mesh, FfnLayout::kWS2D, AttnSharding::kBatch, wf),
                       TpuV4(), /*hop_latency=*/0)
                       .x)
          << mesh.ToString();
    }
  }
  // No x axis, nothing to keep whole over it.
  EXPECT_FALSE(ChooseReplication(cfg,
                                 Spec(Torus3D(1, 2, 1), FfnLayout::kWS1D,
                                      AttnSharding::kBatch),
                                 TpuV4(), kHop)
                   .x);
}

TEST(ReplicationRuleTest, PalmLayersStayShardedOverX) {
  // A PaLM layer's other x blocks take hundreds of us to stream against a
  // few us of x hops: 540B on 4x4x4, 62B on its 16 chips.
  EXPECT_GT(TpuV4().MemoryTime(XReplicaParams(Palm540B(), Torus3D(4, 4, 4),
                                              Replication{}) *
                               2.0),
            300e-6);
  for (const auto& [cfg, mesh] :
       {std::pair{Palm540B(), Torus3D(4, 4, 4)},
        std::pair{Palm62B(), Torus3D(4, 2, 2)},
        std::pair{Palm62B(), Torus3D(2, 4, 2)}})
    for (WeightFormat wf : {WeightFormat::kBf16, WeightFormat::kInt8})
      EXPECT_FALSE(ChooseReplication(
                       cfg, Spec(mesh, FfnLayout::kWS2D, AttnSharding::kBatch, wf),
                       TpuV4(), kHop)
                       .x)
          << cfg.name << " on " << mesh.ToString() << " " << ToString(wf);
}

TEST(ReplicationRuleTest, XBlocksAreTheOldShards) {
  // Under site 4 chip (x, j)'s E block g is chip (g, j)'s shard in the
  // paper's layout -- fp32 elements and, quantized, int8 bytes and column
  // scales -- and its wo and wout hold every x rank's columns side by side.
  const ModelConfig cfg = PerfbenchModel();
  const Torus3D mesh(2, 2, 1);
  const ModelWeights weights = ModelWeights::Random(cfg, 9);
  const Replication yz_sites{true, true, true};
  Replication all = yz_sites;
  all.x = true;
  const auto plain = ShardWeights(weights, mesh, yz_sites);
  const auto wide = ShardWeights(weights, mesh, all);
  auto same = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
  };
  auto same_q = [](const QuantizedTensor& a, const QuantizedTensor& b) {
    return a.shape == b.shape && a.values == b.values && a.scales == b.scales;
  };
  const int64_t Eb = cfg.d_model / mesh.x();
  for (int c = 0; c < mesh.num_chips(); ++c) {
    const int yzr = mesh.RankInGroup(c, kAxisY | kAxisZ);
    const ShardedLayerWeights& lw = *wide[static_cast<size_t>(c)].layers[1];
    const QuantizedLayerShard q = QuantizeLayerShard(lw, cfg.gated_ffn);
    ASSERT_EQ(lw.in.size(), 2u);
    ASSERT_EQ(q.in.size(), 2u);
    for (int g = 0; g < mesh.x(); ++g) {
      int owner = -1;  // the chip at x rank g and yz rank yzr
      for (int o = 0; o < mesh.num_chips(); ++o)
        if (mesh.RankInGroup(o, kAxisX) == g &&
            mesh.RankInGroup(o, kAxisY | kAxisZ) == yzr)
          owner = o;
      const ShardedLayerWeights& old =
          *plain[static_cast<size_t>(owner)].layers[1];
      ASSERT_EQ(old.in.size(), 1u);
      const EBlockWeights& nb = lw.in[static_cast<size_t>(g)];
      const EBlockWeights& ob = old.in[0];
      for (auto m : {&EBlockWeights::ln_gain, &EBlockWeights::wq,
                     &EBlockWeights::wk, &EBlockWeights::win,
                     &EBlockWeights::win_gate})
        EXPECT_TRUE(same(nb.*m, ob.*m)) << "chip " << c << " block " << g;
      const QuantizedLayerShard old_q = QuantizeLayerShard(old, cfg.gated_ffn);
      for (auto m : {&QuantizedEBlock::wq, &QuantizedEBlock::wv,
                     &QuantizedEBlock::win_gate})
        EXPECT_TRUE(same_q(q.in[static_cast<size_t>(g)].*m, old_q.in[0].*m))
            << "chip " << c << " block " << g;
      // The d_model-output weights' x rank g columns.
      EXPECT_TRUE(same(lw.wout.Slice(1, g * Eb, Eb), old.wout));
      for (size_t j = 0; j < 2; ++j)
        EXPECT_TRUE(same(lw.wo_blocks[j].Slice(1, g * Eb, Eb),
                         old.wo_blocks[j]));
      const Tensor old_scales({Eb}, old_q.wout.scales);
      EXPECT_TRUE(same(Tensor({cfg.d_model}, q.wout.scales).Slice(0, g * Eb, Eb),
                       old_scales));
    }
  }
}

TEST(ReplicationRuleTest, ServingBenchModelKeepsFfnWholeOverYz) {
  // Site 5: the other yz rank's 768 KiB of FFN (win, win_gate columns and
  // wout rows at all E) stream in 0.66 us against the yz all-reduce it
  // removes, one exchange of a row per owner group plus site 3's side
  // terms: 1.01 us. Wherever sites 1 and 3 fire and no x collective runs
  // -- 1x2x1 has no x axis, 2x2x1 and 2x1x2 keep the layers whole over x.
  const ModelConfig cfg = PerfbenchModel();
  EXPECT_EQ(FfnYzReplicaParams(cfg, Torus3D(2, 2, 1)) * 2.0, 768.0 * 1024);
  EXPECT_NEAR(
      TpuV4().MemoryTime(FfnYzReplicaParams(cfg, Torus3D(2, 2, 1)) * 2.0),
      0.66e-6, 0.01e-6);
  for (const Torus3D& mesh :
       {Torus3D(2, 2, 1), Torus3D(1, 2, 1), Torus3D(2, 1, 2)}) {
    const FfnLayout ws = mesh.x() == 1 ? FfnLayout::kWS1D : FfnLayout::kWS2D;
    for (WeightFormat wf : {WeightFormat::kBf16, WeightFormat::kInt8}) {
      const Replication r = ChooseReplication(
          cfg, Spec(mesh, ws, AttnSharding::kBatch, wf), TpuV4(), kHop);
      EXPECT_TRUE(r.ffn) << mesh.ToString() << " " << ToString(wf);
      EXPECT_TRUE(r.qkv && r.wo && (mesh.x() == 1 || r.x)) << mesh.ToString();
      // Head-sharded attention keeps the yz all-reduce; weight-gathered
      // layouts move the weights anyway; hop latency 0 buys back nothing.
      EXPECT_FALSE(ChooseReplication(cfg,
                                     Spec(mesh, ws, AttnSharding::kHeads, wf),
                                     TpuV4(), kHop)
                       .ffn)
          << mesh.ToString();
      EXPECT_FALSE(ChooseReplication(
                       cfg, Spec(mesh, FfnLayout::kWGXYZ, AttnSharding::kBatch,
                                 wf),
                       TpuV4(), kHop)
                       .ffn)
          << mesh.ToString();
      EXPECT_FALSE(ChooseReplication(
                       cfg, Spec(mesh, ws, AttnSharding::kBatch, wf), TpuV4(),
                       /*hop_latency=*/0)
                       .ffn)
          << mesh.ToString();
    }
  }
  // A yz all-reduce over 4 chips: site 3 stays off, and so does site 5.
  for (const Torus3D& mesh : {Torus3D(2, 2, 2), Torus3D(1, 2, 2)}) {
    const FfnLayout ws = mesh.x() == 1 ? FfnLayout::kWS1D : FfnLayout::kWS2D;
    for (WeightFormat wf : {WeightFormat::kBf16, WeightFormat::kInt8})
      EXPECT_FALSE(ChooseReplication(
                       cfg, Spec(mesh, ws, AttnSharding::kBatch, wf), TpuV4(),
                       kHop)
                       .ffn)
          << mesh.ToString() << " " << ToString(wf);
  }
}

TEST(ReplicationRuleTest, PalmFfnStaysShardedOverYz) {
  // The other yz half of a PaLM FFN takes hundreds of us to stream (8B:
  // 3 * 4096 * 16384 / 2 params) against a few us of hops; on the meshes
  // below sites 1 and 3 do not fire either, and site 5 needs both.
  EXPECT_GT(TpuV4().MemoryTime(FfnYzReplicaParams(Palm8B(), Torus3D(1, 2, 1)) *
                               2.0),
            100e-6);
  for (const auto& [cfg, mesh] :
       {std::pair{Palm8B(), Torus3D(1, 2, 1)},
        std::pair{Palm8B(), Torus3D(2, 2, 1)},
        std::pair{Palm62B(), Torus3D(4, 2, 1)},
        std::pair{Palm540B(), Torus3D(4, 4, 4)}}) {
    const FfnLayout ws = mesh.x() == 1 ? FfnLayout::kWS1D : FfnLayout::kWS2D;
    for (WeightFormat wf : {WeightFormat::kBf16, WeightFormat::kInt8}) {
      const Replication r = ChooseReplication(
          cfg, Spec(mesh, ws, AttnSharding::kBatch, wf), TpuV4(), kHop);
      EXPECT_FALSE(r.ffn) << cfg.name << " on " << mesh.ToString() << " "
                          << ToString(wf);
      EXPECT_FALSE(r.wo) << cfg.name << " on " << mesh.ToString();
    }
  }
}

TEST(ReplicationRuleTest, FfnYzBlocksAreTheOldShards) {
  // Under site 5 chip (x, j)'s win/win_gate columns of yz block k and its
  // wout block k are chip (x, k)'s shards under sites 1-4 -- fp32 elements
  // and, quantized, int8 values and column scales -- and its wout at all F
  // is gone.
  const ModelConfig cfg = PerfbenchModel();
  const ModelWeights weights = ModelWeights::Random(cfg, 11);
  auto same = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
  };
  auto same_q = [](const QuantizedTensor& a, const QuantizedTensor& b) {
    return a.shape == b.shape && a.values == b.values && a.scales == b.scales;
  };
  // Columns [c0, c0 + n) of a quantized matrix: its values and scales.
  auto q_cols = [](const QuantizedTensor& q, int64_t c0, int64_t n) {
    QuantizedTensor out;
    out.shape = {q.rows(), n};
    for (int64_t r = 0; r < q.rows(); ++r)
      for (int64_t c = c0; c < c0 + n; ++c)
        out.values.push_back(q.values[static_cast<size_t>(r * q.cols() + c)]);
    out.scales.assign(q.scales.begin() + c0, q.scales.begin() + c0 + n);
    return out;
  };
  for (const Torus3D& mesh : {Torus3D(2, 2, 1), Torus3D(1, 2, 1)}) {
    SCOPED_TRACE(mesh.ToString());
    Replication sites{true, true, true, mesh.x() > 1};
    const auto plain = ShardWeights(weights, mesh, sites);
    sites.ffn = true;
    const auto wide = ShardWeights(weights, mesh, sites);
    const int64_t Fb = cfg.d_ff / 2;
    for (int c = 0; c < mesh.num_chips(); ++c) {
      const int xr = mesh.RankInGroup(c, kAxisX);
      const ShardedLayerWeights& lw = *wide[static_cast<size_t>(c)].layers[1];
      const QuantizedLayerShard q = QuantizeLayerShard(lw, cfg.gated_ffn);
      EXPECT_TRUE(lw.wout.empty());
      ASSERT_EQ(lw.wout_blocks.size(), 2u);
      ASSERT_EQ(q.wout_blocks.size(), 2u);
      for (int k = 0; k < 2; ++k) {
        int owner = -1;  // the chip at x rank xr and yz rank k
        for (int o = 0; o < mesh.num_chips(); ++o)
          if (mesh.RankInGroup(o, kAxisX) == xr &&
              mesh.RankInGroup(o, kAxisY | kAxisZ) == k)
            owner = o;
        const ShardedLayerWeights& old =
            *plain[static_cast<size_t>(owner)].layers[1];
        const QuantizedLayerShard old_q =
            QuantizeLayerShard(old, cfg.gated_ffn);
        const auto ku = static_cast<size_t>(k);
        EXPECT_TRUE(same(lw.wout_blocks[ku], old.wout)) << "chip " << c;
        EXPECT_TRUE(same_q(q.wout_blocks[ku], old_q.wout)) << "chip " << c;
        ASSERT_EQ(lw.in.size(), old.in.size());
        for (size_t g = 0; g < lw.in.size(); ++g) {
          for (auto m : {&EBlockWeights::win, &EBlockWeights::win_gate})
            EXPECT_TRUE(same((lw.in[g].*m).Slice(1, k * Fb, Fb), old.in[g].*m))
                << "chip " << c << " block " << g;
          for (auto m : {&QuantizedEBlock::win, &QuantizedEBlock::win_gate})
            EXPECT_TRUE(same_q(q_cols(q.in[g].*m, k * Fb, Fb), old_q.in[g].*m))
                << "chip " << c << " block " << g;
        }
      }
    }
  }
}

TEST(ReplicationRuleTest, DataParallelMeshWithAVocabShardedHead) {
  // A 64Ki vocabulary keeps the head vocab-sharded (the other chips' 3 MiB
  // of it stream in 2.6 us against 2 us of logit all-gather hops) while the
  // FFN stays whole over yz: each chip gathers the normed rows of every
  // group over xyz for its vocab shard, and the logits gather as in the
  // paper's layout -- bit-identical to hop latency 0.
  ModelConfig cfg = TinyTestModel();
  cfg.vocab_size = 65536;
  const ModelWeights weights = ModelWeights::Random(cfg, 13);
  const Torus3D mesh(2, 2, 1);
  EngineSpec spec;
  spec.attn = AttnSharding::kBatch;
  SimMachine paper_machine(mesh, TpuV4()), machine(mesh, TpuV4());
  paper_machine.set_hop_latency(0);
  DistributedEngine paper(weights, &paper_machine, spec);
  DistributedEngine engine(weights, &machine, spec);
  ASSERT_EQ(engine.replication(), (Replication{true, false, true, true, true}));
  auto bits = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
  };
  // Groups of different sizes: one holds a 5-token chunk.
  std::vector<StepLane> lanes;
  for (int64_t s = 0; s < 4; ++s)
    lanes.push_back({s, std::vector<int32_t>(s == 2 ? 5 : 1,
                                             static_cast<int32_t>(7 * s + 1)),
                     s});
  EXPECT_TRUE(bits(engine.Step(lanes, StepPhase::kPrefill),
                   paper.Step(lanes, StepPhase::kPrefill)));
  for (StepLane& l : lanes) l.tokens = {static_cast<int32_t>(l.slot + 3)};
  EXPECT_TRUE(bits(engine.Step(lanes, StepPhase::kDecode),
                   paper.Step(lanes, StepPhase::kDecode)));
}

TEST(ReplicationRuleTest, Palm540BOn4x4x4ReplicatesNeitherSite) {
  // The extra Wq stream is ~88 us per layer, the extra head ~7.7 ms.
  const ModelConfig cfg = Palm540B();
  const Torus3D mesh(4, 4, 4);
  EXPECT_NEAR(TpuV4().MemoryTime(QkvReplicaParams(cfg, mesh) * 2.0), 88e-6,
              1e-6);
  EXPECT_NEAR(TpuV4().MemoryTime(HeadReplicaParams(cfg, mesh) * 2.0), 7.7e-3,
              0.1e-3);
  for (AttnSharding attn : {AttnSharding::kBatch, AttnSharding::kHeads})
    for (WeightFormat wf : {WeightFormat::kBf16, WeightFormat::kInt8})
      EXPECT_EQ(ChooseReplication(cfg, Spec(mesh, FfnLayout::kWS2D, attn, wf),
                                  TpuV4(), kHop),
                Replication{})
          << ToString(attn) << " " << ToString(wf);
}

TEST(ReplicationRuleTest, ZeroHopLatencyNeverReplicates) {
  for (const ModelConfig& cfg :
       {TinyTestModel(), TinyTestModelMultihead(), TinyTestModelGrouped(),
        PerfbenchModel(), Palm8B(), Palm540B()})
    for (const Torus3D& mesh :
         {Torus3D(2, 2, 1), Torus3D(1, 2, 1), Torus3D(2, 1, 2),
          Torus3D(1, 2, 2), Torus3D(2, 2, 2), Torus3D(4, 4, 4)})
      for (AttnSharding attn : {AttnSharding::kBatch, AttnSharding::kHeads})
        for (WeightFormat wf : {WeightFormat::kBf16, WeightFormat::kInt8})
          EXPECT_EQ(
              ChooseReplication(cfg, Spec(mesh, FfnLayout::kWS2D, attn, wf),
                                TpuV4(), /*hop_latency=*/0),
              Replication{})
              << cfg.name << " on " << mesh.ToString();
}

TEST(ReplicationRuleTest, MultiheadCountsKeyAndValueColumns) {
  // E/X rows of the columns the other yz ranks hold: q's alone under
  // multiquery (its K/V head is replicated already), q's, k's and v's
  // under multihead.
  const Torus3D mesh(2, 2, 1);
  const ModelConfig mqa = TinyTestModel();
  const ModelConfig mha = TinyTestModelMultihead();
  const double rows = 32.0 / 2, half = 0.5;
  EXPECT_EQ(QkvReplicaParams(mqa, mesh), rows * (8 * 8) * half);
  EXPECT_EQ(QkvReplicaParams(mha, mesh), rows * (8 * 8 + 2 * 8 * 8) * half);
  // The engine's shards hold exactly those extra columns.
  const Replication both{true, true};
  const auto plain = ShardWeights(ModelWeights::Random(mha, 3), mesh);
  const auto wide = ShardWeights(ModelWeights::Random(mha, 3), mesh, both);
  auto qkv_params = [](const ShardedLayerWeights& l) {
    return static_cast<double>(l.in[0].wq.numel() + l.in[0].wk.numel() +
                               l.in[0].wv.numel());
  };
  EXPECT_EQ(qkv_params(*wide[0].layers[0]) - qkv_params(*plain[0].layers[0]),
            QkvReplicaParams(mha, mesh));
  // The replicated head is unsharded; the paper's is a vocab shard.
  EXPECT_TRUE(wide[0].head_shard.empty());
  EXPECT_EQ(plain[0].head_shard.dim(1), mha.vocab_size / 4);
  EXPECT_EQ(wide[0].head.shape(), (Shape{mha.d_model, mha.vocab_size}));
}

class ReplicationAgreementTest : public ::testing::TestWithParam<Torus3D> {};

TEST_P(ReplicationAgreementTest, EngineEstimatorAndLoweringAgree) {
  // Both block styles: a serial block's yz all-reduces are two.
  for (bool parallel : {true, false}) {
    SCOPED_TRACE(parallel ? "parallel" : "serial");
    ModelConfig cfg = PerfbenchModel();
    cfg.parallel_block = parallel;
    const ModelWeights weights = ModelWeights::Random(cfg, 5);
    const Torus3D mesh = GetParam();
    const FfnLayout ws = mesh.x() == 1 ? FfnLayout::kWS1D : FfnLayout::kWS2D;
    const PartitionSpec spec = Spec(mesh, ws, AttnSharding::kBatch);
    for (double hop : {kHop, 0.0}) {
      SCOPED_TRACE(hop);
      const Replication rule = ChooseReplication(cfg, spec, TpuV4(), hop);
      // Every site fires at 1 us on these meshes (site 4 where X > 1), none
      // at 0.
      EXPECT_EQ(rule, hop > 0 ? (Replication{true, true, true, mesh.x() > 1,
                                             /*ffn=*/true})
                              : Replication{});

      // Engine: the decision it sharded and scheduled by.
      SimMachine machine(mesh, TpuV4());
      machine.set_hop_latency(hop);
      EngineSpec espec;
      espec.attn = AttnSharding::kBatch;
      espec.prefill_ffn = ws;
      espec.decode_ffn = ws;
      DistributedEngine engine(weights, &machine, espec);
      EXPECT_EQ(engine.replication(), rule);

      // Lowering: one all-to-all fewer per replicated site, priced to the
      // double like LayerCost.
      SystemModel sys;
      sys.hop_latency = hop;
      const plan::LoweredPlan lowered =
          plan::LowerSpec(cfg, spec, TpuV4(), hop);
      EXPECT_EQ(lowered.block.graph.assignment.qkv_replicated, rule.qkv);
      EXPECT_EQ(lowered.block.graph.assignment.wo_replicated, rule.wo);
      EXPECT_EQ(lowered.block.graph.assignment.x_replicated, rule.x);
      EXPECT_EQ(lowered.block.graph.assignment.ffn_replicated, rule.ffn);
      EXPECT_EQ(lowered.a2a_count, 2 - int{rule.qkv} - int{rule.wo});
      // No x collective once the layer is whole over x, and no yz all-reduce
      // once the FFN is whole over yz: no collective at all.
      EXPECT_EQ(lowered.f_collectives > 0, mesh.x() > 1 && !rule.x);
      EXPECT_EQ(lowered.e_allreduces > 0, !rule.ffn);
      const CostBreakdown hand =
          LayerCost(cfg, spec, TpuV4(), sys, Phase::kDecode, 8, 1, 200);
      const CostBreakdown derived =
          plan::PriceBlock(lowered, TpuV4(), sys, Phase::kDecode, 8, 1, 200);
      EXPECT_EQ(hand.compute, derived.compute);
      EXPECT_EQ(hand.weight_memory, derived.weight_memory);
      EXPECT_EQ(hand.kv_memory, derived.kv_memory);
      EXPECT_EQ(hand.comm, derived.comm);
      EXPECT_EQ(hand.overhead, derived.overhead);

      // Estimator: the head priced whole when site 2 fires, and the replicas
      // counted in the weights per chip.
      InferenceEstimator est(cfg, TpuV4(), sys);
      const PhaseResult step = est.DecodeStep(spec, 8, 200);
      const double head_params =
          static_cast<double>(cfg.d_model) * cfg.vocab_size;
      const int head_chips = rule.logit_head ? 1 : mesh.num_chips();
      EXPECT_DOUBLE_EQ(step.breakdown.weight_memory,
                       hand.weight_memory * cfg.num_layers +
                           head_params * 2.0 / head_chips /
                               (TpuV4().hbm_bw * sys.hbm_frac));
      const double L = static_cast<double>(cfg.num_layers);
      double weights_per_chip =
          static_cast<double>(MatmulParams(cfg)) * 2.0 / mesh.num_chips();
      if (rule.qkv) weights_per_chip += L * QkvReplicaParams(cfg, mesh) * 2.0;
      if (rule.wo) weights_per_chip += L * WoReplicaParams(cfg, mesh) * 2.0;
      if (rule.x) weights_per_chip += L * XReplicaParams(cfg, mesh, rule) * 2.0;
      if (rule.ffn)
        weights_per_chip += L * FfnYzReplicaParams(cfg, mesh) * 2.0;
      if (rule.logit_head)
        weights_per_chip += HeadReplicaParams(cfg, mesh) * 2.0;
      EXPECT_EQ(step.weight_bytes_per_chip, weights_per_chip);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OneTwoChipYzAxis, ReplicationAgreementTest,
    ::testing::Values(Torus3D(2, 2, 1), Torus3D(1, 2, 1), Torus3D(2, 1, 2)),
    [](const ::testing::TestParamInfo<Torus3D>& info) {
      return std::to_string(info.param.x()) + "x" +
             std::to_string(info.param.y()) + "x" +
             std::to_string(info.param.z());
    });

}  // namespace
}  // namespace tsi
