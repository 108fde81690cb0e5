// Weight sharding (E_x F_yz storage, engine/sharding.h): shards must
// reassemble exactly to the full matrices on every mesh, with the right
// per-chip shapes, for every attention variant, and the whole logit head
// sits only on the chips that apply it.
#include "engine/sharding.h"

#include <gtest/gtest.h>

#include <set>

#include "engine/engine.h"
#include "engine/kvcache.h"
#include "hw/chip.h"
#include "util/rng.h"

namespace tsi {
namespace {

struct ShardCase {
  int x, y, z;
  int variant;  // 0 mqa, 1 mha, 2 gqa
};

std::string CaseName(const ::testing::TestParamInfo<ShardCase>& info) {
  const auto& p = info.param;
  std::string v = p.variant == 0 ? "mqa" : (p.variant == 1 ? "mha" : "gqa");
  return std::to_string(p.x) + "x" + std::to_string(p.y) + "x" +
         std::to_string(p.z) + "_" + v;
}

ModelConfig ConfigFor(int variant) {
  switch (variant) {
    case 1: return TinyTestModelMultihead();
    case 2: return TinyTestModelGrouped();
    default: return TinyTestModel();
  }
}

class ShardingTest : public ::testing::TestWithParam<ShardCase> {};

// Reassembles a matrix stored rows-over-x / cols-over-yz.
Tensor ReassembleRowsXColsYZ(const std::vector<ChipWeights>& chips,
                             const Torus3D& mesh, int64_t layer,
                             Tensor EBlockWeights::*member,
                             bool cols_replicated) {
  const int X = mesh.x(), YZ = mesh.y() * mesh.z();
  std::vector<Tensor> row_blocks;
  for (int xr = 0; xr < X; ++xr) {
    std::vector<Tensor> col_blocks;
    for (int yzr = 0; yzr < (cols_replicated ? 1 : YZ); ++yzr) {
      // Find the chip with these ranks.
      for (int c = 0; c < mesh.num_chips(); ++c) {
        if (mesh.RankInGroup(c, kAxisX) == xr &&
            mesh.RankInGroup(c, kAxisY | kAxisZ) == yzr) {
          col_blocks.push_back(
              chips[static_cast<size_t>(c)].layers[static_cast<size_t>(layer)]->in[0].*member);
          break;
        }
      }
    }
    row_blocks.push_back(col_blocks.size() == 1 ? col_blocks[0]
                                                : Tensor::Concat(1, col_blocks));
  }
  return row_blocks.size() == 1 ? row_blocks[0] : Tensor::Concat(0, row_blocks);
}

TEST_P(ShardingTest, ShardsReassembleToFullWeights) {
  const auto& p = GetParam();
  ModelConfig cfg = ConfigFor(p.variant);
  ModelWeights w = ModelWeights::Random(cfg, 11);
  Torus3D mesh(p.x, p.y, p.z);
  auto chips = ShardWeights(w, mesh);
  ASSERT_EQ(static_cast<int>(chips.size()), mesh.num_chips());

  const int YZ = mesh.y() * mesh.z();
  const bool kv_replicated = cfg.n_kv_heads() % YZ != 0;
  for (int64_t l = 0; l < cfg.num_layers; ++l) {
    EXPECT_EQ(MaxAbsDiff(ReassembleRowsXColsYZ(chips, mesh, l,
                                               &EBlockWeights::wq, false),
                         w.layers[static_cast<size_t>(l)].wq),
              0.0f);
    EXPECT_EQ(MaxAbsDiff(ReassembleRowsXColsYZ(chips, mesh, l,
                                               &EBlockWeights::wk, kv_replicated),
                         w.layers[static_cast<size_t>(l)].wk),
              0.0f);
    EXPECT_EQ(MaxAbsDiff(ReassembleRowsXColsYZ(chips, mesh, l,
                                               &EBlockWeights::win, false),
                         w.layers[static_cast<size_t>(l)].win),
              0.0f);
  }
}

TEST_P(ShardingTest, PerChipShapes) {
  const auto& p = GetParam();
  ModelConfig cfg = ConfigFor(p.variant);
  ModelWeights w = ModelWeights::Random(cfg, 12);
  Torus3D mesh(p.x, p.y, p.z);
  auto chips = ShardWeights(w, mesh);

  const int64_t X = mesh.x(), YZ = mesh.y() * mesh.z();
  const int64_t E = cfg.d_model, F = cfg.d_ff, H = cfg.n_heads, dh = cfg.d_head;
  const int64_t KV = cfg.n_kv_heads();
  const bool kv_replicated = KV % YZ != 0;
  for (const auto& chip : chips) {
    const auto& lw = *chip.layers[0];
    ASSERT_EQ(lw.in.size(), 1u);
    EXPECT_EQ(lw.in[0].win.shape(), (Shape{E / X, F / YZ}));
    EXPECT_EQ(lw.wout.shape(), (Shape{F / YZ, E / X}));
    EXPECT_EQ(lw.in[0].wq.shape(), (Shape{E / X, H / YZ * dh}));
    EXPECT_EQ(lw.wo.shape(), (Shape{H / YZ * dh, E / X}));
    int64_t kv_cols = kv_replicated ? KV * dh : KV / YZ * dh;
    EXPECT_EQ(lw.in[0].wk.shape(), (Shape{E / X, kv_cols}));
    EXPECT_EQ(lw.in[0].ln_gain.shape(), (Shape{E / X}));
  }
}

TEST_P(ShardingTest, TotalShardBytesAccounting) {
  // Non-replicated matrices: per-chip bytes sum to exactly the full matrix;
  // replicated K/V: yz copies.
  const auto& p = GetParam();
  ModelConfig cfg = ConfigFor(p.variant);
  ModelWeights w = ModelWeights::Random(cfg, 13);
  Torus3D mesh(p.x, p.y, p.z);
  auto chips = ShardWeights(w, mesh);
  int64_t total_win = 0, total_wk = 0;
  for (const auto& chip : chips) {
    total_win += chip.layers[0]->in[0].win.numel();
    total_wk += chip.layers[0]->in[0].wk.numel();
  }
  EXPECT_EQ(total_win, w.layers[0].win.numel());
  const int64_t YZ = mesh.y() * mesh.z();
  const bool kv_replicated = cfg.n_kv_heads() % YZ != 0;
  EXPECT_EQ(total_wk, w.layers[0].wk.numel() * (kv_replicated ? YZ : 1));
}

INSTANTIATE_TEST_SUITE_P(Meshes, ShardingTest,
                         ::testing::Values(ShardCase{1, 1, 1, 0},
                                           ShardCase{2, 2, 1, 0},
                                           ShardCase{2, 2, 2, 0},
                                           ShardCase{4, 2, 1, 1},
                                           ShardCase{2, 2, 2, 1},
                                           ShardCase{1, 2, 2, 2},
                                           ShardCase{2, 1, 2, 2},
                                           ShardCase{2, 2, 2, 2}),
                         CaseName);

// The whole logit head sits only on the chips that apply it (engine.cc's
// Step): none when the weight-stationary head is vocab-sharded, chip 0 when
// it runs whole, each x slice's yz-rank-0 chip under site 4, and every chip
// under site 5 or when a phase runs weight-gathered.
TEST(LogitHeadPlacementTest, WholeHeadOnlyOnChipsThatApplyIt) {
  const ModelConfig cfg = TinyTestModel();
  const ModelWeights w = ModelWeights::Random(cfg, 14);
  const Torus3D mesh(2, 2, 1);
  ASSERT_EQ(cfg.vocab_size % mesh.num_chips(), 0);
  auto holders = [&](const std::vector<ChipWeights>& chips) {
    std::vector<int> h;
    for (size_t c = 0; c < chips.size(); ++c) {
      if (chips[c].head.empty()) continue;
      EXPECT_EQ(chips[c].head.shape(), (Shape{cfg.d_model, cfg.vocab_size}));
      EXPECT_EQ(MaxAbsDiff(chips[c].head, w.embedding.Transpose2D()), 0.0f);
      h.push_back(static_cast<int>(c));
    }
    return h;
  };
  std::vector<int> yz_rank0;
  for (int c = 0; c < mesh.num_chips(); ++c)
    if (mesh.RankInGroup(c, kAxisY | kAxisZ) == 0) yz_rank0.push_back(c);
  ASSERT_EQ(yz_rank0.size(), 2u);

  Replication whole_head;
  whole_head.logit_head = true;
  Replication site4 = whole_head;
  site4.x = true;
  Replication sharded_site4;
  sharded_site4.x = true;
  Replication site5 = site4;
  site5.qkv = site5.wo = site5.ffn = true;
  EXPECT_EQ(holders(ShardWeights(w, mesh)), std::vector<int>{});
  EXPECT_EQ(holders(ShardWeights(w, mesh, sharded_site4)), std::vector<int>{});
  EXPECT_EQ(holders(ShardWeights(w, mesh, whole_head)), std::vector<int>{0});
  EXPECT_EQ(holders(ShardWeights(w, mesh, site4)), yz_rank0);
  // Site 5: every chip runs the head for its own group's rows.
  EXPECT_EQ(holders(ShardWeights(w, mesh, site5)),
            (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(holders(ShardWeights(w, mesh, {}, /*weight_gathered=*/true)),
            (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(holders(ShardWeights(w, mesh, site4, /*weight_gathered=*/true)),
            (std::vector<int>{0, 1, 2, 3}));
  // One chip: the head cannot shard, so chip 0 runs it whole.
  EXPECT_EQ(holders(ShardWeights(w, Torus3D(1, 1, 1))), std::vector<int>{0});
  // The vocab shards stay wherever the head is sharded.
  for (const ChipWeights& cw : ShardWeights(w, mesh, {}, true))
    EXPECT_EQ(cw.head_shard.dim(1), cfg.vocab_size / mesh.num_chips());
}

TEST(ShardSharingTest, ChipsWithEqualShardsShareOneCopy) {
  // The paper's layout cuts a distinct shard per chip; the layer whole over
  // x (site 4) makes the x ranks' shards equal, the FFN whole over yz too
  // (site 5) every chip's. Equal shards are one read-only copy, and so is
  // their int8 form when quantized.
  const ModelConfig cfg = TinyTestModel();
  const ModelWeights w = ModelWeights::Random(cfg, 8);
  const Torus3D mesh(2, 2, 1);
  auto distinct = [&](const Replication& r) {
    std::set<const ShardedLayerWeights*> shards;
    std::set<const QuantizedLayerShard*> quantized;
    for (const ChipWeights& cw :
         ShardWeights(w, mesh, r, /*weight_gathered=*/false,
                      /*quantize=*/true)) {
      EXPECT_EQ(cw.layers.size(), static_cast<size_t>(cfg.num_layers));
      EXPECT_EQ(cw.qlayers.size(), cw.layers.size());
      for (const auto& lw : cw.layers) shards.insert(lw.get());
      for (const auto& q : cw.qlayers) quantized.insert(q.get());
    }
    EXPECT_EQ(quantized.size(), shards.size());
    return static_cast<int>(shards.size()) / cfg.num_layers;
  };
  Replication site4{true, true, true, true};
  Replication site5 = site4;
  site5.ffn = true;
  EXPECT_EQ(distinct({}), 4);
  EXPECT_EQ(distinct(site4), 2);
  EXPECT_EQ(distinct(site5), 1);
  // Site 5 without sites 1 and 3 is not a layout the rule produces.
  EXPECT_DEATH(ShardWeights(w, mesh, Replication{false, false, false, true,
                                                 /*ffn=*/true}),
               "site 5 needs");
}

// perfbench/serve_bench.cc's model.
ModelConfig PerfbenchModel() {
  ModelConfig c = TinyTestModel();
  c.num_layers = 2;
  c.d_model = 256;
  c.d_ff = 1024;
  c.n_heads = 16;
  c.d_head = 16;
  c.vocab_size = 512;
  return c;
}

// True iff `shard` reads elements of `source`'s own buffer.
bool Inside(const Tensor& shard, const Tensor& source) {
  return shard.SharesBufferWith(source) && shard.data() >= source.data() &&
         shard.data() + shard.numel() <= source.data() + source.numel();
}

TEST(ShardSharingTest, WholeRowShardsReadTheModelsBuffers) {
  // Sites 1-5 on 2x2x1: every chip holds the whole layer, so every shard
  // is a run of whole rows of a ModelWeights tensor and copies nothing.
  const ModelConfig cfg = PerfbenchModel();
  const ModelWeights w = ModelWeights::Random(cfg, 2023);
  const Torus3D mesh(2, 2, 1);
  const Replication all{true, true, true, true, true};
  const std::vector<ChipWeights> chips = ShardWeights(w, mesh, all);
  EXPECT_TRUE(chips[0].embedding.SharesBufferWith(w.embedding));
  for (const ChipWeights& cw : chips) {
    EXPECT_TRUE(cw.final_ln_gain.SharesBufferWith(w.final_ln_gain));
    ASSERT_FALSE(cw.head.empty());
    EXPECT_TRUE(cw.head.SharesBufferWith(chips[0].head));
    for (size_t l = 0; l < w.layers.size(); ++l) {
      const LayerWeights& lw = w.layers[l];
      const ShardedLayerWeights& s = *cw.layers[l];
      ASSERT_EQ(s.in.size(), 2u);
      for (const EBlockWeights& b : s.in) {
        EXPECT_TRUE(Inside(b.ln_gain, lw.ln_gain));
        EXPECT_TRUE(Inside(b.ln2_gain, lw.ln2_gain));
        EXPECT_TRUE(Inside(b.wq, lw.wq));
        EXPECT_TRUE(Inside(b.wk, lw.wk));
        EXPECT_TRUE(Inside(b.wv, lw.wv));
        EXPECT_TRUE(Inside(b.win, lw.win));
        EXPECT_TRUE(Inside(b.win_gate, lw.win_gate));
      }
      ASSERT_EQ(s.wo_blocks.size(), 2u);
      ASSERT_EQ(s.wout_blocks.size(), 2u);
      for (const Tensor& block : s.wo_blocks) EXPECT_TRUE(Inside(block, lw.wo));
      for (const Tensor& block : s.wout_blocks)
        EXPECT_TRUE(Inside(block, lw.wout));
    }
  }
}

TEST(ShardSharingTest, ColumnCutsOwnTheirElements) {
  // Unreplicated on 2x2x1: the yz column shards of the d_model-input
  // weights and the x column blocks of wo/wout are copies; the norm gains'
  // E rows are still views.
  const ModelConfig cfg = TinyTestModel();
  const ModelWeights w = ModelWeights::Random(cfg, 9);
  for (const ChipWeights& cw : ShardWeights(w, Torus3D(2, 2, 1))) {
    const LayerWeights& lw = w.layers[0];
    const ShardedLayerWeights& s = *cw.layers[0];
    ASSERT_EQ(s.in.size(), 1u);
    EXPECT_FALSE(s.in[0].wq.SharesBufferWith(lw.wq));
    EXPECT_FALSE(s.in[0].win.SharesBufferWith(lw.win));
    EXPECT_FALSE(s.in[0].win_gate.SharesBufferWith(lw.win_gate));
    EXPECT_FALSE(s.wo.SharesBufferWith(lw.wo));
    EXPECT_FALSE(s.wout.SharesBufferWith(lw.wout));
    EXPECT_TRUE(s.in[0].ln_gain.SharesBufferWith(lw.ln_gain));
    EXPECT_FALSE(cw.head_shard.SharesBufferWith(cw.head));
  }
}

TEST(ShardSharingTest, EngineOutlivesTheWeightsItWasBuiltFrom) {
  // The shards keep the model's buffers alive: an engine built from a
  // temporary ModelWeights computes what one built from live weights does,
  // and writing to the live weights afterwards changes neither.
  const ModelConfig cfg = PerfbenchModel();
  ModelWeights live = ModelWeights::Random(cfg, 2023);
  EngineSpec spec;
  spec.attn = AttnSharding::kBatch;
  SimMachine m1(Torus3D(2, 2, 1), TpuV4());
  SimMachine m2(Torus3D(2, 2, 1), TpuV4());
  DistributedEngine from_live(live, &m1, spec);
  DistributedEngine from_temp(ModelWeights::Random(cfg, 2023), &m2, spec);
  ASSERT_TRUE(from_live.replication().x && from_live.replication().ffn);
  live.embedding.AddInPlace(Tensor::Full(live.embedding.shape(), 1.0f));
  live.layers[0].wq.AddInPlace(Tensor::Full(live.layers[0].wq.shape(), 1.0f));
  const std::vector<int32_t> tokens = {1, 5, 9, 200, 3, 7, 11, 511};
  const Tensor a = from_live.Prefill(tokens, 4);
  const Tensor b = from_temp.Prefill(tokens, 4);
  EXPECT_EQ(MaxAbsDiff(a, b), 0.0f);
  const Tensor da = from_live.DecodeStep({2, 4, 6, 8});
  const Tensor db = from_temp.DecodeStep({2, 4, 6, 8});
  EXPECT_EQ(MaxAbsDiff(da, db), 0.0f);
}

TEST(ShardedKvCacheTest, AppendsAndTracksLength) {
  // Batch-sharded: chip 0 owns slots {0, 1}, chip 1 owns slots {2, 3}.
  // page_size 4 so 8 committed tokens fill pages exactly (no fragmentation).
  ShardedKvCache cache(2, 3, AttnSharding::kBatch, WeightFormat::kBf16,
                       KvCacheConfig{/*page_size=*/4});
  EXPECT_EQ(cache.length(), 0);
  Tensor kv({2, 4, 1, 8});
  auto step = [&](int64_t t, const Tensor& rows) {
    cache.BeginStep({{0, 1}, {2, 3}}, t);
    for (int chip = 0; chip < 2; ++chip)
      for (int64_t layer = 0; layer < 3; ++layer)
        cache.Append(chip, layer, rows, rows);
    cache.CommitStep();
  };
  step(4, kv);
  EXPECT_EQ(cache.length(), 4);
  step(4, kv);
  EXPECT_EQ(cache.length(), 8);
  EXPECT_EQ(cache.num_slots(), 4);
  for (int64_t slot = 0; slot < 4; ++slot) EXPECT_EQ(cache.slot_length(slot), 8);
  EXPECT_EQ(cache.K(1, 2, /*slot=*/3).dim(1), 8);
  // Page-granular bytes: 4 slots x 2 full pages, each page 3 layers * K&V *
  // 4 positions * 1 head * 8 dh * 2B. Equals the token-granular footprint
  // here because every slot's length is a multiple of the page size.
  EXPECT_EQ(cache.pages_in_use(), 4 * 2);
  EXPECT_DOUBLE_EQ(cache.TotalBytes(2.0), 8 * 3 * 2 * (4 * 1 * 8) * 2.0);

  // Slots advance independently: decode only slot 1 (on its owner chip 0)
  // while chip 1 contributes nothing this step.
  Tensor one({1, 1, 1, 8});
  cache.BeginStep({{1}, {}}, 1);
  for (int64_t layer = 0; layer < 3; ++layer) cache.Append(0, layer, one, one);
  cache.CommitStep();
  EXPECT_EQ(cache.slot_length(1), 9);
  EXPECT_EQ(cache.slot_length(0), 8);
  EXPECT_EQ(cache.length(), 9);

  // Free + reuse: the slot restarts from zero context.
  cache.ResetSlot(1);
  EXPECT_EQ(cache.slot_length(1), 0);
  EXPECT_EQ(cache.length(), 8);
  cache.BeginStep({{1}, {}}, 1);
  for (int64_t layer = 0; layer < 3; ++layer) cache.Append(0, layer, one, one);
  cache.CommitStep();
  EXPECT_EQ(cache.slot_length(1), 1);
}

TEST(ShardedKvCacheTest, ScratchLanesAreDiscarded) {
  ShardedKvCache cache(1, 1, AttnSharding::kHeads, WeightFormat::kBf16,
                       KvCacheConfig{/*page_size=*/4});
  Tensor rows = Tensor::Iota({2, 3, 1, 4});
  // Lane 0 targets slot 0; lane 1 is padding and keeps its own row.
  cache.BeginStep({{0, ShardedKvCache::kScratchSlot}}, 3);
  cache.Append(0, 0, rows, rows);
  EXPECT_EQ(MaxAbsDiff(cache.ScratchK(0, 0, /*lane=*/1), rows.Slice(0, 1, 1)),
            0.0f);
  cache.CommitStep();
  EXPECT_EQ(cache.length(), 3);
  EXPECT_EQ(cache.num_slots(), 1);
  // Scratch is excluded from the committed footprint; the 3 committed
  // positions occupy one whole page (internal fragmentation is bounded by
  // one page per slot).
  EXPECT_EQ(cache.pages_in_use(), 1);
  EXPECT_DOUBLE_EQ(cache.TotalBytes(2.0), 1 * 2 * (4 * 1 * 4) * 2.0);
}

TEST(ShardedKvCacheTest, Int8ScratchLanesKeepTheirOwnPositions) {
  // Same as above on an int8 cache, in both block forms: [lanes, t] and the
  // packed [1, sum of widths] the engine appends for a ragged step.
  Rng rng(9);
  Tensor rows = Tensor::Gaussian({2, 3, 1, 4}, rng);
  const QuantizedKv q = QuantizeKvInt8(rows);
  for (bool packed : {false, true}) {
    ShardedKvCache cache(1, 1, AttnSharding::kHeads, WeightFormat::kInt8,
                         KvCacheConfig{/*page_size=*/4});
    QuantizedKv block = q;
    if (packed) block.shape = {1, 6, 1, 4};
    cache.BeginStep({{0, ShardedKvCache::kScratchSlot}}, {{3, 3}});
    cache.AppendQuantized(0, 0, block, block);
    EXPECT_EQ(MaxAbsDiff(Dequantize(cache.ScratchK8(0, 0, /*lane=*/1)),
                         Dequantize(q).Slice(0, 1, 1)),
              0.0f)
        << (packed ? "packed" : "per lane");
    cache.CommitStep();
    EXPECT_EQ(cache.slot_length(0), 3);
  }
}

namespace {
// [1, t, 1, dh] block whose element at (position tt, dim d) is
// base + tt + d/100 -- distinguishable across steps for content checks.
Tensor MarkedRows(int64_t t, int64_t dh, float base) {
  Tensor rows({1, t, 1, dh});
  for (int64_t tt = 0; tt < t; ++tt)
    for (int64_t d = 0; d < dh; ++d)
      rows.data()[tt * dh + d] = base + static_cast<float>(tt) +
                                 static_cast<float>(d) / 100.0f;
  return rows;
}

void AppendToSlot(ShardedKvCache& cache, int64_t slot, const Tensor& rows) {
  cache.BeginStep({{slot}}, rows.dim(1));
  for (int64_t l = 0; l < cache.num_layers(); ++l) cache.Append(0, l, rows, rows);
  cache.CommitStep();
}
}  // namespace

TEST(ShardedKvCacheTest, ForkSlotSharesCommittedPrefixPages) {
  ShardedKvCache cache(1, 2, AttnSharding::kHeads, WeightFormat::kBf16,
                       KvCacheConfig{/*page_size=*/4});
  AppendToSlot(cache, 0, MarkedRows(8, 8, 1000.0f));  // 2 full pages
  EXPECT_EQ(cache.pages_in_use(), 2);

  // The fork stores nothing new: both slots read the same 2 pages.
  cache.ForkSlot(/*parent=*/0, /*child=*/1, /*prefix_len=*/8);
  EXPECT_EQ(cache.slot_length(1), 8);
  EXPECT_EQ(cache.pages_in_use(), 2);
  EXPECT_EQ(cache.pages_shared(), 2);
  EXPECT_EQ(cache.forks(), 1);
  Tensor parent_k = cache.K(0, 1, 0), child_k = cache.K(0, 1, 1);
  ASSERT_EQ(parent_k.numel(), child_k.numel());
  for (int64_t i = 0; i < parent_k.numel(); ++i)
    ASSERT_EQ(parent_k.data()[i], child_k.data()[i]);

  // The child diverges on a page boundary: a fresh page, no COW split.
  AppendToSlot(cache, 1, MarkedRows(1, 8, 2000.0f));
  EXPECT_EQ(cache.pages_in_use(), 3);
  EXPECT_EQ(cache.cow_splits(), 0);

  // Releasing the parent keeps the shared prefix alive for the child.
  cache.ResetSlot(0);
  EXPECT_EQ(cache.pages_in_use(), 3);
  EXPECT_EQ(cache.pages_shared(), 0);
  EXPECT_EQ(cache.K(0, 0, 1).dim(1), 9);
}

TEST(ShardedKvCacheTest, CowSplitsSharedBoundaryPageOnDivergence) {
  ShardedKvCache cache(1, 1, AttnSharding::kHeads, WeightFormat::kBf16,
                       KvCacheConfig{/*page_size=*/4});
  AppendToSlot(cache, 0, MarkedRows(6, 8, 1000.0f));  // page 1 is partial
  cache.ForkSlot(0, 1, 6);
  EXPECT_EQ(cache.pages_in_use(), 2);

  // The child's first divergent append lands in the shared partial page:
  // BeginStep splits it first, so the parent's copy is untouched.
  AppendToSlot(cache, 1, MarkedRows(2, 8, 2000.0f));
  EXPECT_EQ(cache.cow_splits(), 1);
  EXPECT_EQ(cache.pages_in_use(), 3);
  EXPECT_EQ(cache.pages_shared(), 1);  // page 0 still shared

  Tensor parent_k = cache.K(0, 0, 0), child_k = cache.K(0, 0, 1);
  EXPECT_EQ(parent_k.dim(1), 6);
  EXPECT_EQ(child_k.dim(1), 8);
  // Shared prefix identical; the child's appended positions are its own.
  for (int64_t i = 0; i < 6 * 8; ++i)
    ASSERT_EQ(parent_k.data()[i], child_k.data()[i]);
  EXPECT_EQ(child_k.data()[6 * 8], 2000.0f);

  // The parent now appends into its (exclusive again) boundary page without
  // another split, and the child does not see it.
  AppendToSlot(cache, 0, MarkedRows(1, 8, 3000.0f));
  EXPECT_EQ(cache.cow_splits(), 1);
  EXPECT_EQ(cache.K(0, 0, 1).data()[6 * 8], 2000.0f);
  EXPECT_EQ(cache.K(0, 0, 0).data()[6 * 8], 3000.0f);
}

TEST(ShardedKvCacheTest, ResetSlotReclaimsPagesThroughFreeList) {
  ShardedKvCache cache(1, 1, AttnSharding::kHeads, WeightFormat::kBf16,
                       KvCacheConfig{/*page_size=*/4});
  AppendToSlot(cache, 0, MarkedRows(8, 8, 1000.0f));
  const double two_pages = cache.TotalBytes(2.0);
  EXPECT_EQ(cache.pages_in_use(), 2);
  cache.ResetSlot(0);
  EXPECT_EQ(cache.pages_in_use(), 0);
  EXPECT_DOUBLE_EQ(cache.TotalBytes(2.0), 0.0);
  // A new sequence reuses the freed pages: the pool does not grow.
  AppendToSlot(cache, 1, MarkedRows(8, 8, 2000.0f));
  EXPECT_EQ(cache.pages_in_use(), 2);
  EXPECT_DOUBLE_EQ(cache.TotalBytes(2.0), two_pages);
  EXPECT_EQ(cache.K(0, 0, 1).data()[0], 2000.0f);
}

TEST(ShardedKvCacheTest, Int8ForkAndCowMatchFp32Semantics) {
  ShardedKvCache cache(1, 1, AttnSharding::kHeads, WeightFormat::kInt8,
                       KvCacheConfig{/*page_size=*/4});
  auto append8 = [&](int64_t slot, int64_t t, float base) {
    Tensor rows = MarkedRows(t, 8, base);
    cache.BeginStep({{slot}}, t);
    cache.AppendQuantized(0, 0, QuantizeKvInt8(rows), QuantizeKvInt8(rows));
    cache.CommitStep();
  };
  append8(0, 6, 1.0f);
  cache.ForkSlot(0, 1, 6);
  EXPECT_EQ(cache.pages_in_use(), 2);
  append8(1, 1, 2.0f);
  EXPECT_EQ(cache.cow_splits(), 1);
  // Prefixes agree (values and scales, read through the page tables);
  // divergent tails are independent.
  PagedKvSpanInt8 pk = cache.PageSpanK8(0, 0, 0), ck = cache.PageSpanK8(0, 0, 1);
  EXPECT_EQ(pk.len, 6);
  EXPECT_EQ(ck.len, 7);
  for (int64_t pos = 0; pos < 6; ++pos) {
    const auto page = static_cast<size_t>(pos / 4);
    const int64_t at = pos % 4;
    for (int64_t d = 0; d < 8; ++d)
      ASSERT_EQ(pk.pages[page][at * 8 + d], ck.pages[page][at * 8 + d]);
    ASSERT_EQ(pk.scale_pages[page][at], ck.scale_pages[page][at]);
  }
  // Int8 bytes are page-granular too: values + fp32 scales for 3 pages.
  EXPECT_DOUBLE_EQ(cache.TotalBytes(2.0), 3 * 2.0 * (4 * 1 * 8 + 4.0 * 4 * 1));
}

}  // namespace
}  // namespace tsi
