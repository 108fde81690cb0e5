#include "engine/sharding.h"

#include "util/logging.h"

namespace tsi {
namespace {

// Chunks `w`'s rows over x and its columns over yz, where columns are
// organized as `col_groups` groups of `col_group_width` (heads of width
// d_head, or one group of width F). `replicate_cols` skips column chunking
// (multiquery K/V, and replicated q/k/v).
Tensor ShardMatrix(const Tensor& w, int x_rank, int x_parts, int yz_rank,
                   int yz_parts, bool replicate_cols) {
  Tensor rows = x_parts > 1 ? w.Chunk(0, x_parts, x_rank) : w;
  if (replicate_cols || yz_parts == 1) return rows;
  return rows.Chunk(1, yz_parts, yz_rank);
}

}  // namespace

std::vector<ChipWeights> ShardWeights(const ModelWeights& weights,
                                      const Torus3D& mesh,
                                      const Replication& replicate) {
  const ModelConfig& cfg = weights.config;
  const int X = mesh.x();
  const int YZ = mesh.y() * mesh.z();
  TSI_CHECK_EQ(cfg.d_model % X, 0) << "d_model must divide over mesh x";
  TSI_CHECK_EQ(cfg.d_ff % YZ, 0) << "d_ff must divide over mesh yz";
  TSI_CHECK_EQ(cfg.n_heads % YZ, 0) << "heads must divide over mesh yz";
  // K/V heads shard over yz when they divide evenly; otherwise they are
  // replicated on every yz chip (Fig 4b's multiquery case, and grouped-query
  // configs with fewer kv heads than the yz extent).
  const bool kv_replicated = replicate.qkv || cfg.n_kv_heads() % YZ != 0;
  const int n = mesh.num_chips();
  const Tensor head = weights.embedding.Transpose2D();
  const bool shard_head =
      n > 1 && cfg.vocab_size % n == 0 && !replicate.logit_head;

  std::vector<ChipWeights> chips(static_cast<size_t>(n));
  for (int chip = 0; chip < n; ++chip) {
    const int xr = mesh.RankInGroup(chip, kAxisX);
    const int yzr = mesh.RankInGroup(chip, kAxisY | kAxisZ);
    ChipWeights& cw = chips[static_cast<size_t>(chip)];
    cw.embedding = weights.embedding;
    cw.final_ln_gain = weights.final_ln_gain;
    cw.head = head;
    if (shard_head)
      cw.head_shard = head.Chunk(1, n, mesh.RankInGroup(chip, kAxisXYZ));
    cw.layers.reserve(weights.layers.size());
    for (const LayerWeights& lw : weights.layers) {
      ShardedLayerWeights s;
      s.ln_gain = X > 1 ? lw.ln_gain.Chunk(0, X, xr) : lw.ln_gain;
      s.ln2_gain = X > 1 ? lw.ln2_gain.Chunk(0, X, xr) : lw.ln2_gain;
      s.wq = ShardMatrix(lw.wq, xr, X, yzr, YZ, replicate.qkv);
      s.wk = ShardMatrix(lw.wk, xr, X, yzr, YZ, kv_replicated);
      s.wv = ShardMatrix(lw.wv, xr, X, yzr, YZ, kv_replicated);
      // wo: rows are the heads dim (chunk over yz), cols are E (chunk over x).
      {
        Tensor rows = YZ > 1 ? lw.wo.Chunk(0, YZ, yzr) : lw.wo;
        s.wo = X > 1 ? rows.Chunk(1, X, xr) : rows;
        if (replicate.wo) {
          for (int j = 0; j < YZ; ++j) {
            Tensor block = lw.wo.Chunk(0, YZ, j);
            s.wo_blocks.push_back(X > 1 ? block.Chunk(1, X, xr) : block);
          }
        }
      }
      s.win = ShardMatrix(lw.win, xr, X, yzr, YZ, false);
      if (cfg.gated_ffn)
        s.win_gate = ShardMatrix(lw.win_gate, xr, X, yzr, YZ, false);
      {
        Tensor rows = YZ > 1 ? lw.wout.Chunk(0, YZ, yzr) : lw.wout;
        s.wout = X > 1 ? rows.Chunk(1, X, xr) : rows;
      }
      cw.layers.push_back(std::move(s));
    }
  }
  return chips;
}

QuantizedLayerShard QuantizeLayerShard(const ShardedLayerWeights& shard,
                                       bool gated) {
  QuantizedLayerShard q;
  q.wq = QuantizeInt8(shard.wq);
  q.wk = QuantizeInt8(shard.wk);
  q.wv = QuantizeInt8(shard.wv);
  q.wo = QuantizeInt8(shard.wo);
  for (const Tensor& block : shard.wo_blocks)
    q.wo_blocks.push_back(QuantizeInt8(block));
  q.win = QuantizeInt8(shard.win);
  if (gated) q.win_gate = QuantizeInt8(shard.win_gate);
  q.wout = QuantizeInt8(shard.wout);
  return q;
}

}  // namespace tsi
