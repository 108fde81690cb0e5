#include "engine/sharding.h"

#include <algorithm>
#include <map>
#include <utility>

#include "util/logging.h"

namespace tsi {
namespace {

// Rows [r0, r0 + nr) and columns [c0, c0 + nc) of the matrix `w`: a view
// of `w`'s buffer when the cut keeps whole rows, else one copy.
Tensor Cut(const Tensor& w, int64_t r0, int64_t nr, int64_t c0, int64_t nc) {
  const int64_t cols = w.dim(1);
  if (c0 == 0 && nc == cols) return w.SharedRows(r0, nr);
  Tensor out({nr, nc});
  float* dst = out.data();
  for (int64_t r = r0; r < r0 + nr; ++r, dst += nc)
    std::copy_n(w.data() + r * cols + c0, nc, dst);
  return out;
}

// The whole of `t`, as a view of its buffer.
Tensor Share(const Tensor& t) { return t.SharedRows(0, t.dim(0)); }

}  // namespace

std::vector<ChipWeights> ShardWeights(const ModelWeights& weights,
                                      const Torus3D& mesh,
                                      const Replication& replicate,
                                      bool weight_gathered, bool quantize) {
  const ModelConfig& cfg = weights.config;
  const int X = mesh.x();
  const int YZ = mesh.y() * mesh.z();
  TSI_CHECK_EQ(cfg.d_model % X, 0) << "d_model must divide over mesh x";
  TSI_CHECK_EQ(cfg.d_ff % YZ, 0) << "d_ff must divide over mesh yz";
  TSI_CHECK_EQ(cfg.n_heads % YZ, 0) << "heads must divide over mesh yz";
  TSI_CHECK(!replicate.ffn ||
            (replicate.qkv && replicate.wo && (replicate.x || X == 1)))
      << "site 5 needs sites 1 and 3 and all of E on every chip";
  // K/V heads shard over yz when they divide evenly; otherwise they are
  // replicated on every yz chip (Fig 4b's multiquery case, and grouped-query
  // configs with fewer kv heads than the yz extent).
  const bool kv_replicated = replicate.qkv || cfg.n_kv_heads() % YZ != 0;
  const int n = mesh.num_chips();
  const int64_t E = cfg.d_model, Eb = E / X, V = cfg.vocab_size;
  const Tensor head = weights.embedding.Transpose2D();
  const bool shard_head = n > 1 && V % n == 0 && !replicate.logit_head;
  // Site 4 keeps every x rank's E block on every chip.
  const int blocks = replicate.x ? X : 1;
  // Chips whose layer shards are equal share one copy: every x rank's
  // under site 4, every yz rank's under site 5 (nothing is cut by yz rank
  // then: wo and wout live in their yz blocks). The first chip to hold
  // each, keyed by (x rank, yz rank), -1 where the shards do not depend on
  // it.
  std::map<std::pair<int, int>, int> built;

  std::vector<ChipWeights> chips(static_cast<size_t>(n));
  for (int chip = 0; chip < n; ++chip) {
    const int xr = mesh.RankInGroup(chip, kAxisX);
    const int yzr = mesh.RankInGroup(chip, kAxisY | kAxisZ);
    ChipWeights& cw = chips[static_cast<size_t>(chip)];
    if (chip == 0) cw.embedding = Share(weights.embedding);
    cw.final_ln_gain = Share(weights.final_ln_gain);
    const bool head_rank =
        replicate.ffn || (replicate.x ? yzr == 0 : chip == 0);
    if (weight_gathered || (!shard_head && head_rank)) cw.head = Share(head);
    if (shard_head)
      cw.head_shard =
          Cut(head, 0, E, mesh.RankInGroup(chip, kAxisXYZ) * (V / n), V / n);
    const std::pair<int, int> key(replicate.x ? -1 : xr,
                                  replicate.ffn ? -1 : yzr);
    if (const auto it = built.find(key); it != built.end()) {
      const ChipWeights& first = chips[static_cast<size_t>(it->second)];
      cw.layers = first.layers;
      cw.qlayers = first.qlayers;
      continue;
    }
    // The chip's E blocks -- its x rank's, or all X -- as rows of the
    // d_model-input weights and columns of the d_model-output ones.
    const int g0 = replicate.x ? 0 : xr;
    const int64_t c0 = g0 * Eb, nc = blocks * Eb;
    cw.layers.reserve(weights.layers.size());
    for (const LayerWeights& lw : weights.layers) {
      ShardedLayerWeights s;
      for (int g = g0; g < g0 + blocks; ++g) {
        // Block g's E rows; columns chunked over yz unless whole.
        const int64_t r0 = g * Eb;
        auto rows = [&](const Tensor& w, bool whole_cols) {
          const int64_t w_cols = whole_cols ? w.dim(1) : w.dim(1) / YZ;
          return Cut(w, r0, Eb, whole_cols ? 0 : yzr * w_cols, w_cols);
        };
        EBlockWeights b;
        b.ln_gain = lw.ln_gain.SharedRows(r0, Eb);
        b.ln2_gain = lw.ln2_gain.SharedRows(r0, Eb);
        b.wq = rows(lw.wq, replicate.qkv);
        b.wk = rows(lw.wk, kv_replicated);
        b.wv = rows(lw.wv, kv_replicated);
        b.win = rows(lw.win, replicate.ffn);
        if (cfg.gated_ffn) b.win_gate = rows(lw.win_gate, replicate.ffn);
        s.in.push_back(std::move(b));
      }
      // wo and wout: rows are the heads / F dim (chunk over yz), columns E.
      auto cols = [&](const Tensor& w, int j) {
        const int64_t w_rows = w.dim(0) / YZ;
        return Cut(w, j * w_rows, w_rows, c0, nc);
      };
      if (!replicate.ffn) s.wo = cols(lw.wo, yzr);
      if (replicate.wo)
        for (int j = 0; j < YZ; ++j) s.wo_blocks.push_back(cols(lw.wo, j));
      if (replicate.ffn) {
        for (int j = 0; j < YZ; ++j) s.wout_blocks.push_back(cols(lw.wout, j));
      } else {
        s.wout = cols(lw.wout, yzr);
      }
      if (quantize)
        cw.qlayers.push_back(std::make_shared<const QuantizedLayerShard>(
            QuantizeLayerShard(s, cfg.gated_ffn)));
      cw.layers.push_back(
          std::make_shared<const ShardedLayerWeights>(std::move(s)));
    }
    built.emplace(key, chip);
  }
  return chips;
}

QuantizedLayerShard QuantizeLayerShard(const ShardedLayerWeights& shard,
                                       bool gated) {
  QuantizedLayerShard q;
  for (const EBlockWeights& b : shard.in) {
    QuantizedEBlock qb;
    qb.wq = QuantizeInt8(b.wq);
    qb.wk = QuantizeInt8(b.wk);
    qb.wv = QuantizeInt8(b.wv);
    qb.win = QuantizeInt8(b.win);
    if (gated) qb.win_gate = QuantizeInt8(b.win_gate);
    q.in.push_back(std::move(qb));
  }
  if (!shard.wo.empty()) q.wo = QuantizeInt8(shard.wo);
  for (const Tensor& block : shard.wo_blocks)
    q.wo_blocks.push_back(QuantizeInt8(block));
  if (!shard.wout.empty()) q.wout = QuantizeInt8(shard.wout);
  for (const Tensor& block : shard.wout_blocks)
    q.wout_blocks.push_back(QuantizeInt8(block));
  return q;
}

}  // namespace tsi
