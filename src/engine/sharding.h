// Weight sharding for the distributed engine.
//
// All weights are stored in the paper's E_x F_yz layout (§3.2.2/§3.2.3):
// every matrix whose input is d_model has its rows chunked over the mesh x
// axis; columns live on the y*z axes -- the FFN hidden dim F, and the
// attention heads dim, chunk over yz. The multiquery K/V head cannot chunk
// over heads and is replicated across yz (Fig 4b). This single storage
// layout serves 1D weight-stationary (x == 1), 2D weight-stationary, and
// weight-gathered execution (which all-gathers from it at run time), exactly
// so the engine can switch layouts between prefill and decode without
// resharding -- the property §3.2.3 calls out.
//
// Where the latency-aware replication rule fires (core/replication.h), the
// q/k/v columns stay whole on every yz chip (site 1), the logit head is not
// vocab-sharded (site 2), and every yz rank's block of wo rows sits on each
// yz chip (site 3).
#pragma once

#include <vector>

#include "core/replication.h"
#include "hw/topology.h"
#include "model/weights.h"
#include "quant/int8.h"

namespace tsi {

struct ShardedLayerWeights {
  Tensor ln_gain;   // [E/X]
  Tensor ln2_gain;  // [E/X]
  Tensor wq;        // [E/X, (H/YZ)*dh], or [E/X, H*dh] when replicated
  Tensor wk;        // [E/X, KVcols]  (KVcols = dh for MQA, (KV/YZ)*dh for MHA,
                    //  KV*dh when replicated)
  Tensor wv;        // like wk
  Tensor wo;        // [(H/YZ)*dh, E/X]
  // Site 3: every yz rank's wo block [(H/YZ)*dh, E/X] at this chip's E/X
  // columns, in yz-rank order (block yzr is `wo`); empty otherwise.
  std::vector<Tensor> wo_blocks;
  Tensor win;       // [E/X, F/YZ]
  Tensor win_gate;  // [E/X, F/YZ] (gated only)
  Tensor wout;      // [F/YZ, E/X]
};

struct ChipWeights {
  std::vector<ShardedLayerWeights> layers;
  Tensor embedding;      // [vocab, E] replicated (small at test scale)
  Tensor final_ln_gain;  // [E] replicated: the final norm runs on full rows
  // The logit head: the embedding transposed once, at sharding time.
  Tensor head;        // [E, vocab], the whole head (replicated)
  Tensor head_shard;  // [E, vocab/n]: this chip's xyz-rank vocab columns
                      // when the weight-stationary head is sharded; empty
                      // when it runs whole on chip 0 (one chip, a vocab
                      // that does not divide, or replication site 2)
};

// Slices `weights` for every chip of `mesh`, replicating what `replicate`
// says. Requires d_model % X == 0, d_ff % YZ == 0, n_heads % YZ == 0 (and
// n_kv_heads % YZ == 0 for multihead).
std::vector<ChipWeights> ShardWeights(const ModelWeights& weights,
                                      const Torus3D& mesh,
                                      const Replication& replicate = {});

// One layer shard's int8 weights (the end-to-end int8 path): per-column
// scales over the shard's own rows, so a replicated column -- or a
// replicated wo block -- gets exactly the bytes and scales its sharded copy
// would.
struct QuantizedLayerShard {
  QuantizedTensor wq, wk, wv, wo, win, win_gate, wout;
  std::vector<QuantizedTensor> wo_blocks;  // one per ShardedLayerWeights block
};
QuantizedLayerShard QuantizeLayerShard(const ShardedLayerWeights& shard,
                                       bool gated);

}  // namespace tsi
