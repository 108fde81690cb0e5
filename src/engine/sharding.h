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
// Where the latency-aware replication rule fires (core/replication.h, five
// sites), the q/k/v columns stay whole on every yz chip (site 1), the logit
// head is not vocab-sharded (site 2), every yz rank's block of wo rows sits
// on each yz chip (site 3), every chip keeps its yz shard at all E rows and
// columns (site 4): the d_model-input weights as every x rank's E block,
// the d_model-output weights at full E -- and every chip keeps win/win_gate
// at all F and every yz rank's block of wout rows (site 5). wo and wout
// stay in yz row blocks, each byte for byte (and, quantized, scale for
// scale) the shard chip (x, j) holds in the paper's layout, because the
// engine contracts heads and F one block at a time: it adds the blocks'
// partial sums in group order, exactly the adds of the yz all-reduce they
// replace. One matmul over all F would sum in a different order.
//
// A shard that is a run of whole rows of a ModelWeights tensor is a view of
// that tensor's buffer (Tensor::SharedRows) and copies nothing; only column
// cuts copy. The shards keep the buffers alive, so the weights they were
// cut from may go away first.
#pragma once

#include <memory>
#include <vector>

#include "core/replication.h"
#include "hw/topology.h"
#include "model/weights.h"
#include "quant/int8.h"

namespace tsi {

// One x rank's E/X rows of a layer's norm gains and d_model-input weights:
// exactly what chip (x rank, yz rank) holds in the paper's layout.
struct EBlockWeights {
  Tensor ln_gain;   // [E/X]
  Tensor ln2_gain;  // [E/X]
  Tensor wq;        // [E/X, (H/YZ)*dh], or [E/X, H*dh] when replicated
  Tensor wk;        // [E/X, KVcols]  (KVcols = dh for MQA, (KV/YZ)*dh for MHA,
                    //  KV*dh when replicated)
  Tensor wv;        // like wk
  Tensor win;       // [E/X, F/YZ], or [E/X, F] when whole (site 5)
  Tensor win_gate;  // like win (gated only)
};

struct ShardedLayerWeights {
  // The chip's E blocks in x-rank order: its own x rank's, or every x
  // rank's when the layer is whole over x (site 4).
  std::vector<EBlockWeights> in;
  // The d_model-output weights, at this chip's E columns: its x rank's E/X,
  // or all E under site 4.
  Tensor wo;  // [(H/YZ)*dh, E columns]; empty under site 5
  // Site 3: every yz rank's wo block [(H/YZ)*dh, E columns], in yz-rank
  // order (block yzr is `wo`); empty otherwise.
  std::vector<Tensor> wo_blocks;
  Tensor wout;  // [F/YZ, E columns]; empty under site 5
  // Site 5: every yz rank's wout block [F/YZ, E columns], in yz-rank order;
  // empty otherwise.
  std::vector<Tensor> wout_blocks;
};

// One layer shard's int8 weights (the end-to-end int8 path): per-column
// scales over the shard's own rows, so a replicated column, a replicated
// wo or wout block or a replicated E block gets exactly the bytes and
// scales its sharded copy would (a d_model-output weight at full E is its x
// shards' columns side by side: each column's scale reads only that column).
struct QuantizedEBlock {
  QuantizedTensor wq, wk, wv, win, win_gate;
};
struct QuantizedLayerShard {
  std::vector<QuantizedEBlock> in;  // one per ShardedLayerWeights::in block
  QuantizedTensor wo, wout;
  // One per ShardedLayerWeights block.
  std::vector<QuantizedTensor> wo_blocks, wout_blocks;
};

struct ChipWeights {
  // Read-only, and shared by the chips whose shards are equal (every x
  // rank's under site 4, every yz rank's under site 5).
  std::vector<std::shared_ptr<const ShardedLayerWeights>> layers;
  // The layers' int8 form (QuantizeLayerShard), shared like `layers`;
  // empty unless ShardWeights was asked to quantize.
  std::vector<std::shared_ptr<const QuantizedLayerShard>> qlayers;
  Tensor embedding;      // [vocab, E], on chip 0 only: the step's lookup
  Tensor final_ln_gain;  // [E] replicated: the final norm runs on full rows
  // The logit head: the embedding transposed once, at sharding time.
  Tensor head;        // [E, vocab], the whole head, on the chips that apply
                      // it (ShardWeights), all reading one buffer; empty
                      // elsewhere
  Tensor head_shard;  // [E, vocab/n]: this chip's xyz-rank vocab columns
                      // when the weight-stationary head is sharded; empty
                      // when it runs whole (one chip, a vocab that does not
                      // divide, or replication site 2)
};

// Slices `weights` for every chip of `mesh`, replicating what `replicate`
// says. The whole logit head goes only to the chips that apply it: every
// chip when some phase runs weight-gathered (`weight_gathered`); otherwise,
// unless the head is vocab-sharded, chip 0 -- or, under site 4, each x
// slice's yz-rank-0 chip; under site 5, every chip. With `quantize`, each
// distinct layer shard is also quantized once (ChipWeights::qlayers).
// Requires d_model % X == 0, d_ff % YZ == 0, n_heads % YZ == 0 (and
// n_kv_heads % YZ == 0 for multihead).
std::vector<ChipWeights> ShardWeights(const ModelWeights& weights,
                                      const Torus3D& mesh,
                                      const Replication& replicate = {},
                                      bool weight_gathered = false,
                                      bool quantize = false);

QuantizedLayerShard QuantizeLayerShard(const ShardedLayerWeights& shard,
                                       bool gated);
}  // namespace tsi
