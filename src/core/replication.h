// Latency-aware replication of small weight shards.
//
// §3.2.3 picks a layout by whichever is cheaper to move, weights or
// activations. With the per-hop latency this repo adds to Appendix A
// (comm/cost.h), the trade can flip for a tensor that moves only a few KiB:
// replicating a weight shard over a mesh axis costs every chip on it extra
// weight bytes streamed from HBM per pass, but removes a collective -- and
// its hops -- outright. Five sites can make that trade without changing
// any result (each element keeps its fma chain and its reduction order):
//
//   * Site 1, the attention input projections under batch-sharded attention
//     on a weight-stationary layout with YZ > 1 (§3.3, Fig 5b). With the
//     q/k/v columns whole on every yz chip, each chip projects every head,
//     the reduce-scatter(x) delivers its x slice of the rows with every
//     head, and the split over the owner groups is a local slice: the
//     all-to-all(yz) into attention goes away.
//   * Site 2, the weight-stationary logit head. Chip 0 multiplies the
//     normed rows by the whole transposed embedding instead of every chip
//     computing a vocab shard that an all-gather(xyz) then assembles (under
//     site 4, chip (x, 0) of every x slice does so for the slice's rows;
//     under site 5, every chip for its own rows).
//   * Site 3, the attention output projection under batch-sharded attention
//     on a weight-stationary layout whose yz all-reduce is one exchange:
//     exactly one yz torus axis, of extent 2. With wo's rows (every head)
//     on both yz chips, a row's owner projects its attention output through
//     each yz rank's block of heads, A_j = attn[rows, heads_j] @ wo_j --
//     each block the same matmul chip (x, j) runs on today's shard. The
//     owner completes its own partial (A_own + F_own, F the FFN's wout
//     partial) and ships the other rank's A_j inside the yz exchange
//     (SpmdContext::AllReduceOwnedRows), where the receiver adds it to that
//     rank's F. Every chip then sums (A_0 + F_0) + (A_1 + F_1) in group
//     order, exactly today's all-reduce: the all-to-all(yz) out of
//     attention goes away. It needs the single exchange: on a longer ring
//     the partial sums are reduced in pieces on the way, and a side term
//     would have to join each piece where it is summed.
//   * Site 4, the whole layer over x under batch-sharded attention on a
//     weight-stationary layout with X > 1. Every chip keeps its yz shard at
//     all E rows and columns (on top of the site-1 and site-3 replicas), and
//     the residual stream is sharded by rows over x instead of by E: chip
//     (x, j) holds its x slice's owner-group rows at full E. x then carries
//     batch, and the layer's x collectives -- the norm's moments
//     all-reduce(x), the reduce-scatter(x) and the all-gather(x) -- go
//     away; only the yz all-reduce remains. The chip computes what the x
//     ranks used to: every contraction over E runs as X per-block matmuls,
//     block g on chip (g, j)'s old shard (int8: with block g's own per-row
//     activation scales and column scales), summed in group order; the
//     norm's moments are computed per E block and summed in group order.
//     Those are exactly the adds ReduceScatterMany and AllReduce make. A
//     contraction over heads or F produces E columns, each its own fma
//     chain whichever columns share the matmul, so those run once at full
//     E.
//   * Site 5, the FFN whole over yz, once sites 1 and 3 fired (so the yz
//     axis is one 2-chip axis) and no x collective runs (X == 1, or site
//     4). Every chip keeps win/win_gate at all F and wout as YZ row blocks,
//     block j chip (x, j)'s old shard, and the residual stream is sharded
//     by rows over x and yz: chip c holds only its own group's rows at full
//     E. Every chip then holds the whole layer, and the mesh runs purely
//     data parallel: no collective runs in a block. The hidden splits into
//     YZ F blocks, block j the columns chip (x, j) computes (int8: each
//     block quantized with its own per-row scales), and each block's wout
//     partial F_j is added to its wo term A_j; the blocks then add in group
//     order, (A_0 + F_0) + (A_1 + F_1) -- exactly the adds
//     AllReduceOwnedRows makes. One K = F matmul would be a different fma
//     chain, so the F split stays.
//
// ChooseReplication replicates a site only when the extra weight bytes it
// streams per pass cost less HBM time (ChipSpec::hbm_bw) than the
// collectives it removes cost on a frame of one row per owner group: their
// hops times the hop latency plus that frame's bytes (CommCostModel,
// charged as the simulator charges them). The rule reads only hardware
// constants, the hop latency, the model dimensions and the weight format.
// With hop latency 0 it never replicates -- there is no hop to buy back, so
// the paper's layouts stand -- and at PaLM scale it never does either (the
// extra Wq or wo stream on 64 chips is ~88 us per layer, the extra x stream
// of a whole layer hundreds of us, the extra head ~7.7 ms, against a few us
// of hops; so does the other yz rank's FFN).
//
// The engine (engine/engine.h), LayerCost and InferenceEstimator
// (core/block_cost.h, core/inference_cost.h) and the src/plan lowering all
// call this one rule, so the schedule that runs and the schedule that is
// priced agree.
#pragma once

#include "core/layouts.h"
#include "hw/chip.h"
#include "model/config.h"

namespace tsi {

struct Replication {
  bool qkv = false;         // site 1: q/k/v columns whole on every yz chip
  bool logit_head = false;  // site 2: the whole head on chip 0, no gather
  bool wo = false;          // site 3: wo's rows whole on both yz chips
  bool x = false;           // site 4: every layer weight whole over x
  bool ffn = false;         // site 5: the FFN whole over yz

  bool operator==(const Replication&) const = default;
};

// Parameters one chip stores and streams per layer beyond its E_x F_yz
// shard when site 1 fires: the q columns of the other yz ranks, plus the
// K/V columns when they shard over yz (multihead, wide grouped-query;
// multiquery K/V are replicated already).
double QkvReplicaParams(const ModelConfig& config, const Torus3D& mesh);

// Head parameters chip 0 streams beyond its vocab shard when site 2 fires.
double HeadReplicaParams(const ModelConfig& config, const Torus3D& mesh);

// wo parameters one chip streams per layer beyond its shard when site 3
// fires: the other yz rank's rows (heads) at this chip's E/X columns.
double WoReplicaParams(const ModelConfig& config, const Torus3D& mesh);

// Layer parameters one chip streams beyond its shard when site 4 fires:
// the other x ranks' E blocks of everything it holds per layer, the site-1
// and site-3 replicas `rep` keeps included.
double XReplicaParams(const ModelConfig& config, const Torus3D& mesh,
                      const Replication& rep);

// FFN parameters one chip streams per layer beyond its shard when site 5
// fires: the other yz rank's win/win_gate columns and wout rows, at all E
// (site 5 needs the chip to hold all of E: X == 1 or site 4).
double FfnYzReplicaParams(const ModelConfig& config, const Torus3D& mesh);

// The rule above, for one phase layout. Sites 1, 3, 4 and 5 need kBatch and
// a weight-stationary `spec.ffn`; site 1 YZ > 1, site 3 YZ == 2 (one yz
// axis of extent 2), site 4 X > 1, site 5 sites 1 and 3 and no x
// collective (X == 1 or site 4); site 2 a weight-stationary `spec.ffn` and
// more than one chip.
Replication ChooseReplication(const ModelConfig& config,
                              const PartitionSpec& spec, const ChipSpec& chip,
                              double hop_latency);

}  // namespace tsi
