// Latency-aware replication of small weight shards.
//
// §3.2.3 picks a layout by whichever is cheaper to move, weights or
// activations. With the per-hop latency this repo adds to Appendix A
// (comm/cost.h), the trade can flip for a tensor that moves only a few KiB:
// replicating a weight shard over a mesh axis costs every chip on it extra
// weight bytes streamed from HBM per pass, but removes a collective -- and
// its hops -- outright. Three sites can make that trade without changing
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
//     computing a vocab shard that an all-gather(xyz) then assembles.
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
//
// ChooseReplication replicates a site only when the extra weight bytes it
// streams per pass cost less HBM time (ChipSpec::hbm_bw) than the collective
// it removes costs on a one-row frame: its hops times the hop latency plus
// that row's bytes (CommCostModel, charged as the simulator charges it). The
// rule reads only hardware constants, the hop latency, the model dimensions
// and the weight format. With hop latency 0 it never replicates -- there is
// no hop to buy back, so the paper's layouts stand -- and at PaLM scale it
// never does either (the extra Wq or wo stream on 64 chips is ~88 us per
// layer, the extra head stream ~7.7 ms, against a few us of hops).
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

// The rule above, for one phase layout. Sites 1 and 3 need kBatch and a
// weight-stationary `spec.ffn`; site 1 YZ > 1, site 3 YZ == 2 (one yz axis
// of extent 2); site 2 a weight-stationary `spec.ffn` and more than one
// chip.
Replication ChooseReplication(const ModelConfig& config,
                              const PartitionSpec& spec, const ChipSpec& chip,
                              double hop_latency);

}  // namespace tsi
