// Per-layer (transformer block) cost assembly.
//
// Combines the FFN communication model (§3.2), the attention sharding model
// (§3.3), the parallel-block fusion (§3.4: a parallel block shares one
// E-side reduce-scatter/all-gather pair between attention and FFN, a serial
// block pays two), the overlap model (§3.5) and the weight format (§3.6)
// into a CostBreakdown for one layer of one forward pass.
#pragma once

#include "comm/cost.h"
#include "core/layouts.h"
#include "core/replication.h"
#include "core/system.h"
#include "hw/chip.h"
#include "model/config.h"

namespace tsi {

enum class Phase { kPrefill, kDecode };

// Cost of one transformer layer processing B sequences x L new tokens each,
// attending to `context` total positions per sequence (context >= L; decode
// passes L = 1, prefill passes context = prior cache + L). Follows
// ChooseReplication (core/replication.h) at sys.hop_latency: when site 1
// fires, the q/k/v reduce-scatter widens, the replicas stream, and the
// all-to-all into batch-sharded attention drops out; when site 3 fires, the
// wo replica streams, the yz all-reduce carries the side terms
// (WoSideBytes), and the all-to-all out of attention drops out; when site
// 4 fires, the x-side group drops out and the whole layer streams on every
// x rank (its yz all-reduce carries the x slice's rows at full E: the same
// bytes); when site 5 fires, the yz all-reduce and its side terms drop out
// too, every chip streams the whole layer, and its matmuls run only its
// own group's rows.
CostBreakdown LayerCost(const ModelConfig& config, const PartitionSpec& spec,
                        const ChipSpec& chip, const SystemModel& sys,
                        Phase phase, double batch, double new_tokens,
                        double context);

// The pieces LayerCost is assembled from, exported so the shard-spec
// lowering (src/plan) prices a propagation-derived collective schedule with
// the SAME arithmetic -- keeping the two paths equal to the last bit instead
// of merely close.

// Compute + HBM streaming + fixed overhead: every term of LayerCost except
// the collective schedule (comm stays zero). `rep` (core/replication.h):
// with the q/k/v columns whole on every yz chip (site 1) each chip also
// projects and streams QkvReplicaParams; with wo's rows whole (site 3) it
// streams WoReplicaParams, at unchanged flops (each chip projects its own
// rows through every head instead of every row through its own); with the
// layer whole over x (site 4) it streams XReplicaParams, at unchanged flops
// over 1/X of the rows; with the FFN whole over yz (site 5) it streams
// FfnYzReplicaParams over 1/n of the rows, projecting each row once (no
// site-1 extra flops).
CostBreakdown LayerComputeMemoryCost(const ModelConfig& config,
                                     const PartitionSpec& spec,
                                     const ChipSpec& chip,
                                     const SystemModel& sys, Phase phase,
                                     double batch, double new_tokens,
                                     double context, const Replication& rep);

// Unhidden time of `n_collectives` ring collectives jointly moving `bytes`
// over k chips: per-hop alphas are never hidden; the bandwidth term overlaps
// with matmuls per §3.5 (sys.overlap_fraction).
double UnhiddenCollectiveTime(const CommCostModel& cm, const SystemModel& sys,
                              double bytes, int k, int n_collectives);

// Per-chip bytes the attention Q/K/V projections + output contribute to the
// F-side collective group (§3.4): Q columns shard over yz; K/V columns shard
// when yz divides the KV heads and replicate otherwise (MQA, narrow GQA).
// With `qkv_replicated` every chip reduces every head's columns.
double AttnFSideBytes(const ModelConfig& config, const Torus3D& mesh,
                      double batch_tokens, double act_bytes,
                      bool qkv_replicated = false);

// Per-chip bytes site 3 (core/replication.h) adds to a block's yz
// all-reduce exchange: a parallel block deposits its FFN partial at every
// row plus its own rows' wo terms for the other yz rank, (1 - 1/YZ) of the
// rows beyond the plain all-reduce; a serial block's attention half
// deposits only its own rows' terms, the plain buffer's size, so adds none.
double WoSideBytes(const ModelConfig& config, const Torus3D& mesh,
                   double batch_tokens, double act_bytes);

// Per-chip all-to-all bytes resharding batch-sharded attention (§3.3,
// Fig 5b): inbound Q/K/V (include_kv) or the outbound context vector.
double AttnAllToAllBytes(const ModelConfig& config, const Torus3D& mesh,
                         double batch_tokens, double act_bytes,
                         bool include_kv);

}  // namespace tsi
