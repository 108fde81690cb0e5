// Declarative per-block layer graph + sharding assignments.
//
// A ShardingAssignment is the open-vocabulary generalization of the
// PartitionSpec enum: instead of naming one of five FFN layouts, it assigns
// mesh axes directly to the two weight dimensions (d_model and d_ff/heads)
// plus an optional weight all-gather axis set (§3.2.3). The five paper
// layouts are five particular assignments (CanonicalAssignment); the
// autotuner searches the assignment space and the propagation pass
// (plan/propagate.h) infers the collective schedule from the assignment
// alone -- nothing about WS-1D/WS-2D/WG-* is hand-coded downstream of here.
//
// BuildBlockGraph emits one transformer block as a small op graph (norm ->
// QKV -> SDPA -> out-proj, norm -> FFN-in -> activation -> FFN-out,
// residual), in the parallel or serial formulation (§3.4) the model config
// selects. Weights are annotated with their sharded dims; activations start
// from the assignment's input spec and everything else is inferred.
#pragma once

#include <string>
#include <vector>

#include "core/layouts.h"
#include "core/replication.h"
#include "model/config.h"
#include "plan/shard_spec.h"

namespace tsi {
namespace plan {

struct ShardingAssignment {
  Torus3D mesh;
  // Mesh axes sharding the weights' d_model (E) dimension and d_ff / heads
  // (F) dimension, as STORED. kAxisNone = that dim is replicated.
  unsigned e_axes = kAxisNone;
  unsigned f_axes = kAxisNone;
  // Weight-gathered layouts (§3.2.3): per layer, weight shards are
  // all-gathered over these axes before use (activations are batch-sharded
  // over the same axes). kAxisNone = weight-stationary.
  unsigned gather_axes = kAxisNone;
  AttnSharding attn = AttnSharding::kHeads;
  WeightFormat weight_format = WeightFormat::kBf16;
  WeightFormat activations = WeightFormat::kBf16;
  WeightFormat kv_format = WeightFormat::kBf16;
  int64_t kv_page_size = 0;
  // Site 1 of core/replication.h: the q/k/v weights keep their heads
  // columns whole instead of sharding them over f_axes, so batch-sharded
  // attention splits its rows locally instead of by all-to-all.
  bool qkv_replicated = false;
  // Site 3: wo keeps its heads rows whole on both yz chips, so each row's
  // owner projects every head and ships the other rank's term inside the
  // residual all-reduce instead of an all-to-all out of attention. The
  // attention output still lowers as a partial over f_axes: the side terms
  // rebuild exactly those partials.
  bool wo_replicated = false;
  // Site 4: every weight keeps its E dim whole instead of sharding it over
  // e_axes, and the block input shards its tokens over e_axes instead of
  // its E: x carries batch, and no E contraction leaves a partial over x.
  bool x_replicated = false;
  // Site 5: the FFN weights and wo keep their F / heads dim whole too, and
  // the block input shards its tokens over f_axes as well: every chip holds
  // the whole layer and only its own tokens, and no contraction leaves a
  // partial at all.
  bool ffn_replicated = false;

  // Weight sharding that remains after the gather.
  unsigned EffectiveEAxes() const { return e_axes & ~gather_axes; }
  unsigned EffectiveFAxes() const { return f_axes & ~gather_axes; }
  // Chips each weight matrix is gathered over (1 = weight-stationary).
  int GatherWidth() const { return mesh.GroupSize(gather_axes); }

  // Axes a weight-stationary block shards its tokens over: e_axes when
  // x_replicated, plus f_axes when ffn_replicated.
  unsigned RowAxes() const;

  // Block input activation spec: weight-stationary layouts shard E over
  // e_axes with the token batch replicated (the tokens over RowAxes() with
  // E intact when x_replicated or ffn_replicated); weight-gathered layouts
  // shard the token batch over the gathered axes with E intact.
  ShardSpec InputSpec() const;

  std::string ToString() const;
};

// The assignment encoding each hand-coded layout (paper §3.2-§3.3):
// E over x, F over yz, gather over none/x/xy/xyz; `qkv_replicated`,
// `wo_replicated`, `x_replicated` and `ffn_replicated` as the replication
// rule decided them for `spec`.
ShardingAssignment CanonicalAssignment(const PartitionSpec& spec,
                                       const Replication& rep = {});

enum class OpKind {
  kInput,       // block input activation
  kNorm,        // layernorm over E (moment exchange folded into overhead)
  kMatmul,      // x @ W with W's dims annotated below
  kAttention,   // SDPA against the cached K/V
  kActivation,  // pointwise nonlinearity (gelu / swish-gate)
  kResidual,    // sum of branches, must end on the block input spec
};

std::string ToString(OpKind kind);

struct OpNode {
  OpKind kind = OpKind::kInput;
  std::string name;
  std::vector<int> inputs;  // producer op ids
  // kMatmul only: the contraction dim and produced dim names, with the
  // STORED weight sharding over each (before any gather).
  std::string in_dim, out_dim;
  unsigned w_in_axes = kAxisNone;
  unsigned w_out_axes = kAxisNone;
  unsigned gather_axes = kAxisNone;  // all-gather weights over these first
  // Independent matrices fused into this op (gated FFN input = 2); each
  // contributes its own reduce-scatter when the output is a partial sum.
  int n_matrices = 1;
};

struct BlockGraph {
  ModelConfig config;
  ShardingAssignment assignment;
  std::vector<OpNode> ops;  // topologically ordered
  bool parallel = true;     // §3.4 formulation (from config.parallel_block)
};

BlockGraph BuildBlockGraph(const ModelConfig& config,
                           const ShardingAssignment& assignment);

}  // namespace plan
}  // namespace tsi
