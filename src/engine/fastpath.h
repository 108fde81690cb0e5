// Decode fast path: a per-block operator graph and the fusion pass that
// plans which adjacent ops collapse into fused kernel calls (tensor/ and
// quant/ provide the kernels; engine.cc executes the plan).
//
// The paper's decode step is memory-bound (§3, Fig. 1): every fp32
// intermediate a block materializes -- the normed activations, the matmul
// outputs that only feed a residual add, the pre-activation FFN hidden --
// costs a round trip to HBM that fusion avoids. This module makes the
// decision explicit and testable: BuildBlockGraph lays out the block's op
// sequence for a concrete (model, layout, mesh, precision) combination,
// including the communication ops that act as fusion barriers, and
// FuseBlockGraph pattern-matches the fusible seams:
//
//   norm -> matmul           (the attention/FFN prologue: the norm transform
//                             is applied while packing the matmul's A panel)
//   matmul -> activation     (Gelu / Swish-gate epilogue)
//   matmul -> residual-add   (accumulate epilogue, c += a@b)
//   norm -> int8 quantize    (per-row dynamic activation quantization fused
//   activation -> quantize    into the producing op, §3.6 future work)
//
// Every fusion the pass emits is executed bit-identically to the unfused
// composition (engine_test enforces this for fp32), so fuse_ops is purely a
// memory-traffic optimization -- results never change.
#pragma once

#include <string>
#include <vector>

#include "core/layouts.h"
#include "core/replication.h"
#include "model/config.h"

namespace tsi {

enum class FastPathPrecision {
  kFp32,  // fp32 compute; fusion only changes memory traffic
  kInt8,  // int8 weights + dynamic per-row int8 activations + int8 KV cache
};

// Plumbed through EngineSpec: the two axes of the decode fast path.
struct FastPathConfig {
  bool fuse_ops = false;  // run the fused kernels the fusion pass plans
  FastPathPrecision precision = FastPathPrecision::kFp32;

  bool int8() const { return precision == FastPathPrecision::kInt8; }
  // Whether the fast path changes anything relative to the baseline engine.
  bool active() const { return fuse_ops || int8(); }
};

std::string ToString(FastPathPrecision precision);

enum class OpKind {
  kNormStats,    // per-row (sum, sumsq) moments
  kNormApply,    // (x - mean) * inv * gain
  kMatMul,       // projection (int8 when fed by a kQuantize node)
  kBiasAdd,      // bias epilogue (unused by the PaLM-style block: no biases)
  kActivation,   // Gelu or Swish-gate
  kResidualAdd,  // elementwise sum of branch outputs / residual stream
  kQuantize,     // dynamic per-row int8 activation quantization
  kSdpa,         // scaled dot-product attention over the KV cache
  kComm,         // collective; a hard fusion barrier
  kBlockSum,     // local group-order sum of per-E-block partials (site 4)
};

std::string ToString(OpKind kind);

// One op in a block's (topologically ordered) op list. `inputs` name
// producer tags; tags that name no node ("x", "w") are external inputs.
struct OpNode {
  OpKind kind;
  std::string tag;
  std::vector<std::string> inputs;
  // Index of the node this op was fused into by FuseBlockGraph; -1 while
  // standalone. A fused op issues no kernel of its own.
  int fused_into = -1;
};

struct BlockGraph {
  std::vector<OpNode> ops;

  int IndexOf(const std::string& tag) const;       // -1 if absent
  const OpNode* Find(const std::string& tag) const;  // nullptr if absent
  // Number of ops folded into a neighbor (fused_into >= 0).
  int NumFused() const;
};

// Lays out one transformer block's op sequence for the given layout. The
// graph is dataflow-honest: collectives appear as kComm nodes wherever the
// engine actually synchronizes (distributed-norm moments, partial-sum
// reductions, attention reshards, the weight-gathered prefetch), so fusion
// patterns that would reach across a chip boundary simply fail to match.
// Int8 precision inserts the kQuantize nodes the int8 pipeline needs;
// weight-gathered layouts keep fp32 compute (only the KV cache narrows), so
// their graphs carry no quantize nodes. `replication` (core/replication.h):
// with the q/k/v columns whole on every yz chip, batch-sharded attention
// has no inbound reshard; with wo's rows whole on both yz chips, no
// outbound one, and a parallel block's branch sum happens inside the yz
// all-reduce (each row's owner ships the other rank's wo term with it), so
// it folds into neither output projection; with the layer whole over x, no
// x collective at all -- the norm's moments and the contractions over E
// are summed over the x ranks' E blocks on the chip (kBlockSum nodes, which
// keep the activation out of the FFN input matmul's epilogue).
BlockGraph BuildBlockGraph(const ModelConfig& config, FfnLayout ffn,
                           AttnSharding attn, int x, int yz,
                           bool fuse_collectives, FastPathPrecision precision,
                           const Replication& replication);

// What the engine executes for one block under a given layout; produced by
// FuseBlockGraph, consumed by DistributedEngine's per-chip block functions.
struct FusedPlan {
  bool int8 = false;  // int8 weights/activations/KV on the WS compute path
  // Norm applied on the A-pack of the consuming projection (no normed
  // activation tensor is materialized).
  bool norm_into_attn = false;  // q/k/v projections
  bool norm_into_ffn = false;   // ffn_in (+gate) projections
  // Activation folded into the producing matmul's epilogue (fp32 compute).
  bool act_epilogue = false;
  // Residual adds folded into the producing matmul (c += a@b).
  bool wo_accumulate = false;    // attention output projection
  bool wout_accumulate = false;  // FFN output projection
  // Int8: dynamic activation quantization fused into the producing op.
  bool quantize_fused_norm = false;  // norm output quantized in one pass
  bool quantize_fused_act = false;   // activation output quantized in one pass
  // Ops the pass eliminated from this block's graph.
  int fused_ops_per_block = 0;

  bool AnyFusion() const {
    return norm_into_attn || norm_into_ffn || act_epilogue || wo_accumulate ||
           wout_accumulate || quantize_fused_norm || quantize_fused_act;
  }
};

std::string ToString(const FusedPlan& plan);

// Runs the fusion pass over `graph` (marking fused_into on eliminated nodes)
// and returns the plan. With fuse_ops off, no patterns are matched and the
// plan only records the precision.
FusedPlan FuseBlockGraph(BlockGraph* graph, const FastPathConfig& config);

}  // namespace tsi
