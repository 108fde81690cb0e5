// Shard-spec propagation over the block graph.
//
// Walks the ops of a BlockGraph in topological order, infers each op's
// output ShardSpec from its input specs and weight annotations, and inserts
// the minimal collectives where specs mismatch (the ONNX shard_model
// infer_sharding discipline, SNIPPETS.md):
//
//   * contracting a dimension the (post-gather) weight shards over yields a
//     PARTIAL-SUM output over those axes -- no communication yet;
//   * a pointwise consumer (activation, SDPA) resolves a pending partial
//     with a ReduceScatter INTO its own feature dimension (the paper's
//     §3.5 "reduce-scatter into the hidden dimension" choice -- cheaper
//     than an all-reduce because the consumer is sharding-oblivious);
//   * a matmul whose input is sharded over axes its weight does not share
//     inserts an AllGather over exactly the missing axes;
//   * a residual resolves the union of its branches' partials with ONE
//     AllReduce (parallel blocks therefore share a single pair between the
//     attention and FFN branches, serial blocks pay two -- §3.4 falls out
//     of the graph shape instead of being hand-coded);
//   * batch-sharded attention entered with replicated tokens inserts the
//     AllToAll reshard pair (§3.3 Fig 5b) -- without the inbound one when
//     the q/k/v columns are replicated, without the outbound one when wo's
//     rows are (core/replication.h); weight-gathered layouts arrive with
//     tokens already sharded and insert nothing;
//   * a weight-gathered matmul records the per-layer weight AllGather;
//   * a layer whole over x (site 4) contracts no E shard and enters with
//     its tokens over x, so no x collective is inserted at all.
//
// In a parallel block the attention projections' F-side collectives fuse
// into the FFN's (§3.4): they move their bytes in the same group and pay no
// additional alpha (attention_side && graph.parallel).
//
// The pass dies (TSI_CHECK) on specs that violate the ShardSpec invariants
// and on blocks whose output spec does not match their input spec -- layers
// must stack.
#pragma once

#include <string>
#include <vector>

#include "plan/graph.h"

namespace tsi {
namespace plan {

enum class CollectiveKind {
  kAllReduce,      // clear a partial in place (reduce-scatter + all-gather)
  kAllGather,      // unshard a dimension over the named axes
  kReduceScatter,  // clear a partial by shard-splitting a dimension
  kAllToAll,       // reshard tokens <-> heads (batch-sharded attention)
  kWeightGather,   // per-layer weight all-gather (§3.2.3)
};

std::string ToString(CollectiveKind kind);

struct InsertedCollective {
  CollectiveKind kind = CollectiveKind::kAllReduce;
  unsigned axes = kAxisNone;  // mesh axes the collective runs over
  int op = -1;                // graph op it feeds (index into graph.ops)
  std::string tensor;         // what moves, for inspection/docs
  // Alpha-bearing ring collectives this entry represents: a gated FFN's
  // two input projections reduce-scatter separately (count 2); an
  // all-reduce is a reduce-scatter + all-gather pair (count 2).
  int count = 1;
  // True for the attention projections' F-side collectives; in a parallel
  // block these fuse into the FFN group and contribute no alpha (§3.4).
  bool attention_side = false;

  std::string ToString() const;
};

struct PropagatedBlock {
  BlockGraph graph;
  std::vector<ShardSpec> specs;  // per-op output spec, parallel to graph.ops
  std::vector<InsertedCollective> collectives;  // in execution order

  const ShardSpec& output_spec() const { return specs.back(); }
};

PropagatedBlock Propagate(const BlockGraph& graph);

}  // namespace plan
}  // namespace tsi
