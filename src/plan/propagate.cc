#include "plan/propagate.h"

#include <sstream>

#include "util/logging.h"

namespace tsi {
namespace plan {

std::string ToString(CollectiveKind kind) {
  switch (kind) {
    case CollectiveKind::kAllReduce: return "all-reduce";
    case CollectiveKind::kAllGather: return "all-gather";
    case CollectiveKind::kReduceScatter: return "reduce-scatter";
    case CollectiveKind::kAllToAll: return "all-to-all";
    case CollectiveKind::kWeightGather: return "weight-gather";
  }
  return "?";
}

std::string InsertedCollective::ToString() const {
  std::ostringstream os;
  os << plan::ToString(kind) << "(" << AxisName(axes) << ") " << tensor;
  if (count > 1) os << " x" << count;
  if (attention_side) os << " [attn]";
  return os.str();
}

namespace {

// The attention projections' activation collectives fuse into the FFN's
// F-side group in a parallel block (§3.4); tag them so lowering can tell.
bool AttentionSide(const OpNode& op) {
  return op.in_dim == "heads" || op.out_dim == "heads";
}

}  // namespace

PropagatedBlock Propagate(const BlockGraph& graph) {
  PropagatedBlock out;
  out.graph = graph;
  const Torus3D& mesh = graph.assignment.mesh;
  // Axes the mesh actually extends along; collectives over the rest are
  // no-ops and must not be inserted.
  unsigned live = kAxisNone;
  if (mesh.x() > 1) live |= kAxisX;
  if (mesh.y() > 1) live |= kAxisY;
  if (mesh.z() > 1) live |= kAxisZ;

  out.specs.resize(graph.ops.size());
  for (size_t i = 0; i < graph.ops.size(); ++i) {
    const OpNode& op = graph.ops[i];
    switch (op.kind) {
      case OpKind::kInput: {
        ShardSpec in = graph.assignment.InputSpec();
        for (DimShard& d : in.dims) d.axes &= live;
        in.Validate(mesh);
        out.specs[i] = in;
        break;
      }
      case OpKind::kNorm: {
        const ShardSpec& in = out.specs[op.inputs[0]];
        // The moment exchange is folded into per-layer overhead
        // (SystemModel::per_layer_overhead); a pending partial here would
        // mean a producer's reduction was never resolved.
        TSI_CHECK_EQ(in.partial, kAxisNone)
            << op.name << " consumes unresolved partial " << in.ToString();
        out.specs[i] = in;
        break;
      }
      case OpKind::kMatmul: {
        ShardSpec in = out.specs[op.inputs[0]];
        TSI_CHECK_EQ(in.partial, kAxisNone)
            << op.name << " consumes unresolved partial " << in.ToString();
        const unsigned w_in = op.w_in_axes & ~op.gather_axes & live;
        const unsigned w_out = op.w_out_axes & ~op.gather_axes & live;
        const unsigned gather = op.gather_axes & live;
        if (gather != kAxisNone) {
          out.collectives.push_back({CollectiveKind::kWeightGather, gather,
                                     static_cast<int>(i), op.name + ".w",
                                     op.n_matrices, AttentionSide(op)});
        }
        // Input sharded over axes the (post-gather) weight does not share:
        // gather exactly the missing axes.
        const unsigned in_axes = in.AxesOf(op.in_dim) & live;
        const unsigned missing = in_axes & ~w_in;
        if (missing != kAxisNone) {
          out.collectives.push_back({CollectiveKind::kAllGather, missing,
                                     static_cast<int>(i), op.name + ".in", 1,
                                     AttentionSide(op)});
          in.SetAxes(op.in_dim, in_axes & ~missing);
        }
        // Contracting a weight-sharded dimension yields partial sums over
        // those axes; the consumer decides how to resolve them.
        ShardSpec result;
        for (const DimShard& d : in.dims)
          if (d.name != op.in_dim) result.dims.push_back(d);
        result.dims.push_back({op.out_dim, w_out});
        result.partial = w_in;
        result.Validate(mesh);
        out.specs[i] = result;
        break;
      }
      case OpKind::kActivation: {
        ShardSpec in = out.specs[op.inputs[0]];
        if (in.partial != kAxisNone) {
          // Resolve into the produced feature dim (§3.5): each fused
          // matrix's partial reduce-scatters separately.
          const OpNode& producer = graph.ops[op.inputs[0]];
          out.collectives.push_back({CollectiveKind::kReduceScatter,
                                     in.partial, static_cast<int>(i),
                                     producer.out_dim, producer.n_matrices,
                                     false});
          in.SetAxes(producer.out_dim,
                     in.AxesOf(producer.out_dim) | in.partial);
          in.partial = kAxisNone;
        }
        in.Validate(mesh);
        out.specs[i] = in;
        break;
      }
      case OpKind::kAttention: {
        ShardSpec in = out.specs[op.inputs[0]];
        if (in.partial != kAxisNone) {
          out.collectives.push_back({CollectiveKind::kReduceScatter,
                                     in.partial, static_cast<int>(i), "heads",
                                     1, true});
          in.SetAxes("heads", in.AxesOf("heads") | in.partial);
          in.partial = kAxisNone;
        }
        // Tokens sharded over x by a layer whole over x (site 4) still
        // need the yz reshard; tokens sharded over every axis by an FFN
        // whole over yz (site 5) need none.
        const unsigned rows = graph.assignment.RowAxes();
        if (graph.assignment.attn == AttnSharding::kBatch &&
            (in.AxesOf("tokens") & live & ~rows) == kAxisNone &&
            (live & ~rows) != kAxisNone) {
          // Head-sharded projections entering batch-sharded attention:
          // all-to-all tokens<->heads on the way in and back out (Fig 5b).
          // Weight-gathered layouts arrive with tokens already sharded and
          // skip both; replicated q/k/v columns hold every head, so the way
          // in is a local row slice, and replicated wo rows project every
          // head on the row's owner, whose side terms ride the residual
          // all-reduce instead of the way out. Net of the pair the spec is
          // unchanged.
          if (!graph.assignment.qkv_replicated)
            out.collectives.push_back({CollectiveKind::kAllToAll, live,
                                       static_cast<int>(i), "q/k/v", 1,
                                       true});
          if (!graph.assignment.wo_replicated)
            out.collectives.push_back({CollectiveKind::kAllToAll, live,
                                       static_cast<int>(i), "attn.ctx", 1,
                                       true});
        }
        in.Validate(mesh);
        out.specs[i] = in;
        break;
      }
      case OpKind::kResidual: {
        // Branches must agree on layout; their partials merge and resolve
        // with one all-reduce (reduce-scatter + all-gather, 2 alphas).
        ShardSpec result = out.specs[op.inputs[0]];
        for (size_t j = 1; j < op.inputs.size(); ++j) {
          const ShardSpec& branch = out.specs[op.inputs[j]];
          TSI_CHECK(branch.dims == result.dims)
              << op.name << " branch layouts differ: " << result.ToString()
              << " vs " << branch.ToString();
          result.partial |= branch.partial;
        }
        if (result.partial != kAxisNone) {
          out.collectives.push_back({CollectiveKind::kAllReduce,
                                     result.partial, static_cast<int>(i),
                                     op.name, 2, false});
          result.partial = kAxisNone;
        }
        result.Validate(mesh);
        out.specs[i] = result;
        break;
      }
    }
  }
  // Blocks stack: layer output must re-enter the next layer unchanged.
  TSI_CHECK(out.output_spec() == out.specs[0])
      << "block output " << out.output_spec().ToString()
      << " does not match its input " << out.specs[0].ToString();
  return out;
}

}  // namespace plan
}  // namespace tsi
