#include "plan/graph.h"

#include <sstream>

#include "util/logging.h"

namespace tsi {
namespace plan {

unsigned ShardingAssignment::RowAxes() const {
  return (x_replicated ? e_axes : kAxisNone) |
         (ffn_replicated ? f_axes : kAxisNone);
}

ShardSpec ShardingAssignment::InputSpec() const {
  if (gather_axes != kAxisNone) {
    return Spec({{"tokens", gather_axes}, {"E", EffectiveEAxes()}});
  }
  if (x_replicated || ffn_replicated)
    return Spec({{"tokens", RowAxes()}, {"E", kAxisNone}});
  return Spec({{"tokens", kAxisNone}, {"E", e_axes}});
}

std::string ShardingAssignment::ToString() const {
  std::ostringstream os;
  os << "E." << AxisName(e_axes) << " F." << AxisName(f_axes);
  if (gather_axes != kAxisNone) os << " gather." << AxisName(gather_axes);
  if (qkv_replicated) os << " qkv.replicated";
  if (wo_replicated) os << " wo.replicated";
  if (x_replicated) os << " x.replicated";
  if (ffn_replicated) os << " ffn.replicated";
  os << " attn=" << tsi::ToString(attn) << " on " << mesh.ToString();
  return os.str();
}

ShardingAssignment CanonicalAssignment(const PartitionSpec& spec,
                                       const Replication& rep) {
  ShardingAssignment a;
  a.mesh = spec.mesh;
  a.e_axes = spec.mesh.x() > 1 ? kAxisX : kAxisNone;
  unsigned f = kAxisNone;
  if (spec.mesh.y() > 1) f |= kAxisY;
  if (spec.mesh.z() > 1) f |= kAxisZ;
  a.f_axes = f;
  switch (spec.ffn) {
    case FfnLayout::kWS1D:
      TSI_CHECK_EQ(spec.mesh.x(), 1) << "1D weight-stationary requires x == 1";
      break;
    case FfnLayout::kWS2D:
      break;
    case FfnLayout::kWGX:
      a.gather_axes = kAxisX;
      break;
    case FfnLayout::kWGXY:
      a.gather_axes = kAxisXY;
      break;
    case FfnLayout::kWGXYZ:
      a.gather_axes = kAxisXYZ;
      break;
  }
  // Gathering over an axis the mesh does not extend along is a no-op;
  // drop degenerate axes so equivalent assignments compare equal.
  unsigned degenerate = kAxisNone;
  if (spec.mesh.x() == 1) degenerate |= kAxisX;
  if (spec.mesh.y() == 1) degenerate |= kAxisY;
  if (spec.mesh.z() == 1) degenerate |= kAxisZ;
  a.gather_axes &= ~degenerate;
  a.attn = spec.attn;
  a.weight_format = spec.weight_format;
  a.activations = spec.activations;
  a.kv_format = spec.kv_format;
  a.kv_page_size = spec.kv_page_size;
  a.qkv_replicated = rep.qkv;
  a.wo_replicated = rep.wo;
  a.x_replicated = rep.x;
  a.ffn_replicated = rep.ffn;
  return a;
}

std::string ToString(OpKind kind) {
  switch (kind) {
    case OpKind::kInput: return "input";
    case OpKind::kNorm: return "norm";
    case OpKind::kMatmul: return "matmul";
    case OpKind::kAttention: return "sdpa";
    case OpKind::kActivation: return "act";
    case OpKind::kResidual: return "residual";
  }
  return "?";
}

namespace {

OpNode Matmul(std::string name, int input, std::string in_dim,
              std::string out_dim, unsigned w_in, unsigned w_out,
              unsigned gather, int n_matrices = 1) {
  OpNode op;
  op.kind = OpKind::kMatmul;
  op.name = std::move(name);
  op.inputs = {input};
  op.in_dim = std::move(in_dim);
  op.out_dim = std::move(out_dim);
  op.w_in_axes = w_in;
  op.w_out_axes = w_out;
  op.gather_axes = gather;
  op.n_matrices = n_matrices;
  return op;
}

OpNode Simple(OpKind kind, std::string name, std::vector<int> inputs) {
  OpNode op;
  op.kind = kind;
  op.name = std::move(name);
  op.inputs = std::move(inputs);
  return op;
}

}  // namespace

BlockGraph BuildBlockGraph(const ModelConfig& config,
                           const ShardingAssignment& a) {
  BlockGraph g;
  g.config = config;
  g.assignment = a;
  g.parallel = config.parallel_block;
  // Site 5 keeps wo's heads and the FFN's F whole (and E is whole too:
  // site 4, or no x axis), so every matmul's weight is local.
  const unsigned E = a.x_replicated ? kAxisNone : a.e_axes;
  const unsigned F = a.ffn_replicated ? kAxisNone : a.f_axes;
  const unsigned G = a.gather_axes;
  const unsigned QKV = a.qkv_replicated ? kAxisNone : F;  // heads columns
  const int in_proj = config.gated_ffn ? 2 : 1;

  if (g.parallel) {
    g.ops.push_back(Simple(OpKind::kInput, "x", {}));                   // 0
    g.ops.push_back(Simple(OpKind::kNorm, "norm", {0}));                // 1
    g.ops.push_back(Matmul("qkv", 1, "E", "heads", E, QKV, G));         // 2
    g.ops.push_back(Simple(OpKind::kAttention, "sdpa", {2}));           // 3
    g.ops.push_back(Matmul("attn_out", 3, "heads", "E", F, E, G));      // 4
    g.ops.push_back(Matmul("ffn_in", 1, "E", "F", E, F, G, in_proj));   // 5
    g.ops.push_back(Simple(OpKind::kActivation, "act", {5}));           // 6
    g.ops.push_back(Matmul("ffn_out", 6, "F", "E", F, E, G));           // 7
    g.ops.push_back(Simple(OpKind::kResidual, "out", {0, 4, 7}));       // 8
  } else {
    g.ops.push_back(Simple(OpKind::kInput, "x", {}));                   // 0
    g.ops.push_back(Simple(OpKind::kNorm, "norm1", {0}));               // 1
    g.ops.push_back(Matmul("qkv", 1, "E", "heads", E, QKV, G));         // 2
    g.ops.push_back(Simple(OpKind::kAttention, "sdpa", {2}));           // 3
    g.ops.push_back(Matmul("attn_out", 3, "heads", "E", F, E, G));      // 4
    g.ops.push_back(Simple(OpKind::kResidual, "res1", {0, 4}));         // 5
    g.ops.push_back(Simple(OpKind::kNorm, "norm2", {5}));               // 6
    g.ops.push_back(Matmul("ffn_in", 6, "E", "F", E, F, G, in_proj));   // 7
    g.ops.push_back(Simple(OpKind::kActivation, "act", {7}));           // 8
    g.ops.push_back(Matmul("ffn_out", 8, "F", "E", F, E, G));           // 9
    g.ops.push_back(Simple(OpKind::kResidual, "out", {5, 9}));          // 10
  }
  return g;
}

}  // namespace plan
}  // namespace tsi
