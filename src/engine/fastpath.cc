#include "engine/fastpath.h"

#include <sstream>

#include "util/logging.h"

namespace tsi {

std::string ToString(FastPathPrecision precision) {
  switch (precision) {
    case FastPathPrecision::kFp32: return "fp32";
    case FastPathPrecision::kInt8: return "int8";
  }
  return "?";
}

std::string ToString(OpKind kind) {
  switch (kind) {
    case OpKind::kNormStats: return "norm_stats";
    case OpKind::kNormApply: return "norm_apply";
    case OpKind::kMatMul: return "matmul";
    case OpKind::kBiasAdd: return "bias_add";
    case OpKind::kActivation: return "activation";
    case OpKind::kResidualAdd: return "residual_add";
    case OpKind::kQuantize: return "quantize";
    case OpKind::kSdpa: return "sdpa";
    case OpKind::kComm: return "comm";
    case OpKind::kBlockSum: return "block_sum";
  }
  return "?";
}

int BlockGraph::IndexOf(const std::string& tag) const {
  for (size_t i = 0; i < ops.size(); ++i)
    if (ops[i].tag == tag) return static_cast<int>(i);
  return -1;
}

const OpNode* BlockGraph::Find(const std::string& tag) const {
  const int i = IndexOf(tag);
  return i < 0 ? nullptr : &ops[static_cast<size_t>(i)];
}

int BlockGraph::NumFused() const {
  int n = 0;
  for (const OpNode& op : ops)
    if (op.fused_into >= 0) ++n;
  return n;
}

namespace {

bool IsWeightGathered(FfnLayout ffn) {
  return ffn == FfnLayout::kWGX || ffn == FfnLayout::kWGXY ||
         ffn == FfnLayout::kWGXYZ;
}

struct Builder {
  BlockGraph g;

  void Add(OpKind kind, std::string tag, std::vector<std::string> inputs) {
    g.ops.push_back(OpNode{kind, std::move(tag), std::move(inputs), -1});
  }

  // LayerNorm site: local stats when the row is whole on-chip, an extra
  // moments collective when d_model is split over x (the engine's
  // RowMoments + AllReduce + NormalizeWithMoments sequence). Returns the
  // normed-activation tag.
  std::string AddNorm(const std::string& prefix, const std::string& src,
                      int x) {
    Add(OpKind::kNormStats, prefix + "_stats", {src});
    std::string moments = prefix + "_stats";
    if (x > 1) {
      Add(OpKind::kComm, prefix + "_moments", {moments});
      moments = prefix + "_moments";
    }
    Add(OpKind::kNormApply, prefix, {src, moments});
    return prefix;
  }

  std::string AddQuant(const std::string& tag, const std::string& src) {
    Add(OpKind::kQuantize, tag, {src});
    return tag;
  }
};

// Weight-stationary block (kWS1D/kWS2D): activations flow through the fixed
// weight shards; x splits d_model (partial-sum reductions), yz splits heads
// and d_ff (the per-branch or per-block allreduce).
// `x` is the extent of the x collectives (1 when the layer is whole over
// x) and `x_blocks` whether the chip sums the x ranks' E-block partials
// itself.
void AddWsAttn(Builder* b, const std::string& proj_in, AttnSharding attn,
               int x, bool x_blocks, int yz, bool int8,
               const Replication& replication) {
  b->Add(OpKind::kMatMul, "q", {proj_in});
  b->Add(OpKind::kMatMul, "k", {proj_in});
  b->Add(OpKind::kMatMul, "v", {proj_in});
  std::vector<std::string> qkv = {"q", "k", "v"};
  if (x > 1) {
    b->Add(OpKind::kComm, "qkv_allreduce", qkv);
    qkv = {"qkv_allreduce"};
  } else if (x_blocks) {
    b->Add(OpKind::kBlockSum, "qkv_block_sum", qkv);
    qkv = {"qkv_block_sum"};
  }
  // Replicated q/k/v columns split their rows locally
  // (core/replication.h): no inbound reshard.
  if (attn == AttnSharding::kBatch && yz > 1 && !replication.qkv) {
    b->Add(OpKind::kComm, "attn_reshard", qkv);
    qkv = {"attn_reshard"};
  }
  b->Add(OpKind::kSdpa, "attn", qkv);
  std::string wo_in = "attn";
  // Replicated wo rows keep the rows on their owner (every head), so only
  // the all-gather(x) of those rows stands between attention and wo.
  if (attn == AttnSharding::kBatch && yz > 1 && !replication.wo) {
    b->Add(OpKind::kComm, "attn_unshard", {wo_in});
    wo_in = "attn_unshard";
  } else if (attn == AttnSharding::kBatch && yz > 1 && x > 1) {
    b->Add(OpKind::kComm, "attn_gather", {wo_in});
    wo_in = "attn_gather";
  }
  if (int8) wo_in = b->AddQuant("attn_quant", wo_in);
  b->Add(OpKind::kMatMul, "wo", {wo_in});
}

void AddWsFfn(Builder* b, const std::string& proj_in,
              const std::string& norm_tag, bool gated, int x, bool x_blocks,
              bool fuse_collectives, bool int8) {
  std::vector<std::string> hidden;
  if (fuse_collectives && x > 1) {
    // Matmul + reduce-scatter run as one fused collective; the node is a
    // comm (and a fusion barrier) because it ends in chip synchronization.
    b->Add(OpKind::kComm, "ffn_in", {norm_tag});
    hidden = {"ffn_in"};
    if (gated) {
      b->Add(OpKind::kComm, "ffn_gate", {norm_tag});
      hidden.push_back("ffn_gate");
    }
  } else {
    b->Add(OpKind::kMatMul, "ffn_in", {proj_in});
    hidden = {"ffn_in"};
    if (gated) {
      b->Add(OpKind::kMatMul, "ffn_gate", {proj_in});
      hidden.push_back("ffn_gate");
    }
    if (x > 1) {
      b->Add(OpKind::kComm, "ffn_rs", hidden);
      hidden = {"ffn_rs"};
    } else if (x_blocks) {
      b->Add(OpKind::kBlockSum, "ffn_block_sum", hidden);
      hidden = {"ffn_block_sum"};
    }
  }
  b->Add(OpKind::kActivation, "ffn_act", hidden);
  std::string act = "ffn_act";
  if (x > 1) {
    b->Add(OpKind::kComm, "ffn_ag", {act});
    act = "ffn_ag";
  }
  if (int8) act = b->AddQuant("act_quant", act);
  b->Add(OpKind::kMatMul, "ffn_out", {act});
}

BlockGraph BuildWs(const ModelConfig& config, AttnSharding attn, int x_mesh,
                   int yz, bool fuse_collectives, bool int8,
                   const Replication& replication) {
  Builder b;
  // Site 4 keeps every x rank's E block on the chip: no x collective, and
  // the contractions over E sum the blocks locally.
  const bool x_blocks = replication.x && x_mesh > 1;
  const int x = x_blocks ? 1 : x_mesh;
  if (config.parallel_block) {
    const std::string ln = b.AddNorm("ln", "x", x);
    const std::string proj_in = int8 ? b.AddQuant("ln_quant", ln) : ln;
    AddWsAttn(&b, proj_in, attn, x, x_blocks, yz, int8, replication);
    AddWsFfn(&b, proj_in, ln, config.gated_ffn, x, x_blocks, fuse_collectives,
             int8);
    std::string block_out;
    if (attn == AttnSharding::kBatch && yz > 1 && replication.wo) {
      b.Add(OpKind::kComm, "block_allreduce", {"wo", "ffn_out"});
      block_out = "block_allreduce";
    } else {
      b.Add(OpKind::kResidualAdd, "branch_sum", {"wo", "ffn_out"});
      block_out = "branch_sum";
      if (yz > 1) {
        b.Add(OpKind::kComm, "block_allreduce", {block_out});
        block_out = "block_allreduce";
      }
    }
    b.Add(OpKind::kResidualAdd, "residual", {"x", block_out});
  } else {
    const std::string ln = b.AddNorm("ln", "x", x);
    const std::string attn_in = int8 ? b.AddQuant("ln_quant", ln) : ln;
    AddWsAttn(&b, attn_in, attn, x, x_blocks, yz, int8, replication);
    std::string attn_out = "wo";
    if (yz > 1) {
      b.Add(OpKind::kComm, "attn_allreduce", {attn_out});
      attn_out = "attn_allreduce";
    }
    b.Add(OpKind::kResidualAdd, "attn_residual", {"x", attn_out});
    const std::string ln2 = b.AddNorm("ln2", "attn_residual", x);
    const std::string ffn_in = int8 ? b.AddQuant("ln2_quant", ln2) : ln2;
    AddWsFfn(&b, ffn_in, ln2, config.gated_ffn, x, x_blocks, fuse_collectives,
             int8);
    std::string ffn_out = "ffn_out";
    if (yz > 1) {
      b.Add(OpKind::kComm, "ffn_allreduce", {ffn_out});
      ffn_out = "ffn_allreduce";
    }
    b.Add(OpKind::kResidualAdd, "ffn_residual", {"attn_residual", ffn_out});
  }
  return std::move(b.g);
}

// Weight-gathered block (§3.2.3): the weights move, activations stay whole
// per chip, so every norm/matmul/residual is local -- the only collective is
// the weight prefetch. Compute stays fp32 (the int8 fast path narrows only
// the KV cache here), so no quantize nodes appear.
BlockGraph BuildWg(const ModelConfig& config) {
  Builder b;
  b.Add(OpKind::kComm, "wgather", {"w"});
  const std::string ln = b.AddNorm("ln", "x", /*x=*/1);
  b.Add(OpKind::kMatMul, "q", {ln, "wgather"});
  b.Add(OpKind::kMatMul, "k", {ln, "wgather"});
  b.Add(OpKind::kMatMul, "v", {ln, "wgather"});
  b.Add(OpKind::kSdpa, "attn", {"q", "k", "v"});
  b.Add(OpKind::kMatMul, "wo", {"attn", "wgather"});
  b.Add(OpKind::kResidualAdd, "attn_residual", {"x", "wo"});
  const std::string ffn_norm =
      config.parallel_block ? ln : b.AddNorm("ln2", "attn_residual", /*x=*/1);
  std::vector<std::string> hidden;
  b.Add(OpKind::kMatMul, "ffn_in", {ffn_norm, "wgather"});
  hidden = {"ffn_in"};
  if (config.gated_ffn) {
    b.Add(OpKind::kMatMul, "ffn_gate", {ffn_norm, "wgather"});
    hidden.push_back("ffn_gate");
  }
  b.Add(OpKind::kActivation, "ffn_act", hidden);
  b.Add(OpKind::kMatMul, "ffn_out", {"ffn_act", "wgather"});
  b.Add(OpKind::kResidualAdd, "ffn_residual", {"attn_residual", "ffn_out"});
  return std::move(b.g);
}

}  // namespace

BlockGraph BuildBlockGraph(const ModelConfig& config, FfnLayout ffn,
                           AttnSharding attn, int x, int yz,
                           bool fuse_collectives, FastPathPrecision precision,
                           const Replication& replication) {
  const bool int8 = precision == FastPathPrecision::kInt8;
  if (IsWeightGathered(ffn)) return BuildWg(config);
  // The int8 pipeline runs its own matmul kernels and never takes the fused
  // matmul-collective path, so its graph is built without it.
  return BuildWs(config, attn, x, yz, fuse_collectives && !int8, int8,
                 replication);
}

FusedPlan FuseBlockGraph(BlockGraph* graph, const FastPathConfig& config) {
  TSI_CHECK(graph != nullptr);
  FusedPlan plan;
  plan.int8 = config.int8();
  if (!config.fuse_ops) return plan;

  std::vector<OpNode>& ops = graph->ops;
  // An int8 matmul reads quantized activations; its epilogue is the
  // dequantizing writeback, so fp32-only fusions (activation epilogue, norm
  // prologue) do not apply to it. Residual accumulation does.
  auto is_int8_matmul = [&](const OpNode& n) {
    for (const std::string& in : n.inputs) {
      const OpNode* p = graph->Find(in);
      if (p != nullptr && p->kind == OpKind::kQuantize) return true;
    }
    return false;
  };

  for (size_t i = 0; i < ops.size(); ++i) {
    OpNode& n = ops[static_cast<size_t>(i)];
    switch (n.kind) {
      case OpKind::kMatMul: {
        // norm -> matmul prologue: the transform is applied while packing
        // the A panel, so the normed tensor is never materialized.
        if (is_int8_matmul(n)) break;
        for (const std::string& in : n.inputs) {
          const int pi = graph->IndexOf(in);
          if (pi < 0) continue;
          OpNode& p = ops[static_cast<size_t>(pi)];
          if (p.kind != OpKind::kNormApply) continue;
          if (n.tag == "q" || n.tag == "k" || n.tag == "v")
            plan.norm_into_attn = true;
          if (n.tag == "ffn_in" || n.tag == "ffn_gate")
            plan.norm_into_ffn = true;
          if (p.fused_into < 0) p.fused_into = static_cast<int>(i);
        }
        break;
      }
      case OpKind::kActivation: {
        // matmul -> activation epilogue (fp32 matmuls only).
        bool all_matmul = !n.inputs.empty();
        int first = -1;
        for (const std::string& in : n.inputs) {
          const int pi = graph->IndexOf(in);
          const OpNode* p = pi < 0 ? nullptr : &ops[static_cast<size_t>(pi)];
          if (p == nullptr || p->kind != OpKind::kMatMul ||
              is_int8_matmul(*p)) {
            all_matmul = false;
            break;
          }
          if (first < 0) first = pi;
        }
        if (all_matmul) {
          plan.act_epilogue = true;
          n.fused_into = first;
        }
        break;
      }
      case OpKind::kResidualAdd: {
        // matmul -> residual-add: fold into the last matmul feeding the sum
        // (c += a@b); a collective in between breaks the pattern.
        int last = -1;
        for (const std::string& in : n.inputs) {
          const int pi = graph->IndexOf(in);
          if (pi >= 0 && ops[static_cast<size_t>(pi)].kind == OpKind::kMatMul)
            last = pi;
        }
        if (last >= 0) {
          n.fused_into = last;
          const std::string& into = ops[static_cast<size_t>(last)].tag;
          if (into == "wo") plan.wo_accumulate = true;
          if (into == "ffn_out") plan.wout_accumulate = true;
        }
        break;
      }
      case OpKind::kQuantize: {
        // norm/activation -> quantize: the producing op emits int8 rows
        // directly instead of a materialized fp32 tensor.
        for (const std::string& in : n.inputs) {
          const int pi = graph->IndexOf(in);
          if (pi < 0) continue;
          const OpNode& p = ops[static_cast<size_t>(pi)];
          if (p.kind == OpKind::kNormApply) {
            plan.quantize_fused_norm = true;
            n.fused_into = pi;
          } else if (p.kind == OpKind::kActivation) {
            plan.quantize_fused_act = true;
            n.fused_into = pi;
          }
        }
        break;
      }
      default:
        break;
    }
  }
  plan.fused_ops_per_block = graph->NumFused();
  return plan;
}

std::string ToString(const FusedPlan& plan) {
  std::ostringstream os;
  os << (plan.int8 ? "int8" : "fp32");
  if (!plan.AnyFusion()) return os.str() + " unfused";
  if (plan.norm_into_attn) os << " +norm_into_attn";
  if (plan.norm_into_ffn) os << " +norm_into_ffn";
  if (plan.act_epilogue) os << " +act_epilogue";
  if (plan.wo_accumulate) os << " +wo_accumulate";
  if (plan.wout_accumulate) os << " +wout_accumulate";
  if (plan.quantize_fused_norm) os << " +quantize_fused_norm";
  if (plan.quantize_fused_act) os << " +quantize_fused_act";
  os << " (" << plan.fused_ops_per_block << " ops fused/block)";
  return os.str();
}

}  // namespace tsi
