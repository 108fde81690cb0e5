#include "plan/lower.h"

#include <sstream>

#include "core/ffn_cost.h"
#include "core/replication.h"
#include "util/logging.h"

namespace tsi {
namespace plan {

std::string LoweredPlan::ScheduleToString() const {
  std::ostringstream os;
  for (const InsertedCollective& c : block.collectives) {
    os << "  " << block.graph.ops[c.op].name << ": " << c.ToString() << "\n";
  }
  return os.str();
}

LoweredPlan LowerBlock(const PropagatedBlock& block) {
  const ShardingAssignment& a = block.graph.assignment;
  const Torus3D& mesh = a.mesh;
  unsigned live = kAxisNone;
  if (mesh.x() > 1) live |= kAxisX;
  if (mesh.y() > 1) live |= kAxisY;
  if (mesh.z() > 1) live |= kAxisZ;

  TSI_CHECK((a.e_axes & ~kAxisX & live) == kAxisNone)
      << "no PartitionSpec equivalent: E sharded off x in " << a.ToString();
  TSI_CHECK((a.f_axes & ~(kAxisY | kAxisZ) & live) == kAxisNone)
      << "no PartitionSpec equivalent: F sharded off yz in " << a.ToString();

  LoweredPlan plan;
  plan.block = block;
  plan.spec.mesh = mesh;
  plan.spec.attn = a.attn;
  plan.spec.weight_format = a.weight_format;
  plan.spec.activations = a.activations;
  plan.spec.kv_format = a.kv_format;
  plan.spec.kv_page_size = a.kv_page_size;

  // Recover the FFN layout enum: the smallest gather set whose live axes
  // match (degenerate mesh axes gather for free, so e.g. gather(x) on an
  // x-only mesh lowers to WG-X, not WG-XYZ).
  const unsigned gather = a.gather_axes & live;
  if (gather == kAxisNone) {
    plan.spec.ffn = mesh.x() > 1 ? FfnLayout::kWS2D : FfnLayout::kWS1D;
  } else if (gather == (kAxisX & live)) {
    plan.spec.ffn = FfnLayout::kWGX;
  } else if (gather == (kAxisXY & live)) {
    plan.spec.ffn = FfnLayout::kWGXY;
  } else if (gather == (kAxisXYZ & live)) {
    plan.spec.ffn = FfnLayout::kWGXYZ;
  } else {
    TSI_CHECK(false) << "no PartitionSpec equivalent: gather over "
                     << AxisName(gather) << " in " << a.ToString();
  }

  for (const InsertedCollective& c : block.collectives) {
    switch (c.kind) {
      case CollectiveKind::kWeightGather:
        plan.weight_gathered = true;
        plan.gather_axes |= c.axes;
        break;
      case CollectiveKind::kAllToAll:
        plan.a2a_count += c.count;
        break;
      case CollectiveKind::kAllReduce:
        plan.e_allreduces += 1;
        plan.e_axes |= c.axes;
        break;
      case CollectiveKind::kAllGather:
      case CollectiveKind::kReduceScatter:
        // Attention-side entries fuse into the FFN's collectives in a
        // parallel block (§3.4): same bytes, no extra alpha.
        plan.f_axes |= c.axes;
        if (!(c.attention_side && block.graph.parallel))
          plan.f_collectives += c.count;
        break;
    }
  }
  return plan;
}

LoweredPlan LowerSpec(const ModelConfig& config, const PartitionSpec& spec,
                      const ChipSpec& chip, double hop_latency) {
  const Replication rep = ChooseReplication(config, spec, chip, hop_latency);
  return LowerBlock(
      Propagate(BuildBlockGraph(config, CanonicalAssignment(spec, rep))));
}

CostBreakdown PriceBlock(const LoweredPlan& plan, const ChipSpec& chip,
                         const SystemModel& sys, Phase phase, double B,
                         double L, double context) {
  const ModelConfig& config = plan.block.graph.config;
  const PartitionSpec& spec = plan.spec;
  const Torus3D& mesh = spec.mesh;
  const ShardingAssignment& a = plan.block.graph.assignment;
  const Replication rep{a.qkv_replicated, /*logit_head=*/false,
                        a.wo_replicated, a.x_replicated, a.ffn_replicated};
  CostBreakdown out = LayerComputeMemoryCost(config, spec, chip, sys, phase, B,
                                             L, context, rep);

  const int n = spec.num_chips();
  const double BL = B * L;
  const double act = ActivationBytes(spec.activations);
  const double wb = WeightBytes(spec.weight_format);
  const int in_proj = config.gated_ffn ? 2 : 1;

  CommCostModel cm{chip.network_bw, sys.hop_latency, /*exact=*/true};
  FfnCommVolume ffn_vol = FfnCommVolumePerChip(
      config.d_model, config.d_ff, in_proj, mesh, spec.ffn, BL, wb, act);

  if (!plan.weight_gathered) {
    if (plan.f_collectives > 0) {
      double attn_f_bytes =
          AttnFSideBytes(config, mesh, BL, act, rep.qkv);
      out.comm += UnhiddenCollectiveTime(
          cm, sys, ffn_vol.act_f_bytes + attn_f_bytes,
          mesh.GroupSize(plan.f_axes), plan.f_collectives);
    }
    if (plan.e_allreduces > 0) {
      int e_pairs = plan.e_allreduces;
      out.comm += UnhiddenCollectiveTime(cm, sys,
                                         ffn_vol.act_e_bytes * e_pairs,
                                         mesh.GroupSize(plan.e_axes),
                                         2 * e_pairs);
    }
    if (rep.wo && !rep.ffn)
      out.comm += WoSideBytes(config, mesh, BL, act) / cm.network_bw *
                  (1.0 - sys.overlap_fraction);
  } else {
    const int N = mesh.GroupSize(plan.gather_axes);
    double gather_bytes = static_cast<double>(config.ParamsPerLayer()) * wb *
                          static_cast<double>(N) / n;
    out.comm += UnhiddenCollectiveTime(cm, sys, gather_bytes, N, 1);
    if (plan.e_allreduces > 0) {
      int e_pairs = plan.e_allreduces;
      out.comm += UnhiddenCollectiveTime(cm, sys,
                                         ffn_vol.act_e_bytes * e_pairs,
                                         mesh.GroupSize(plan.e_axes),
                                         2 * e_pairs);
    }
  }

  if (plan.a2a_count > 0) {
    // The outbound all-to-all runs unless wo's rows are replicated, the
    // inbound one unless the q/k/v columns are.
    double a2a = 0.0;
    if (!rep.wo) {
      double a2a_out = AttnAllToAllBytes(config, mesh, BL, act, false);
      a2a = cm.AllToAllTime(a2a_out, n);
    }
    if (!rep.qkv) {
      double a2a_in = AttnAllToAllBytes(config, mesh, BL, act, true);
      a2a = cm.AllToAllTime(a2a_in, n) + a2a;
    }
    out.comm += a2a;
  }
  return out;
}

}  // namespace plan
}  // namespace tsi
