#include "core/block_cost.h"

#include <algorithm>

#include "comm/cost.h"
#include "core/attn_cost.h"
#include "core/ffn_cost.h"
#include "core/replication.h"
#include "util/logging.h"

namespace tsi {

double UnhiddenCollectiveTime(const CommCostModel& cm, const SystemModel& sys,
                              double bytes, int k, int n_collectives) {
  if (k <= 1 || n_collectives == 0) return 0.0;
  double bw_time = bytes / cm.network_bw * cm.Factor(k);
  return n_collectives * cm.Alpha(k) + bw_time * (1.0 - sys.overlap_fraction);
}

namespace {

// K/V projection columns per chip: K/V heads shard over yz when they divide
// evenly (multihead, wide grouped-query); otherwise they replicate
// (multiquery, narrow grouped-query).
double KvProjCols(const ModelConfig& config, const Torus3D& mesh) {
  const double KV = static_cast<double>(config.n_kv_heads());
  const double dh = static_cast<double>(config.d_head);
  const int YZ = mesh.y() * mesh.z();
  const bool kv_replicated = config.n_kv_heads() % YZ != 0;
  return kv_replicated ? 2.0 * KV * dh : 2.0 * KV * dh / YZ;
}

}  // namespace

double AttnFSideBytes(const ModelConfig& config, const Torus3D& mesh,
                      double batch_tokens, double act_bytes,
                      bool qkv_replicated) {
  const double H = static_cast<double>(config.n_heads);
  const double dh = static_cast<double>(config.d_head);
  const int YZ = mesh.y() * mesh.z();
  if (qkv_replicated) {
    const double KV = static_cast<double>(config.n_kv_heads());
    return 2.0 * batch_tokens * (H * dh + 2.0 * KV * dh) * act_bytes;
  }
  return 2.0 * batch_tokens * (H * dh / YZ + KvProjCols(config, mesh)) *
         act_bytes;
}

double WoSideBytes(const ModelConfig& config, const Torus3D& mesh,
                   double batch_tokens, double act_bytes) {
  if (!config.parallel_block) return 0.0;
  const int YZ = mesh.y() * mesh.z();
  return batch_tokens * (1.0 - 1.0 / YZ) *
         (static_cast<double>(config.d_model) / mesh.x()) * act_bytes;
}

double AttnAllToAllBytes(const ModelConfig& config, const Torus3D& mesh,
                         double batch_tokens, double act_bytes,
                         bool include_kv) {
  const double H = static_cast<double>(config.n_heads);
  const double dh = static_cast<double>(config.d_head);
  const int YZ = mesh.y() * mesh.z();
  if (include_kv)
    return batch_tokens * (H * dh / YZ + KvProjCols(config, mesh)) * act_bytes;
  return batch_tokens * (H * dh / YZ) * act_bytes;
}

CostBreakdown LayerComputeMemoryCost(const ModelConfig& config,
                                     const PartitionSpec& spec,
                                     const ChipSpec& chip,
                                     const SystemModel& sys, Phase phase,
                                     double B, double L, double context,
                                     const Replication& rep) {
  TSI_CHECK_GE(context, L);
  const double E = static_cast<double>(config.d_model);
  const double F = static_cast<double>(config.d_ff);
  const double H = static_cast<double>(config.n_heads);
  const double KV = static_cast<double>(config.n_kv_heads());
  const double dh = static_cast<double>(config.d_head);
  const int n = spec.num_chips();
  const double BL = B * L;
  const double wb = WeightBytes(spec.weight_format);
  // int8 activations double the matmul issue rate (§3.6 projection); the
  // attention dot products and KV cache stay bf16.
  const double act_speedup = spec.activations == WeightFormat::kInt8 ? 2.0 : 1.0;
  const int in_proj = config.gated_ffn ? 2 : 1;
  const int N = WeightGatherWidth(spec.ffn, spec.mesh);
  const bool weight_gathered = N > 1;

  CostBreakdown out;

  // --- Compute -------------------------------------------------------------
  // Rows per chip of the main matmuls sets the small-batch efficiency
  // rolloff: weight-stationary layouts see the full token batch on every
  // chip (its x slice under site 4, its own group's under site 5);
  // weight-gathered layouts shard the batch N ways.
  const double rows_per_chip = weight_gathered ? BL / N
                               : rep.ffn       ? BL / n
                               : rep.x         ? BL / spec.mesh.x()
                                               : BL;
  const double ffn_flops = 2.0 * BL * (in_proj + 1.0) * E * F / n;
  const double attn_proj_params = 2.0 * E * H * dh + 2.0 * E * KV * dh;
  const double proj_flops = 2.0 * BL * attn_proj_params / n;
  // Replicated q/k/v columns (core/replication.h): every chip also projects
  // through, and streams, the other yz ranks' columns. Replicated wo rows
  // only stream: the flops per chip are unchanged. So does a layer whole
  // over x: each chip runs 1/X of the rows through X times the weights;
  // and an FFN whole over yz: each chip runs only its own rows through the
  // whole layer, so each row is projected once and site 1's extra q/k/v
  // flops go too.
  const double qkv_params =
      rep.qkv ? QkvReplicaParams(config, spec.mesh) : 0.0;
  const double replica_params =
      qkv_params + (rep.wo ? WoReplicaParams(config, spec.mesh) : 0.0) +
      (rep.x ? XReplicaParams(config, spec.mesh, rep) : 0.0) +
      (rep.ffn ? FfnYzReplicaParams(config, spec.mesh) : 0.0);
  const double qkv_extra_flops = rep.ffn ? 0.0 : 2.0 * BL * qkv_params;
  out.compute += (ffn_flops + proj_flops + qkv_extra_flops) /
                 (chip.peak_flops * act_speedup * sys.MatmulEff(rows_per_chip));

  // Attention dot products (QK^T and AV): pairs per sequence for L new
  // queries against `context` cached positions, causal within the new block.
  const double pairs = B * (L * context - L * (L - 1.0) / 2.0);
  const double attn_dot_flops = 2.0 /*matmuls*/ * 2.0 * H * dh * pairs;
  const double attn_div = AttnShardDivisor(config, spec.attn, n, B);
  out.compute += attn_dot_flops / (attn_div * chip.peak_flops * sys.matmul_peak_frac);

  // --- Memory --------------------------------------------------------------
  const double hbm = chip.hbm_bw * sys.hbm_frac;
  out.weight_memory = static_cast<double>(config.ParamsPerLayer()) * wb / n / hbm +
                      replica_params * wb / hbm;
  // The attention step streams this layer's per-chip K/V cache once.
  const double kv_bytes =
      KvCacheBytesPerChip(config, spec.attn, n, B, context,
                          ActivationBytes(spec.kv_format)) /
      config.num_layers;
  out.kv_memory = kv_bytes / hbm;

  // --- Fixed overhead -------------------------------------------------------
  // Serial blocks run two norms and two dependent op sequences per layer.
  out.overhead = sys.per_layer_overhead * (config.parallel_block ? 1.0 : 1.5);

  (void)phase;  // phase is implied by (L, context); kept for call-site clarity
  return out;
}

CostBreakdown LayerCost(const ModelConfig& config, const PartitionSpec& spec,
                        const ChipSpec& chip, const SystemModel& sys,
                        Phase phase, double B, double L, double context) {
  const Replication rep =
      ChooseReplication(config, spec, chip, sys.hop_latency);
  CostBreakdown out = LayerComputeMemoryCost(config, spec, chip, sys, phase, B,
                                             L, context, rep);

  const int n = spec.num_chips();
  const int X = spec.mesh.x();
  const int YZ = spec.mesh.y() * spec.mesh.z();
  const double BL = B * L;
  const double act = ActivationBytes(spec.activations);
  const double wb = WeightBytes(spec.weight_format);
  const int in_proj = config.gated_ffn ? 2 : 1;
  const int N = WeightGatherWidth(spec.ffn, spec.mesh);
  const bool weight_gathered = N > 1;

  // --- Communication -------------------------------------------------------
  CommCostModel cm{chip.network_bw, sys.hop_latency, /*exact=*/true};
  // Bandwidth time may be hidden under matmuls by Looped CollectiveEinsum;
  // the per-hop alpha latency never is.
  auto unhidden = [&](double bytes, int k, int n_collectives) {
    return UnhiddenCollectiveTime(cm, sys, bytes, k, n_collectives);
  };

  FfnCommVolume ffn_vol = FfnCommVolumePerChip(
      config.d_model, config.d_ff, in_proj, spec.mesh, spec.ffn, BL, wb, act);

  if (!weight_gathered) {
    // F-side collectives over x (reduce-scatter per input projection +
    // all-gather of the activated result). Attention Q/K/V projections fuse
    // into the same collectives (§3.4) in a parallel block; a serial block
    // issues them separately (extra alphas, same volume).
    // A layer whole over x (site 4) has none: x carries the rows.
    if (X > 1 && !rep.x) {
      double attn_f_bytes = AttnFSideBytes(config, spec.mesh, BL, act, rep.qkv);
      int f_count = (in_proj + 1) + (config.parallel_block ? 0 : 2);
      out.comm += unhidden(ffn_vol.act_f_bytes + attn_f_bytes, X, f_count);
    }
    // E-side pair(s) over yz: one rs+ag pair shared by attention and FFN
    // outputs in a parallel block, two pairs in a serial block. Site 3's
    // side terms ride the yz exchange: bandwidth only, no alpha. An FFN
    // whole over yz (site 5) has neither: every chip holds its rows whole.
    if (!rep.ffn) {
      int e_pairs = config.parallel_block ? 1 : 2;
      out.comm += unhidden(ffn_vol.act_e_bytes * e_pairs, YZ, 2 * e_pairs);
      if (rep.wo)
        out.comm += WoSideBytes(config, spec.mesh, BL, act) / cm.network_bw *
                    (1.0 - sys.overlap_fraction);
    }
  } else {
    // Weight-gathered: gather ALL of this layer's weights (attention
    // projections match the FFN layout, §3.3).
    double gather_bytes = static_cast<double>(config.ParamsPerLayer()) * wb *
                          static_cast<double>(N) / n;
    out.comm += unhidden(gather_bytes, N, 1);
    // Residual E-side partial sums over the ungathered axes.
    int k_e = 1;
    if (spec.ffn == FfnLayout::kWGX) k_e = YZ;
    if (spec.ffn == FfnLayout::kWGXY) k_e = spec.mesh.z();
    if (k_e > 1) {
      int e_pairs = config.parallel_block ? 1 : 2;
      out.comm += unhidden(ffn_vol.act_e_bytes * e_pairs, k_e, 2 * e_pairs);
    }
  }

  // Batch-sharded attention entered from a weight-stationary layout needs an
  // all-to-all to reshard Q/K/V from heads to batch and one to shard the
  // attention output back (§3.3, Fig 5b). Weight-gathered layouts are
  // already batch-sharded, so no reshard is needed; replicated q/k/v
  // columns make the inbound one a local slice, replicated wo rows the
  // outbound one a side term of the yz all-reduce. A chip that holds every
  // head of its own rows -- a layer whole over x on a mesh without a yz
  // axis, or the FFN whole over yz (site 5) -- has nothing to reshard.
  const bool rows_whole = rep.ffn || (rep.x && YZ == 1);
  if (spec.attn == AttnSharding::kBatch && !weight_gathered && !rows_whole) {
    double a2a = 0.0;
    if (!rep.wo) {
      double a2a_out = AttnAllToAllBytes(config, spec.mesh, BL, act, false);
      a2a = cm.AllToAllTime(a2a_out, n);
    }
    if (!rep.qkv) {
      double a2a_in = AttnAllToAllBytes(config, spec.mesh, BL, act, true);
      a2a = cm.AllToAllTime(a2a_in, n) + a2a;
    }
    out.comm += a2a;
  }

  return out;
}

}  // namespace tsi
