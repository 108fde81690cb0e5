#include "core/replication.h"

#include <vector>

#include "comm/cost.h"

namespace tsi {
namespace {

// Extents of the mesh's axes that exceed 1, in axis order: the rings a
// collective over all of them runs (comm/cost.h).
std::vector<int> LiveAxes(const Torus3D& mesh) {
  std::vector<int> axes;
  for (int k : {mesh.x(), mesh.y(), mesh.z()})
    if (k > 1) axes.push_back(k);
  return axes;
}

bool KvShardsOverYz(const ModelConfig& config, int yz) {
  return config.n_kv_heads() % yz == 0;
}

}  // namespace

double QkvReplicaParams(const ModelConfig& config, const Torus3D& mesh) {
  const int YZ = mesh.y() * mesh.z();
  const double dh = static_cast<double>(config.d_head);
  double cols = static_cast<double>(config.n_heads) * dh;
  if (KvShardsOverYz(config, YZ))
    cols += 2.0 * static_cast<double>(config.n_kv_heads()) * dh;
  return static_cast<double>(config.d_model) / mesh.x() * cols *
         (1.0 - 1.0 / YZ);
}

double HeadReplicaParams(const ModelConfig& config, const Torus3D& mesh) {
  const double n = mesh.num_chips();
  return static_cast<double>(config.d_model) *
         static_cast<double>(config.vocab_size) * (1.0 - 1.0 / n);
}

double WoReplicaParams(const ModelConfig& config, const Torus3D& mesh) {
  const int YZ = mesh.y() * mesh.z();
  return static_cast<double>(config.d_model) / mesh.x() *
         static_cast<double>(config.n_heads) *
         static_cast<double>(config.d_head) * (1.0 - 1.0 / YZ);
}

double XReplicaParams(const ModelConfig& config, const Torus3D& mesh,
                      const Replication& rep) {
  double shard = static_cast<double>(config.ParamsPerLayer()) /
                 mesh.num_chips();
  if (rep.qkv) shard += QkvReplicaParams(config, mesh);
  if (rep.wo) shard += WoReplicaParams(config, mesh);
  return shard * (mesh.x() - 1);
}

double FfnYzReplicaParams(const ModelConfig& config, const Torus3D& mesh) {
  const int YZ = mesh.y() * mesh.z();
  const double matrices = config.gated_ffn ? 3.0 : 2.0;
  return matrices * static_cast<double>(config.d_model) *
         static_cast<double>(config.d_ff) * (1.0 - 1.0 / YZ);
}

Replication ChooseReplication(const ModelConfig& config,
                              const PartitionSpec& spec, const ChipSpec& chip,
                              double hop_latency) {
  Replication r;
  if (hop_latency <= 0 || WeightGatherWidth(spec.ffn, spec.mesh) > 1)
    return r;
  const CommCostModel cm{chip.network_bw, hop_latency, /*exact=*/true};
  const double wb = WeightBytes(spec.weight_format);
  const double act = ActivationBytes();
  const Torus3D& mesh = spec.mesh;
  const int YZ = mesh.y() * mesh.z();
  if (spec.attn == AttnSharding::kBatch && YZ > 1) {
    // The all-to-all(yz) into attention with one row per owner group: one
    // hop, each rank sending a row of its head shard's q columns (and K/V
    // columns when they shard; replicated K/V are sliced locally already).
    const double dh = static_cast<double>(config.d_head);
    double cols = static_cast<double>(config.n_heads) * dh / YZ;
    if (KvShardsOverYz(config, YZ))
      cols += 2.0 * static_cast<double>(config.n_kv_heads()) * dh / YZ;
    const double removed = cm.AllToAllTime(YZ * cols * act, YZ);
    r.qkv = chip.MemoryTime(QkvReplicaParams(config, mesh) * wb) < removed;
  }
  if (spec.attn == AttnSharding::kBatch && YZ == 2) {
    // The all-to-all(yz) out of attention with one row per owner group: one
    // hop, each rank sending a row of the other rank's heads.
    const double cols = static_cast<double>(config.n_heads) *
                        static_cast<double>(config.d_head) / YZ;
    const double removed = cm.AllToAllTime(YZ * cols * act, YZ);
    r.wo = chip.MemoryTime(WoReplicaParams(config, mesh) * wb) < removed;
  }
  if (spec.attn == AttnSharding::kBatch && mesh.x() > 1) {
    // The layer's x collectives with one row per owner group: per block
    // half the norm's moments all-reduce(x) (one exchange on a 2-chip
    // axis), the reduce-scatter(x) of the q/k/v and FFN input partials
    // (q/k/v at site 1's widths) and the all-gather(x) of the attention
    // rows and the activated hidden. A serial block runs each twice, over
    // the same bytes in total.
    const int X = mesh.x();
    const double rows = mesh.num_chips();
    const double dh = static_cast<double>(config.d_head);
    const double H = static_cast<double>(config.n_heads);
    const double KV = static_cast<double>(config.n_kv_heads());
    const double F = static_cast<double>(config.d_ff);
    const double q_cols = r.qkv ? H * dh : H * dh / YZ;
    double kv_cols = 2.0 * KV * dh;
    if (!r.qkv && KvShardsOverYz(config, YZ)) kv_cols /= YZ;
    const double in_cols =
        q_cols + kv_cols + (config.gated_ffn ? 2.0 : 1.0) * F / YZ;
    const double out_cols = (H * dh + F) / YZ;
    const double moments = rows * 2.0 * act;
    const double all_reduce = X == 2 ? cm.hop_latency + moments / cm.network_bw
                                     : cm.AllReduceTime(moments, X);
    const int halves = config.parallel_block ? 1 : 2;
    const double removed = halves * all_reduce +
                           cm.ReduceScatterTime(rows * in_cols * act, X) +
                           cm.AllGatherTime(rows * out_cols * act, X) +
                           (halves - 1) * 2.0 * cm.Alpha(X);
    r.x = chip.MemoryTime(XReplicaParams(config, mesh, r) * wb) < removed;
  }
  if (r.qkv && r.wo && (mesh.x() == 1 || r.x)) {
    // The yz all-reduce with one row per owner group: the chip's rows (the
    // frame's, or its x slice's under site 4) at full E, one exchange on
    // the 2-chip axis, plus site 3's side terms -- its own row's wo terms
    // for the other rank, which a parallel block deposits beside the FFN
    // partial. A serial block runs two, the attention half's carrying its
    // own rows' terms and the side terms: the same bytes.
    const double rows = static_cast<double>(YZ);
    const double bytes = rows * static_cast<double>(config.d_model) * act;
    const double side = config.parallel_block ? bytes * (1.0 - 1.0 / YZ) : 0.0;
    const int halves = config.parallel_block ? 1 : 2;
    const double removed = halves * (cm.hop_latency + bytes / cm.network_bw) +
                           side / cm.network_bw;
    r.ffn = chip.MemoryTime(FfnYzReplicaParams(config, mesh) * wb) < removed;
  }
  if (mesh.num_chips() > 1) {
    // The all-gather(xyz) of one row's logits: sum_a (k_a - 1) hops.
    const double removed = cm.PerAxisRingTime(
        LiveAxes(mesh), static_cast<double>(config.vocab_size) * act);
    r.logit_head =
        chip.MemoryTime(HeadReplicaParams(config, mesh) * wb) < removed;
  }
  return r;
}

}  // namespace tsi
