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
