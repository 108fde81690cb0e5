#include "core/planner.h"

#include <algorithm>
#include <set>
#include <tuple>

namespace tsi {

namespace {

// Everything LayerCost reads off (mesh, ffn): X, Y*Z, the weight-gather
// width, and the group the residual all-reduce runs over. Two candidates
// with equal keys (and equal attention sharding) price identically at every
// (batch, context, phase), so one representative suffices.
std::tuple<int, int, int, int, int> CostKey(const PartitionSpec& s) {
  int yz = s.mesh.y() * s.mesh.z();
  int k_e = yz;
  if (s.ffn == FfnLayout::kWGX) k_e = yz;
  if (s.ffn == FfnLayout::kWGXY) k_e = s.mesh.z();
  if (s.ffn == FfnLayout::kWGXYZ) k_e = 1;
  return {static_cast<int>(s.attn), s.mesh.x(), yz,
          WeightGatherWidth(s.ffn, s.mesh), k_e};
}

}  // namespace

std::vector<PartitionSpec> EnumerateSpecs(const ModelConfig& config, int n_chips,
                                          WeightFormat format, bool dedup) {
  std::vector<PartitionSpec> specs;
  std::set<std::tuple<int, int, int, int, int>> seen;
  for (const Torus3D& mesh : AllTorusShapes(n_chips)) {
    if (config.d_model % mesh.x() != 0) continue;
    int yz = mesh.y() * mesh.z();
    if (config.d_ff % yz != 0) continue;

    std::vector<FfnLayout> layouts;
    if (mesh.x() == 1) {
      layouts.push_back(FfnLayout::kWS1D);
    } else {
      layouts.push_back(FfnLayout::kWS2D);
      if (mesh.x() > 1) layouts.push_back(FfnLayout::kWGX);
    }
    if (mesh.x() * mesh.y() > 1) layouts.push_back(FfnLayout::kWGXY);
    if (n_chips > 1) layouts.push_back(FfnLayout::kWGXYZ);

    for (FfnLayout l : layouts) {
      for (AttnSharding a : {AttnSharding::kHeads, AttnSharding::kBatch}) {
        PartitionSpec s;
        s.mesh = mesh;
        s.ffn = l;
        s.attn = a;
        s.weight_format = format;
        // Keep the FIRST of each cost-equivalent class (AllTorusShapes is
        // lexicographic, the autotuner keeps the first of equals): the
        // surviving representative is the spec a search over the raw cross
        // product would pick.
        if (dedup && !seen.insert(CostKey(s)).second) continue;
        specs.push_back(s);
      }
    }
  }
  // Single chip: everything degenerates to one local layout.
  if (specs.empty() && n_chips == 1) {
    PartitionSpec s;
    s.mesh = Torus3D(1, 1, 1);
    s.ffn = FfnLayout::kWS1D;
    s.attn = AttnSharding::kHeads;
    s.weight_format = format;
    specs.push_back(s);
  }
  return specs;
}

std::vector<SweepPoint> ParetoFrontier(std::vector<SweepPoint> points) {
  std::sort(points.begin(), points.end(), [](const SweepPoint& a, const SweepPoint& b) {
    if (a.latency != b.latency) return a.latency < b.latency;
    return a.cost_chipsec_per_token < b.cost_chipsec_per_token;
  });
  std::vector<SweepPoint> frontier;
  double best_cost = 1e300;
  for (const SweepPoint& p : points) {
    if (p.cost_chipsec_per_token < best_cost) {
      frontier.push_back(p);
      best_cost = p.cost_chipsec_per_token;
    }
  }
  return frontier;
}

}  // namespace tsi
