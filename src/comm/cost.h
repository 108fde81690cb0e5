// Communication cost model for collectives on a torus (paper Appendix A.1).
//
// The bandwidth term follows the paper exactly: for an all-gather over K
// chips where each chip ends with D bytes of output, chunks of D/K bytes
// traverse (K-1) links, so T_bw = D/bw * (K-1)/K. Reduce-scatter is
// symmetric with D the (larger) per-chip *input*; all-reduce =
// reduce-scatter + all-gather. This holds for rings and tori (Chan et al.
// 2007) and is the model the paper optimizes against; Appendix A.2
// additionally approximates (K-1)/K ~= 1, and the `exact` flag lets tests
// compare both forms.
//
// On top of the paper's bandwidth-only model we add the standard alpha term
// (per-hop launch/propagation latency): a ring collective over K chips makes
// K-1 dependent steps, so T = alpha*(K-1) + T_bw. The alpha term is what
// makes fixed-volume collectives degrade as chip count grows (visible in the
// paper's Figure 6, where 1D weight-stationary decode slows beyond ~128
// chips even though its communication volume is constant) and what the
// Looped-CollectiveEinsum overlap of §3.5 cannot hide.
#pragma once

#include <vector>

namespace tsi {

struct CommCostModel {
  double network_bw = 0;     // bytes/s usable per chip (ChipSpec::network_bw)
  double hop_latency = 1e-6; // seconds per dependent ring step (alpha)
  bool exact = true;         // include the (K-1)/K bandwidth factor

  double Factor(int k) const {
    if (k <= 1) return 0.0;
    return exact ? (static_cast<double>(k) - 1.0) / k : 1.0;
  }

  double Alpha(int k) const {
    return k <= 1 ? 0.0 : hop_latency * (static_cast<double>(k) - 1.0);
  }

  // All-gather over k chips; `out_bytes_per_chip` is the size of the
  // *gathered* (replicated) result each chip ends with.
  double AllGatherTime(double out_bytes_per_chip, int k) const {
    return Alpha(k) + out_bytes_per_chip / network_bw * Factor(k);
  }

  // Reduce-scatter over k chips; `in_bytes_per_chip` is the size of the
  // partial-sum tensor each chip starts with.
  double ReduceScatterTime(double in_bytes_per_chip, int k) const {
    return Alpha(k) + in_bytes_per_chip / network_bw * Factor(k);
  }

  // All-reduce = reduce-scatter + all-gather on the same buffer.
  double AllReduceTime(double bytes, int k) const {
    return 2.0 * (Alpha(k) + bytes / network_bw * Factor(k));
  }

  // A ring collective over torus axes of extents `axes` (axis order, each
  // > 1), as a torus runs it: one ring per axis, all-gathers in axis order,
  // reduce-scatters in reverse order. Axis a's ring carries the buffer
  // D_a = D / prod_{b > a} k_b in either direction, so it costs
  // AllGatherTime(D_a, k_a). The bandwidth terms sum to the flat ring's
  // D (K-1)/K and the hops to sum_a (k_a - 1); a single axis is exactly
  // AllGatherTime(D, k). `bytes` is D: the gathered output per chip, or a
  // reduce-scatter's full input.
  double PerAxisRingTime(const std::vector<int>& axes, double bytes) const {
    double t = 0;
    for (auto k = axes.rbegin(); k != axes.rend(); ++k) {
      t += AllGatherTime(bytes, *k);
      bytes /= *k;
    }
    return t;
  }

  // All-to-all over k chips: each chip holds `bytes_per_chip` and keeps 1/k
  // of it, exchanging the rest over direct torus paths. The paper uses this
  // only on tiny Q/K/V tensors (§3.3); we charge the same bandwidth term as
  // an all-gather of the exchanged volume plus one alpha (direct sends are
  // independent, not a dependency chain).
  double AllToAllTime(double bytes_per_chip, int k) const {
    if (k <= 1) return 0.0;
    return hop_latency + bytes_per_chip / network_bw * Factor(k);
  }
};

}  // namespace tsi
