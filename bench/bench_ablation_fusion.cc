// Experiment E20 -- operator fusion (§3.5) on the virtual clock: the
// pipelined Looped CollectiveEinsum (matmul + reduce-scatter) vs the
// sequential matmul then reduce-scatter. The engine's other fusions
// (docs/fastpath.md) always run; its decode step is timed by
// bench_ablation_act_quant (EngineDecode/fp32 and EngineDecode/int8).
#include "common.h"

#include "sim/ring.h"
#include "sim/spmd.h"
#include "util/rng.h"

namespace tsi {
namespace {

ShardVec RandomShards(int n, Shape shape, uint64_t seed) {
  ShardVec shards;
  for (int c = 0; c < n; ++c) {
    Rng rng(Rng::DeriveSeed(seed, static_cast<uint64_t>(c)));
    shards.push_back(Tensor::Gaussian(shape, rng));
  }
  return shards;
}

void RunCollectiveEinsumAblation() {
  PrintHeader("Looped CollectiveEinsum: fused vs unfused matmul+reduce-scatter");
  std::printf("(functional shapes are scaled down ~100x from production, so the\n"
              "per-hop latency is scaled to 1ns to keep the alpha term\n"
              "proportionate; ratios are what matter)\n");
  Table t({"rows x k x cols (per chip)", "chips", "unfused (us)", "fused (us)",
           "speedup", "roofline bound (us)"});

  struct Shape3 {
    int64_t rows, k, cols;
    int chips;
  };
  // Compute-heavy, balanced, and comm-heavy arithmetic intensities: fusion
  // pays the most where neither side dominates.
  for (Shape3 s : {Shape3{1024, 2048, 64, 8}, Shape3{512, 1024, 256, 8},
                   Shape3{64, 256, 512, 8}, Shape3{512, 1024, 256, 4}}) {
    Torus3D topo(s.chips, 1, 1);
    ShardVec x = RandomShards(s.chips, {s.rows, s.k}, 1);
    ShardVec w = RandomShards(s.chips, {s.k, s.cols}, 2);

    SimMachine unfused(topo, TpuV4());
    unfused.set_hop_latency(1e-9);
    SpmdExecutor(&unfused).Run([&](SpmdContext& ctx) {
      const size_t c = static_cast<size_t>(ctx.chip());
      Tensor partial = MatMul(x[c], w[c]);
      unfused.ChargeComputeAndMemory(ctx.chip(), 2.0 * s.rows * s.k * s.cols,
                                     static_cast<double>(s.k * s.cols) * 2.0);
      ctx.ReduceScatter(kAxisX, std::move(partial), 1);
    });

    SimMachine fused(topo, TpuV4());
    fused.set_hop_latency(1e-9);
    SpmdExecutor(&fused).Run([&](SpmdContext& ctx) {
      const size_t c = static_cast<size_t>(ctx.chip());
      ctx.MatMulReduceScatter(kAxisX, x[c], w[c]);
    });

    double t_compute = std::max(
        TpuV4().ComputeTime(2.0 * s.rows * s.k * s.cols),
        TpuV4().MemoryTime(static_cast<double>(s.k * s.cols) * 2.0));
    double bytes = static_cast<double>(s.rows * s.cols) * 2.0;
    double t_comm = fused.comm_cost().ReduceScatterTime(bytes, s.chips);

    char label[64];
    std::snprintf(label, sizeof(label), "%lldx%lldx%lld",
                  static_cast<long long>(s.rows), static_cast<long long>(s.k),
                  static_cast<long long>(s.cols));
    t.AddRow({label, std::to_string(s.chips),
              FormatDouble(unfused.MaxTime() * 1e6, 2),
              FormatDouble(fused.MaxTime() * 1e6, 2),
              FormatDouble(unfused.MaxTime() / fused.MaxTime(), 2) + "x",
              FormatDouble(std::max(t_compute, t_comm) * 1e6, 2)});
  }
  t.Print();
  std::printf("\nPaper: this class of fusions (plus collective scheduling)\n"
              "bought ~1.4x over the compiler-scheduled baseline and made\n"
              "some weight-gathered layouts feasible at all. The fused time\n"
              "approaches the max(compute, comm) roofline as chunks pipeline.\n");
}

}  // namespace
}  // namespace tsi

int main() {
  tsi::RunCollectiveEinsumAblation();
  return 0;
}
