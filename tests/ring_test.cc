// Wire-level ring collectives and the fused Looped CollectiveEinsum: result
// equivalence with the direct collectives, emergent Appendix-A timing, and
// per-link traffic audits.
#include "sim/ring.h"

#include <gtest/gtest.h>

#include "hw/chip.h"
#include "sim/collective_einsum.h"
#include "sim/collectives.h"
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

struct RingCase {
  int x, y, z;
  unsigned mask;
};

std::string CaseName(const ::testing::TestParamInfo<RingCase>& info) {
  const auto& p = info.param;
  return std::to_string(p.x) + "x" + std::to_string(p.y) + "x" +
         std::to_string(p.z) + "_" + AxisName(p.mask);
}

class RingCollectiveTest : public ::testing::TestWithParam<RingCase> {};

TEST_P(RingCollectiveTest, AllGatherMatchesDirectResultAndTime) {
  auto p = GetParam();
  Torus3D topo(p.x, p.y, p.z);
  ShardVec in = RandomShards(topo.num_chips(), {4, 6}, 1);

  SimMachine direct(topo, TpuV4());
  ShardVec want = AllGather(direct, in, p.mask, 0);

  SimMachine ring(topo, TpuV4());
  RingTraffic traffic;
  ShardVec got = RingAllGather(ring, in, p.mask, 0, &traffic);

  for (int c = 0; c < topo.num_chips(); ++c) {
    EXPECT_EQ(MaxAbsDiff(got[static_cast<size_t>(c)], want[static_cast<size_t>(c)]), 0.0f)
        << "chip " << c;
  }
  // Each axis's (k_a-1)-step ring reproduces its closed-form term:
  // (k_a-1)*(alpha + D_a/(k_a*bw)) == alpha*(k_a-1) + D_a*(k_a-1)/(k_a*bw).
  EXPECT_NEAR(ring.MaxTime(), direct.MaxTime(), 1e-15);
  // Per-link audit: every chip sends D*(k-1)/k bytes over its rings.
  int k = topo.GroupSize(p.mask);
  double D = 4.0 * 6.0 * k * ring.bytes_per_element();
  for (int c = 0; c < topo.num_chips(); ++c) {
    EXPECT_NEAR(traffic.bytes_sent[static_cast<size_t>(c)],
                D * (k - 1.0) / k, 1e-9);
  }
}

TEST_P(RingCollectiveTest, ReduceScatterMatchesDirectResultAndTime) {
  auto p = GetParam();
  Torus3D topo(p.x, p.y, p.z);
  int k = topo.GroupSize(p.mask);
  ShardVec in = RandomShards(topo.num_chips(), {static_cast<int64_t>(3 * k), 5}, 2);

  SimMachine direct(topo, TpuV4());
  ShardVec want = ReduceScatter(direct, in, p.mask, 0);

  SimMachine ring(topo, TpuV4());
  RingTraffic traffic;
  ShardVec got = RingReduceScatter(ring, in, p.mask, 0, &traffic);

  for (int c = 0; c < topo.num_chips(); ++c) {
    EXPECT_LT(MaxAbsDiff(got[static_cast<size_t>(c)], want[static_cast<size_t>(c)]), 1e-4f)
        << "chip " << c;
  }
  EXPECT_NEAR(ring.MaxTime(), direct.MaxTime(), 1e-15);
  double D = static_cast<double>(in[0].numel()) * ring.bytes_per_element();
  for (int c = 0; c < topo.num_chips(); ++c) {
    EXPECT_NEAR(traffic.bytes_sent[static_cast<size_t>(c)], D * (k - 1.0) / k, 1e-9);
  }
}

TEST_P(RingCollectiveTest, AllReduceMatchesDirectResultAndTime) {
  auto p = GetParam();
  Torus3D topo(p.x, p.y, p.z);
  int k = topo.GroupSize(p.mask);
  ShardVec in = RandomShards(topo.num_chips(), {static_cast<int64_t>(2 * k), 3}, 3);

  SimMachine direct(topo, TpuV4());
  ShardVec want = AllReduce(direct, in, p.mask);

  SimMachine ring(topo, TpuV4());
  RingTraffic traffic;
  ShardVec got = RingAllReduce(ring, in, p.mask, &traffic);

  for (int c = 0; c < topo.num_chips(); ++c) {
    EXPECT_EQ(got[static_cast<size_t>(c)].shape(), in[static_cast<size_t>(c)].shape());
    EXPECT_LT(MaxAbsDiff(got[static_cast<size_t>(c)], want[static_cast<size_t>(c)]), 1e-4f)
        << "chip " << c;
  }
  // Per-axis reduce-scatter then all-gather (or, over one 2-chip axis, one
  // exchange of the whole buffer) reproduces the direct charge.
  EXPECT_NEAR(ring.MaxTime(), direct.MaxTime(), 1e-15);
  // Two legs of D*(k-1)/k each -- for k = 2, the exchange's D.
  double D = static_cast<double>(in[0].numel()) * ring.bytes_per_element();
  for (int c = 0; c < topo.num_chips(); ++c) {
    EXPECT_NEAR(traffic.bytes_sent[static_cast<size_t>(c)], 2 * D * (k - 1.0) / k, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Meshes, RingCollectiveTest,
                         ::testing::Values(RingCase{1, 1, 1, kAxisXYZ},
                                           RingCase{4, 1, 1, kAxisX},
                                           RingCase{2, 2, 1, kAxisXY},
                                           RingCase{2, 2, 2, kAxisY | kAxisZ},
                                           RingCase{2, 3, 1, kAxisY},
                                           RingCase{2, 2, 2, kAxisXYZ},
                                           RingCase{2, 2, 1, kAxisX},
                                           RingCase{4, 2, 1, kAxisXY},
                                           RingCase{2, 3, 2, kAxisXYZ}),
                         CaseName);

// --- Looped CollectiveEinsum (§3.5) ----------------------------------------

ShardVec RandomWeights(int n, Shape shape, uint64_t seed) {
  return RandomShards(n, shape, seed);
}

TEST(CollectiveEinsumTest, MatMulReduceScatterNumericsMatchUnfused) {
  Torus3D topo(4, 1, 1);
  const int n = topo.num_chips();
  ShardVec x = RandomShards(n, {8, 16}, 3);
  ShardVec w = RandomWeights(n, {16, 12}, 4);

  SimMachine unfused(topo, TpuV4());
  ShardVec partial(static_cast<size_t>(n));
  for (int c = 0; c < n; ++c) {
    partial[static_cast<size_t>(c)] =
        MatMul(x[static_cast<size_t>(c)], w[static_cast<size_t>(c)]);
    unfused.ChargeComputeAndMemory(
        c, 2.0 * 8 * 16 * 12, 16 * 12 * 2.0);
  }
  ShardVec want = ReduceScatter(unfused, partial, kAxisX, 1);

  SimMachine fused(topo, TpuV4());
  ShardVec got = MatMulReduceScatter(fused, x, w, kAxisX);
  for (int c = 0; c < n; ++c) {
    EXPECT_LT(MaxAbsDiff(got[static_cast<size_t>(c)], want[static_cast<size_t>(c)]), 1e-4f);
  }
  // Fused time is never worse than unfused, and at least the larger of the
  // two components.
  EXPECT_LE(fused.MaxTime(), unfused.MaxTime() + 1e-15);
  EXPECT_GT(fused.MaxTime(), 0.0);
}

TEST(CollectiveEinsumTest, AllGatherMatMulNumericsMatchUnfused) {
  Torus3D topo(1, 2, 2);
  const int n = topo.num_chips();
  ShardVec x = RandomShards(n, {4, 16}, 5);
  ShardVec w = RandomWeights(n, {16, 8}, 6);

  SimMachine unfused(topo, TpuV4());
  ShardVec gathered = AllGather(unfused, x, kAxisY | kAxisZ, 0);
  SimMachine fused(topo, TpuV4());
  ShardVec got = AllGatherMatMul(fused, x, w, kAxisY | kAxisZ);
  for (int c = 0; c < n; ++c) {
    Tensor want = MatMul(gathered[static_cast<size_t>(c)], w[static_cast<size_t>(c)]);
    EXPECT_LT(MaxAbsDiff(got[static_cast<size_t>(c)], want), 1e-4f);
  }
}

TEST(CollectiveEinsumTest, PipelinedTimeApproachesRoofline) {
  // Make comm and compute comparable so overlap matters, then check
  // fused ~ max(compute, comm) rather than their sum.
  Torus3D topo(8, 1, 1);
  const int n = topo.num_chips();
  ShardVec x = RandomShards(n, {64, 64}, 7);
  ShardVec w = RandomWeights(n, {64, 64}, 8);

  SimMachine fused(topo, TpuV4());
  MatMulReduceScatter(fused, x, w, kAxisX);
  double t_fused = fused.MaxTime();

  // Unfused reference times.
  SimMachine ref(topo, TpuV4());
  double flops = 2.0 * 64 * 64 * 64;
  double t_compute = std::max(ref.chip().ComputeTime(flops),
                              ref.chip().MemoryTime(64 * 64 * 2.0));
  double bytes = 64.0 * 64.0 * ref.bytes_per_element();
  double t_comm = ref.comm_cost().ReduceScatterTime(bytes, n);
  double unfused = t_compute + t_comm;

  EXPECT_LT(t_fused, unfused);
  EXPECT_GE(t_fused, std::max(t_compute, t_comm) - 1e-15);
  // With 8 chunks the pipeline should recover most of the overlap.
  EXPECT_LT(t_fused, 0.75 * unfused + std::max(t_compute, t_comm));
}

TEST(CollectiveEinsumTest, SingletonGroupFallsBackToPlainMatMul) {
  Torus3D topo(1, 1, 1);
  ShardVec x = RandomShards(1, {4, 8}, 9);
  ShardVec w = RandomWeights(1, {8, 6}, 10);
  SimMachine m(topo, TpuV4());
  ShardVec got = MatMulReduceScatter(m, x, w, kAxisX);
  EXPECT_LT(MaxAbsDiff(got[0], MatMul(x[0], w[0])), 1e-5f);
  EXPECT_GT(m.MaxTime(), 0);
  EXPECT_EQ(m.TotalNetworkBytes(), 0.0);
}

TEST(CollectiveEinsumTest, BooksFlopsAndWeightTraffic) {
  Torus3D topo(2, 1, 1);
  ShardVec x = RandomShards(2, {8, 8}, 11);
  ShardVec w = RandomWeights(2, {8, 4}, 12);
  SimMachine m(topo, TpuV4());
  MatMulReduceScatter(m, x, w, kAxisX);
  double flops_per_chip = 2.0 * 8 * 8 * 4;
  EXPECT_NEAR(m.TotalFlops(), 2 * flops_per_chip, 1e-6);
  EXPECT_GT(m.TotalNetworkBytes(), 0);
}

}  // namespace
}  // namespace tsi
