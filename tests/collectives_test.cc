// SpmdContext's charged collectives: results against their definitions
// (group-order concat, sum and reshard) and charges against the per-axis
// ring formulas of Appendix A.1.
#include "sim/spmd.h"

#include <gtest/gtest.h>

#include "hw/chip.h"
#include "sim/ring.h"
#include "util/rng.h"

namespace tsi {
namespace {

SimMachine MakeMachine(int x, int y, int z) {
  return SimMachine(Torus3D(x, y, z), TpuV4());
}

// Chip c's result of `op`, run on every chip in one SPMD region.
template <typename Op>
ShardVec PerChip(SimMachine& m, Op op) {
  ShardVec out(static_cast<size_t>(m.num_chips()));
  SpmdExecutor ex(&m);
  ex.Run([&](SpmdContext& ctx) {
    const size_t c = static_cast<size_t>(ctx.chip());
    out[c] = op(ctx, c);
  });
  return out;
}

ShardVec RandomShards(const SimMachine& m, Shape shape, uint64_t seed) {
  ShardVec shards;
  for (int c = 0; c < m.num_chips(); ++c) {
    Rng rng(Rng::DeriveSeed(seed, static_cast<uint64_t>(c)));
    shards.push_back(Tensor::Gaussian(shape, rng));
  }
  return shards;
}

struct CollectiveCase {
  int x, y, z;
  unsigned mask;
};

// Torus axes of `mask` with extent > 1.
int RingAxes(const Torus3D& mesh, unsigned mask) {
  int axes = 0;
  for (unsigned a : {kAxisX, kAxisY, kAxisZ})
    if ((mask & a) && mesh.GroupSize(a) > 1) ++axes;
  return axes;
}

// Closed form of a ring collective run as one ring per torus axis
// (Appendix A.1): axis a's ring carries D_a = D / prod_{b>a} k_b and pays
// Alpha(k_a) + D_a / bw * Factor(k_a).
double PerAxisRingTime(const Torus3D& mesh, unsigned mask,
                       const CommCostModel& cm, double bytes) {
  double t = 0;
  for (unsigned a : {kAxisZ, kAxisY, kAxisX}) {
    if (!(mask & a)) continue;
    const int k = mesh.GroupSize(a);
    t += cm.Alpha(k) + bytes / cm.network_bw * cm.Factor(k);
    bytes /= k;
  }
  return t;
}

std::string CaseName(const ::testing::TestParamInfo<CollectiveCase>& info) {
  const auto& p = info.param;
  return std::to_string(p.x) + "x" + std::to_string(p.y) + "x" +
         std::to_string(p.z) + "_" + AxisName(p.mask);
}

class CollectiveParamTest : public ::testing::TestWithParam<CollectiveCase> {};

TEST_P(CollectiveParamTest, AllGatherConcatenatesGroupShards) {
  auto p = GetParam();
  SimMachine m = MakeMachine(p.x, p.y, p.z);
  ShardVec in = RandomShards(m, {2, 3}, 1);
  ShardVec out = PerChip(m, [&](SpmdContext& ctx, size_t c) {
    return ctx.AllGather(p.mask, in[c], /*dim=*/0);
  });
  int k = m.topo().GroupSize(p.mask);
  for (int c = 0; c < m.num_chips(); ++c) {
    EXPECT_EQ(out[c].dim(0), 2 * k);
    std::vector<int> group = m.topo().GroupOf(c, p.mask);
    for (size_t r = 0; r < group.size(); ++r) {
      Tensor expect = in[static_cast<size_t>(group[r])];
      Tensor got = out[c].Chunk(0, k, static_cast<int64_t>(r));
      EXPECT_EQ(MaxAbsDiff(expect, got), 0.0f);
    }
  }
}

TEST_P(CollectiveParamTest, ReduceScatterSumsAndShards) {
  auto p = GetParam();
  SimMachine m = MakeMachine(p.x, p.y, p.z);
  int k = m.topo().GroupSize(p.mask);
  ShardVec in = RandomShards(m, {static_cast<int64_t>(4 * k), 3}, 2);
  ShardVec out = PerChip(m, [&](SpmdContext& ctx, size_t c) {
    return ctx.ReduceScatter(p.mask, in[c], /*dim=*/0);
  });
  for (int c = 0; c < m.num_chips(); ++c) {
    std::vector<int> group = m.topo().GroupOf(c, p.mask);
    Tensor sum = in[static_cast<size_t>(group[0])];
    for (size_t i = 1; i < group.size(); ++i)
      sum.AddInPlace(in[static_cast<size_t>(group[i])]);
    int r = m.topo().RankInGroup(c, p.mask);
    EXPECT_LT(MaxAbsDiff(out[c], sum.Chunk(0, k, r)), 1e-5f);
  }
}

TEST_P(CollectiveParamTest, AllReduceEqualsReduceScatterPlusAllGather) {
  auto p = GetParam();
  SimMachine m1 = MakeMachine(p.x, p.y, p.z);
  SimMachine m2 = MakeMachine(p.x, p.y, p.z);
  int k = m1.topo().GroupSize(p.mask);
  ShardVec in = RandomShards(m1, {static_cast<int64_t>(2 * k), 5}, 3);
  ShardVec ar = PerChip(m1, [&](SpmdContext& ctx, size_t c) {
    return ctx.AllReduce(p.mask, in[c]);
  });
  ShardVec rs_ag = PerChip(m2, [&](SpmdContext& ctx, size_t c) {
    return ctx.AllGather(p.mask, ctx.ReduceScatter(p.mask, in[c], 0), 0);
  });
  for (int c = 0; c < m1.num_chips(); ++c) {
    EXPECT_LT(MaxAbsDiff(ar[static_cast<size_t>(c)], rs_ag[static_cast<size_t>(c)]), 1e-5f);
  }
  // Same composed operation, same charged time -- except over one 2-chip
  // axis, where the all-reduce is one exchange of the full buffer: hop +
  // D / bw, the same bytes as RS + AG in one hop instead of two.
  if (RingAxes(m1.topo(), p.mask) == 1 && k == 2) {
    const CommCostModel& cm = m1.comm_cost();
    const double D = 2.0 * k * 5 * m1.bytes_per_element();
    EXPECT_NEAR(m1.MaxTime(), cm.hop_latency + D / cm.network_bw, 1e-12);
  } else {
    EXPECT_NEAR(m1.MaxTime(), m2.MaxTime(), 1e-12);
  }
}

// Charges run one ring per torus axis (sim/spmd.h): an all-gather or a
// reduce-scatter pays the per-axis ring terms, never more bytes than the
// flat ring (each chip's egress stays D (K-1)/K), and an all-reduce pays two
// such legs -- or, over one 2-chip axis, a single exchange: hop + D / bw
// with egress D. A single-axis all-reduce over k >= 3 chips keeps the flat
// AllReduceTime.
TEST_P(CollectiveParamTest, ChargesOneRingPerTorusAxis) {
  auto p = GetParam();
  const Torus3D mesh(p.x, p.y, p.z);
  const int k = mesh.GroupSize(p.mask);
  const bool exchange = RingAxes(mesh, p.mask) == 1 && k == 2;
  for (int op = 0; op < 3; ++op) {
    SimMachine m = MakeMachine(p.x, p.y, p.z);
    const CommCostModel& cm = m.comm_cost();
    ShardVec in = RandomShards(m, {static_cast<int64_t>(4 * k), 3}, 9);
    // D: the gathered output (all-gather), else the per-chip input.
    double D = 4.0 * k * 3 * m.bytes_per_element();
    PerChip(m, [&](SpmdContext& ctx, size_t c) {
      if (op == 0) return ctx.AllGather(p.mask, in[c], 0);
      if (op == 1) return ctx.ReduceScatter(p.mask, in[c], 0);
      return ctx.AllReduce(p.mask, in[c]);
    });
    if (op == 0) D *= k;
    double want_t = PerAxisRingTime(mesh, p.mask, cm, D);
    double want_bytes = D * (k - 1) / k;
    if (op == 2 && exchange) {
      want_t = cm.hop_latency + D / cm.network_bw;
      want_bytes = D;
    } else if (op == 2) {
      want_t *= 2;
      want_bytes *= 2;
      if (RingAxes(mesh, p.mask) == 1) {
        EXPECT_DOUBLE_EQ(want_t, cm.AllReduceTime(D, k));
      }
    }
    for (int c = 0; c < m.num_chips(); ++c) {
      EXPECT_DOUBLE_EQ(m.counters(c).time, want_t) << "op " << op << " chip " << c;
      EXPECT_DOUBLE_EQ(m.counters(c).network_bytes, want_bytes)
          << "op " << op << " chip " << c;
    }
  }
}

TEST_P(CollectiveParamTest, AllToAllMovesShardingBetweenDims) {
  auto p = GetParam();
  SimMachine m = MakeMachine(p.x, p.y, p.z);
  int k = m.topo().GroupSize(p.mask);
  ShardVec in = RandomShards(m, {static_cast<int64_t>(2 * k), 3}, 4);
  ShardVec out = PerChip(m, [&](SpmdContext& ctx, size_t c) {
    return ctx.AllToAll(p.mask, in[c], /*split_dim=*/0, /*concat_dim=*/1);
  });
  for (int c = 0; c < m.num_chips(); ++c) {
    std::vector<int> group = m.topo().GroupOf(c, p.mask);
    int r = m.topo().RankInGroup(c, p.mask);
    EXPECT_EQ(out[c].dim(0), 2);
    EXPECT_EQ(out[c].dim(1), 3 * k);
    for (size_t g = 0; g < group.size(); ++g) {
      Tensor expect = in[static_cast<size_t>(group[g])].Chunk(0, k, r);
      Tensor got = out[c].Chunk(1, k, static_cast<int64_t>(g));
      EXPECT_EQ(MaxAbsDiff(expect, got), 0.0f);
    }
  }
}

TEST_P(CollectiveParamTest, AllToAllIsInvolutionOnSymmetricDims) {
  auto p = GetParam();
  SimMachine m = MakeMachine(p.x, p.y, p.z);
  int k = m.topo().GroupSize(p.mask);
  ShardVec in = RandomShards(m, {static_cast<int64_t>(2 * k), static_cast<int64_t>(3 * k)}, 5);
  ShardVec back = PerChip(m, [&](SpmdContext& ctx, size_t c) {
    return ctx.AllToAll(p.mask, ctx.AllToAll(p.mask, in[c], 0, 1), 1, 0);
  });
  for (int c = 0; c < m.num_chips(); ++c)
    EXPECT_EQ(MaxAbsDiff(in[static_cast<size_t>(c)], back[static_cast<size_t>(c)]), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Meshes, CollectiveParamTest,
    ::testing::Values(CollectiveCase{1, 1, 1, kAxisXYZ},
                      CollectiveCase{2, 1, 1, kAxisX},
                      CollectiveCase{4, 1, 1, kAxisX},
                      CollectiveCase{2, 2, 1, kAxisY},
                      CollectiveCase{2, 2, 1, kAxisXY},
                      CollectiveCase{2, 2, 2, kAxisX},
                      CollectiveCase{2, 2, 2, kAxisY | kAxisZ},
                      CollectiveCase{2, 2, 2, kAxisXYZ},
                      CollectiveCase{4, 2, 1, kAxisXY},
                      CollectiveCase{2, 3, 2, kAxisY}),
    CaseName);

TEST(CollectiveTimingTest, AllGatherChargesAppendixACost) {
  SimMachine m = MakeMachine(4, 1, 1);
  ShardVec in = RandomShards(m, {8, 16}, 6);
  PerChip(m, [&](SpmdContext& ctx, size_t c) {
    return ctx.AllGather(kAxisX, in[c], 0);
  });
  // Gathered output: 4 * 8 * 16 elements * 2 bytes.
  double out_bytes = 4 * 8 * 16 * m.bytes_per_element();
  double want = m.comm_cost().AllGatherTime(out_bytes, 4);
  EXPECT_NEAR(m.MaxTime(), want, 1e-12);
  // Egress traffic: D * (K-1)/K per chip.
  EXPECT_NEAR(m.counters(0).network_bytes, out_bytes * 3.0 / 4.0, 1e-6);
}

TEST(CollectiveTimingTest, GroupsAdvanceIndependently) {
  SimMachine m = MakeMachine(2, 2, 1);
  // Pre-skew one chip's clock; its x-group syncs to it, the other does not.
  m.AdvanceTime(/*chip=*/0, 1.0);
  ShardVec in = RandomShards(m, {2, 2}, 7);
  PerChip(m, [&](SpmdContext& ctx, size_t c) {
    return ctx.AllGather(kAxisX, in[c], 0);
  });
  double coll = m.comm_cost().AllGatherTime(2 * 2 * 2 * m.bytes_per_element(), 2);
  // Chips 0 and its x-peer end at 1.0 + coll; the other group's chips at coll.
  int peer = m.topo().GroupOf(0, kAxisX)[1];
  EXPECT_NEAR(m.counters(0).time, 1.0 + coll, 1e-12);
  EXPECT_NEAR(m.counters(peer).time, 1.0 + coll, 1e-12);
  bool found_other = false;
  for (int c = 0; c < m.num_chips(); ++c) {
    if (c == 0 || c == peer) continue;
    EXPECT_NEAR(m.counters(c).time, coll, 1e-12);
    found_other = true;
  }
  EXPECT_TRUE(found_other);
}

TEST(CollectiveTimingTest, SingletonGroupsAreFree) {
  SimMachine m = MakeMachine(1, 2, 2);
  ShardVec in = RandomShards(m, {4, 4}, 8);
  ShardVec out = PerChip(m, [&](SpmdContext& ctx, size_t c) {
    return ctx.AllGather(kAxisX, in[c], 0);
  });
  EXPECT_EQ(m.MaxTime(), 0.0);
  for (int c = 0; c < m.num_chips(); ++c)
    EXPECT_EQ(MaxAbsDiff(out[static_cast<size_t>(c)], in[static_cast<size_t>(c)]), 0.0f);
}

TEST(SimMachineTest, ComputeAndMemoryCharging) {
  SimMachine m = MakeMachine(1, 1, 1);
  m.ChargeCompute(0, 275e12);  // exactly one second of peak
  EXPECT_NEAR(m.counters(0).time, 1.0, 1e-9);
  m.ChargeMemory(0, 1200e9);
  EXPECT_NEAR(m.counters(0).time, 2.0, 1e-9);
  m.ChargeComputeAndMemory(0, 275e12, 600e9);  // compute-bound: +1s
  EXPECT_NEAR(m.counters(0).time, 3.0, 1e-9);
  EXPECT_NEAR(m.TotalFlops(), 2 * 275e12, 1);
  m.ResetCounters();
  EXPECT_EQ(m.MaxTime(), 0.0);
}

}  // namespace
}  // namespace tsi
