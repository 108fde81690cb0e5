// Wire-level ring collectives and the fused Looped CollectiveEinsum: result
// equivalence with SpmdContext's charged collectives (the direct side),
// emergent Appendix-A timing, and per-link traffic audits.
#include "sim/ring.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "hw/chip.h"
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

// Chip c's result of `op`, run on every chip in one SPMD region.
template <typename Op>
ShardVec PerChip(SimMachine& m, Op op) {
  ShardVec out(static_cast<size_t>(m.num_chips()));
  SpmdExecutor ex(&m);
  ex.Run([&](SpmdContext& ctx) {
    out[static_cast<size_t>(ctx.chip())] = op(ctx, static_cast<size_t>(ctx.chip()));
  });
  return out;
}

struct RingCase {
  int x, y, z;
  unsigned mask;
};

std::vector<RingCase> RingCases() {
  return {RingCase{1, 1, 1, kAxisXYZ}, RingCase{4, 1, 1, kAxisX},
          RingCase{2, 2, 1, kAxisXY},  RingCase{2, 2, 2, kAxisY | kAxisZ},
          RingCase{2, 3, 1, kAxisY},   RingCase{2, 2, 2, kAxisXYZ},
          RingCase{2, 2, 1, kAxisX},   RingCase{4, 2, 1, kAxisXY},
          RingCase{2, 3, 2, kAxisXYZ}};
}

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
  ShardVec want = PerChip(direct, [&](SpmdContext& ctx, size_t c) {
    return ctx.AllGather(p.mask, in[c], 0);
  });

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
  ShardVec want = PerChip(direct, [&](SpmdContext& ctx, size_t c) {
    return ctx.ReduceScatter(p.mask, in[c], 0);
  });

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
  ShardVec want = PerChip(direct, [&](SpmdContext& ctx, size_t c) {
    return ctx.AllReduce(p.mask, in[c]);
  });

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
                         ::testing::ValuesIn(RingCases()), CaseName);

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
  ShardVec want = PerChip(unfused, [&](SpmdContext& ctx, size_t c) {
    unfused.ChargeComputeAndMemory(ctx.chip(), 2.0 * 8 * 16 * 12,
                                   16 * 12 * 2.0);
    return ctx.ReduceScatter(kAxisX, MatMul(x[c], w[c]), 1);
  });

  SimMachine fused(topo, TpuV4());
  ShardVec got = PerChip(fused, [&](SpmdContext& ctx, size_t c) {
    return ctx.MatMulReduceScatter(kAxisX, x[c], w[c]);
  });
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
  ShardVec gathered = PerChip(unfused, [&](SpmdContext& ctx, size_t c) {
    return ctx.AllGather(kAxisY | kAxisZ, x[c], 0);
  });
  SimMachine fused(topo, TpuV4());
  ShardVec got = PerChip(fused, [&](SpmdContext& ctx, size_t c) {
    return ctx.AllGatherMatMul(kAxisY | kAxisZ, x[c], w[c]);
  });
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
  PerChip(fused, [&](SpmdContext& ctx, size_t c) {
    return ctx.MatMulReduceScatter(kAxisX, x[c], w[c]);
  });
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
  ShardVec got = PerChip(m, [&](SpmdContext& ctx, size_t c) {
    return ctx.MatMulReduceScatter(kAxisX, x[c], w[c]);
  });
  EXPECT_LT(MaxAbsDiff(got[0], MatMul(x[0], w[0])), 1e-5f);
  EXPECT_GT(m.MaxTime(), 0);
  EXPECT_EQ(m.TotalNetworkBytes(), 0.0);
}

TEST(CollectiveEinsumTest, BooksFlopsAndWeightTraffic) {
  Torus3D topo(2, 1, 1);
  ShardVec x = RandomShards(2, {8, 8}, 11);
  ShardVec w = RandomWeights(2, {8, 4}, 12);
  SimMachine m(topo, TpuV4());
  PerChip(m, [&](SpmdContext& ctx, size_t c) {
    return ctx.MatMulReduceScatter(kAxisX, x[c], w[c]);
  });
  double flops_per_chip = 2.0 * 8 * 8 * 4;
  EXPECT_NEAR(m.TotalFlops(), 2 * flops_per_chip, 1e-6);
  EXPECT_GT(m.TotalNetworkBytes(), 0);
}

// --- Golden values ---------------------------------------------------------
//
// Both sides of every comparison above, pinned: an FNV-1a hash of the float
// bits of each chip's output (chip order) and the machine's final MaxTime.
// `got` is the wire-level ring (or the fused einsum), `want` the charged
// SpmdContext collective (or the unfused matmul + reduce-scatter), on the
// same inputs as the tests above. On a mismatch the failure message prints
// the table as it reads now.

uint64_t Fnv1a(const ShardVec& shards) {
  uint64_t h = 14695981039346656037ull;
  for (const Tensor& t : shards) {
    for (int64_t i = 0; i < t.numel(); ++i) {
      uint32_t bits;
      float f = t[i];
      std::memcpy(&bits, &f, sizeof(bits));
      for (int b = 0; b < 4; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

struct GoldenRow {
  std::string name;
  uint64_t got_hash, want_hash;
  double got_time, want_time;

  bool operator==(const GoldenRow&) const = default;
};

GoldenRow Row(std::string name, const ShardVec& got, const SimMachine& got_m,
              const ShardVec& want, const SimMachine& want_m) {
  return {std::move(name), Fnv1a(got), Fnv1a(want), got_m.MaxTime(),
          want_m.MaxTime()};
}

std::vector<GoldenRow> GoldenRowsNow() {
  std::vector<GoldenRow> rows;
  for (const RingCase& p : RingCases()) {
    const Torus3D topo(p.x, p.y, p.z);
    const int k = topo.GroupSize(p.mask);
    const std::string name = std::to_string(p.x) + "x" + std::to_string(p.y) +
                             "x" + std::to_string(p.z) + "_" +
                             AxisName(p.mask);
    {
      ShardVec in = RandomShards(topo.num_chips(), {4, 6}, 1);
      SimMachine direct(topo, TpuV4()), ring(topo, TpuV4());
      ShardVec want = PerChip(direct, [&](SpmdContext& ctx, size_t c) {
        return ctx.AllGather(p.mask, in[c], 0);
      });
      ShardVec got = RingAllGather(ring, in, p.mask, 0);
      rows.push_back(Row(name + "/all-gather", got, ring, want, direct));
    }
    {
      ShardVec in = RandomShards(topo.num_chips(), {static_cast<int64_t>(3 * k), 5}, 2);
      SimMachine direct(topo, TpuV4()), ring(topo, TpuV4());
      ShardVec want = PerChip(direct, [&](SpmdContext& ctx, size_t c) {
        return ctx.ReduceScatter(p.mask, in[c], 0);
      });
      ShardVec got = RingReduceScatter(ring, in, p.mask, 0);
      rows.push_back(Row(name + "/reduce-scatter", got, ring, want, direct));
    }
    {
      ShardVec in = RandomShards(topo.num_chips(), {static_cast<int64_t>(2 * k), 3}, 3);
      SimMachine direct(topo, TpuV4()), ring(topo, TpuV4());
      ShardVec want = PerChip(direct, [&](SpmdContext& ctx, size_t c) {
        return ctx.AllReduce(p.mask, in[c]);
      });
      ShardVec got = RingAllReduce(ring, in, p.mask);
      rows.push_back(Row(name + "/all-reduce", got, ring, want, direct));
    }
  }
  {
    const Torus3D topo(4, 1, 1);
    ShardVec x = RandomShards(4, {8, 16}, 3);
    ShardVec w = RandomShards(4, {16, 12}, 4);
    SimMachine unfused(topo, TpuV4()), fused(topo, TpuV4());
    ShardVec want = PerChip(unfused, [&](SpmdContext& ctx, size_t c) {
      unfused.ChargeComputeAndMemory(ctx.chip(), 2.0 * 8 * 16 * 12,
                                     16 * 12 * 2.0);
      return ctx.ReduceScatter(kAxisX, MatMul(x[c], w[c]), 1);
    });
    ShardVec got = PerChip(fused, [&](SpmdContext& ctx, size_t c) {
      return ctx.MatMulReduceScatter(kAxisX, x[c], w[c]);
    });
    rows.push_back(
        Row("4x1x1_x/matmul-reduce-scatter", got, fused, want, unfused));
  }
  {
    const Torus3D topo(1, 2, 2);
    ShardVec x = RandomShards(4, {4, 16}, 5);
    ShardVec w = RandomShards(4, {16, 8}, 6);
    SimMachine unfused(topo, TpuV4()), fused(topo, TpuV4());
    ShardVec want = PerChip(unfused, [&](SpmdContext& ctx, size_t c) {
      return MatMul(ctx.AllGather(kAxisY | kAxisZ, x[c], 0), w[c]);
    });
    ShardVec got = PerChip(fused, [&](SpmdContext& ctx, size_t c) {
      return ctx.AllGatherMatMul(kAxisY | kAxisZ, x[c], w[c]);
    });
    rows.push_back(Row("1x2x2_yz/all-gather-matmul", got, fused, want, unfused));
  }
  return rows;
}

TEST(RingGoldenTest, ResultsAndClocksMatchRecordedValues) {
  const std::vector<GoldenRow> want = {
      {"1x1x1_xyz/all-gather",
       0x4b4d2d9de2a61cc3ull, 0x4b4d2d9de2a61cc3ull, 0, 0},
      {"1x1x1_xyz/reduce-scatter",
       0x6b3bfd0e27f40501ull, 0x6b3bfd0e27f40501ull, 0, 0},
      {"1x1x1_xyz/all-reduce",
       0xf321697c9838e8f2ull, 0xf321697c9838e8f2ull, 0, 0},
      {"4x1x1_x/all-gather",
       0xa59aed9d1d259665ull, 0xa59aed9d1d259665ull, 3.0005333333333333e-06, 3.0005333333333333e-06},
      {"4x1x1_x/reduce-scatter",
       0x935f10e0e32299d8ull, 0x1c35d0ac7145fee7ull, 3.0003333333333333e-06, 3.0003333333333333e-06},
      {"4x1x1_x/all-reduce",
       0xe328a58271cdd3f5ull, 0xd4b6ca855f62d4fdull, 6.0002666666666666e-06, 6.0002666666666666e-06},
      {"2x2x1_xy/all-gather",
       0xa59aed9d1d259665ull, 0xa59aed9d1d259665ull, 2.0005333333333331e-06, 2.0005333333333331e-06},
      {"2x2x1_xy/reduce-scatter",
       0x4ee23526243dd82aull, 0x1c35d0ac7145fee7ull, 2.0003333333333336e-06, 2.0003333333333336e-06},
      {"2x2x1_xy/all-reduce",
       0x0668aad37cf7c0a5ull, 0xd4b6ca855f62d4fdull, 4.0002666666666662e-06, 4.0002666666666662e-06},
      {"2x2x2_yz/all-gather",
       0x04436236b7a96425ull, 0x04436236b7a96425ull, 2.0005333333333331e-06, 2.0005333333333331e-06},
      {"2x2x2_yz/reduce-scatter",
       0x35c8754571dc4c8full, 0xe034eac1c23dc24aull, 2.0003333333333336e-06, 2.0003333333333336e-06},
      {"2x2x2_yz/all-reduce",
       0x647af25b3383d6e5ull, 0xd333f200c6cd39adull, 4.0002666666666662e-06, 4.0002666666666662e-06},
      {"2x3x1_y/all-gather",
       0x8a14a6916ff806dbull, 0x8a14a6916ff806dbull, 2.0003555555555555e-06, 2.0003555555555555e-06},
      {"2x3x1_y/reduce-scatter",
       0x91e8c28b26c651c2ull, 0xa14d38b483bde537ull, 2.0002222222222223e-06, 2.0002222222222223e-06},
      {"2x3x1_y/all-reduce",
       0x71daa0f2c5f058c6ull, 0xe49a78408871dcd4ull, 4.0001777777777774e-06, 4.0001777777777774e-06},
      {"2x2x2_xyz/all-gather",
       0xc424b11f03b239e5ull, 0xc424b11f03b239e5ull, 3.0012444444444441e-06, 3.0012444444444446e-06},
      {"2x2x2_xyz/reduce-scatter",
       0x83a7edc639a624cfull, 0x4cf49ad082d99061ull, 3.0007777777777781e-06, 3.0007777777777781e-06},
      {"2x2x2_xyz/all-reduce",
       0x1c56be2496d2f8c5ull, 0x79cf7b1cec60f625ull, 6.0006222222222226e-06, 6.0006222222222226e-06},
      {"2x2x1_x/all-gather",
       0x40bb49230283fda5ull, 0x40bb49230283fda5ull, 1.0001777777777778e-06, 1.0001777777777778e-06},
      {"2x2x1_x/reduce-scatter",
       0xaad3eb76d877d9e3ull, 0xaad3eb76d877d9e3ull, 1.0001111111111112e-06, 1.0001111111111112e-06},
      {"2x2x1_x/all-reduce",
       0xab853e2e821a7949ull, 0xab853e2e821a7949ull, 1.0000888888888888e-06, 1.0000888888888888e-06},
      {"4x2x1_xy/all-gather",
       0xc424b11f03b239e5ull, 0xc424b11f03b239e5ull, 4.0012444444444439e-06, 4.0012444444444439e-06},
      {"4x2x1_xy/reduce-scatter",
       0xcfeeeb8faacc9c84ull, 0x4cf49ad082d99061ull, 4.0007777777777779e-06, 4.0007777777777779e-06},
      {"4x2x1_xy/all-reduce",
       0x70cfd0bff5b955b5ull, 0x79cf7b1cec60f625ull, 8.0006222222222221e-06, 8.0006222222222221e-06},
      {"2x3x2_xyz/all-gather",
       0x7ac994ebd762f635ull, 0x7ac994ebd762f635ull, 4.001955555555556e-06, 4.001955555555556e-06},
      {"2x3x2_xyz/reduce-scatter",
       0x3bcb0ae47ea00205ull, 0x8254a3123a4024a7ull, 4.0012222222222219e-06, 4.0012222222222219e-06},
      {"2x3x2_xyz/all-reduce",
       0x2db21cd2bff1dfe5ull, 0x5185a8e9331a9b3dull, 8.0009777777777773e-06, 8.0009777777777773e-06},
      {"4x1x1_x/matmul-reduce-scatter",
       0x23acc1f01661f793ull, 0x23acc1f01661f793ull, 3.0006133333333334e-06, 3.0008533333333332e-06},
      {"1x2x2_yz/all-gather-matmul",
       0x5156b58c80fe1c50ull, 0x5156b58c80fe1c50ull, 2.0015288888888891e-06, 2.001422222222222e-06},
  };
  const std::vector<GoldenRow> got = GoldenRowsNow();
  if (got == want) return;
  std::string table;
  for (const GoldenRow& r : got) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "      {\"%s\",\n       0x%016llxull, 0x%016llxull, %.17g, %.17g},\n",
                  r.name.c_str(), static_cast<unsigned long long>(r.got_hash),
                  static_cast<unsigned long long>(r.want_hash), r.got_time,
                  r.want_time);
    table += buf;
  }
  ADD_FAILURE() << "golden rows read now:\n" << table;
}

}  // namespace
}  // namespace tsi
