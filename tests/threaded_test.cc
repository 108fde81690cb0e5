// Threaded SPMD runtime: SpmdExecutor's rendezvous collectives, run with one
// execution slot per chip so every chip thread is live at once, must deliver
// the golden values computed straight from torus group membership -- on
// every mesh/axis combination and across many repeated rounds.
#include "sim/spmd.h"

#include <atomic>
#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "hw/chip.h"
#include "util/rng.h"

namespace tsi {
namespace {

std::vector<Tensor> RandomShards(int n, Shape shape, uint64_t seed) {
  std::vector<Tensor> shards;
  for (int c = 0; c < n; ++c) {
    Rng rng(Rng::DeriveSeed(seed, static_cast<uint64_t>(c)));
    shards.push_back(Tensor::Gaussian(shape, rng));
  }
  return shards;
}

// Runs `body` once per chip of `topo`, all chips concurrent; returns each
// chip's result.
std::vector<Tensor> RunChips(const Torus3D& topo,
                             const std::function<Tensor(SpmdContext&)>& body) {
  SimMachine machine(topo, TpuV4());
  SpmdExecutor ex(&machine);
  ex.set_slots(topo.num_chips());
  std::vector<Tensor> out(static_cast<size_t>(topo.num_chips()));
  ex.Run([&](SpmdContext& ctx) { out[static_cast<size_t>(ctx.chip())] = body(ctx); });
  return out;
}

// in[g] summed over chip c's group, in group order.
Tensor GroupSum(const Torus3D& topo, const std::vector<Tensor>& in, int c,
                unsigned mask) {
  std::vector<int> group = topo.GroupOf(c, mask);
  Tensor sum = in[static_cast<size_t>(group[0])];
  for (size_t i = 1; i < group.size(); ++i)
    sum.AddInPlace(in[static_cast<size_t>(group[i])]);
  return sum;
}

struct ThreadedCase {
  int x, y, z;
  unsigned mask;
};

std::string CaseName(const ::testing::TestParamInfo<ThreadedCase>& info) {
  const auto& p = info.param;
  return std::to_string(p.x) + "x" + std::to_string(p.y) + "x" +
         std::to_string(p.z) + "_" + AxisName(p.mask);
}

class ThreadedCollectiveTest : public ::testing::TestWithParam<ThreadedCase> {};

TEST_P(ThreadedCollectiveTest, AllGatherConcatenatesInGroupOrder) {
  auto p = GetParam();
  Torus3D topo(p.x, p.y, p.z);
  std::vector<Tensor> in = RandomShards(topo.num_chips(), {2, 3}, 1);
  std::vector<Tensor> got = RunChips(topo, [&](SpmdContext& ctx) {
    return ctx.AllGather(p.mask, in[static_cast<size_t>(ctx.chip())], 0);
  });
  for (int c = 0; c < topo.num_chips(); ++c) {
    std::vector<Tensor> parts;
    for (int g : topo.GroupOf(c, p.mask)) parts.push_back(in[static_cast<size_t>(g)]);
    EXPECT_EQ(MaxAbsDiff(got[static_cast<size_t>(c)], Tensor::Concat(0, parts)), 0.0f)
        << "chip " << c;
  }
}

TEST_P(ThreadedCollectiveTest, ReduceScatterKeepsRankChunkOfGroupSum) {
  auto p = GetParam();
  Torus3D topo(p.x, p.y, p.z);
  const int k = topo.GroupSize(p.mask);
  std::vector<Tensor> in =
      RandomShards(topo.num_chips(), {static_cast<int64_t>(4 * k), 3}, 2);
  std::vector<Tensor> got = RunChips(topo, [&](SpmdContext& ctx) {
    return ctx.ReduceScatter(p.mask, in[static_cast<size_t>(ctx.chip())], 0);
  });
  for (int c = 0; c < topo.num_chips(); ++c) {
    Tensor want = GroupSum(topo, in, c, p.mask)
                      .Chunk(0, k, topo.RankInGroup(c, p.mask));
    EXPECT_EQ(MaxAbsDiff(got[static_cast<size_t>(c)], want), 0.0f) << "chip " << c;
  }
}

TEST_P(ThreadedCollectiveTest, AllReduceIsGroupOrderSum) {
  auto p = GetParam();
  Torus3D topo(p.x, p.y, p.z);
  std::vector<Tensor> in = RandomShards(topo.num_chips(), {3, 5}, 3);
  std::vector<Tensor> got = RunChips(topo, [&](SpmdContext& ctx) {
    return ctx.AllReduce(p.mask, in[static_cast<size_t>(ctx.chip())]);
  });
  for (int c = 0; c < topo.num_chips(); ++c)
    EXPECT_EQ(MaxAbsDiff(got[static_cast<size_t>(c)], GroupSum(topo, in, c, p.mask)),
              0.0f)
        << "chip " << c;
}

TEST_P(ThreadedCollectiveTest, AllToAllConcatenatesRankChunks) {
  auto p = GetParam();
  Torus3D topo(p.x, p.y, p.z);
  const int k = topo.GroupSize(p.mask);
  std::vector<Tensor> in =
      RandomShards(topo.num_chips(), {static_cast<int64_t>(2 * k), 3}, 4);
  std::vector<Tensor> got = RunChips(topo, [&](SpmdContext& ctx) {
    return ctx.AllToAll(p.mask, in[static_cast<size_t>(ctx.chip())], 0, 1);
  });
  for (int c = 0; c < topo.num_chips(); ++c) {
    const int r = topo.RankInGroup(c, p.mask);
    std::vector<Tensor> parts;
    for (int g : topo.GroupOf(c, p.mask))
      parts.push_back(in[static_cast<size_t>(g)].Chunk(0, k, r));
    EXPECT_EQ(MaxAbsDiff(got[static_cast<size_t>(c)], Tensor::Concat(1, parts)), 0.0f)
        << "chip " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Meshes, ThreadedCollectiveTest,
    ::testing::Values(ThreadedCase{1, 1, 1, kAxisXYZ},
                      ThreadedCase{4, 1, 1, kAxisX},
                      ThreadedCase{2, 2, 1, kAxisY},
                      ThreadedCase{2, 2, 2, kAxisY | kAxisZ},
                      ThreadedCase{2, 2, 2, kAxisXYZ},
                      ThreadedCase{2, 3, 2, kAxisXY}),
    CaseName);

// Many rounds over overlapping groups in one region: the epoch machinery
// must keep rounds separate even when fast threads lap slow ones.
TEST(ThreadedStressTest, RepeatedRoundsStayConsistent) {
  Torus3D topo(2, 2, 2);
  const int rounds = 200;
  std::atomic<int> failures{0};
  RunChips(topo, [&](SpmdContext& ctx) {
    const int chip = ctx.chip();
    for (int r = 0; r < rounds; ++r) {
      // Alternate axes so groups interleave.
      unsigned mask = (r % 3 == 0) ? kAxisX : (r % 3 == 1) ? kAxisY | kAxisZ : kAxisXYZ;
      Tensor sum = ctx.AllReduce(mask, Tensor::Full({4}, static_cast<float>(chip + r)));
      // Expected: sum over group members of (member + r).
      double want = 0;
      for (int g : topo.GroupOf(chip, mask)) want += g + r;
      if (std::fabs(sum[0] - want) > 1e-4) failures.fetch_add(1);
    }
    return Tensor();
  });
  EXPECT_EQ(failures.load(), 0);
}

// A distributed matmul written SPMD-style: each chip owns a column shard of
// B, computes its partial product, and all-gathers the result.
TEST(ThreadedSpmdTest, ColumnShardedMatMul) {
  Torus3D topo(1, 2, 2);
  const int n = topo.num_chips();
  Rng rng(7);
  Tensor a = Tensor::Gaussian({6, 8}, rng);
  Tensor b = Tensor::Gaussian({8, 12}, rng);
  Tensor want = MatMul(a, b);
  std::vector<Tensor> got = RunChips(topo, [&](SpmdContext& ctx) {
    const int r = topo.RankInGroup(ctx.chip(), kAxisXYZ);
    return ctx.AllGather(kAxisXYZ, MatMul(a, b.Chunk(1, n, r)), 1);
  });
  for (int c = 0; c < n; ++c)
    EXPECT_LT(MaxAbsDiff(got[static_cast<size_t>(c)], want), 1e-5f);
}

// A collective is a barrier: after it, every chip observes every other
// chip's earlier writes.
TEST(ThreadedSpmdTest, CollectiveSynchronizes) {
  Torus3D topo(2, 2, 1);
  std::atomic<int> phase1{0};
  std::atomic<bool> ok{true};
  RunChips(topo, [&](SpmdContext& ctx) {
    phase1.fetch_add(1);
    ctx.AllReduce(kAxisXYZ, Tensor::Zeros({1}));
    if (phase1.load() != topo.num_chips()) ok = false;
    return Tensor();
  });
  EXPECT_TRUE(ok.load());
}

}  // namespace
}  // namespace tsi
