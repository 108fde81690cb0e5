// Execution tracing: events must tile each chip's virtual timeline, carry
// the right category names, and export valid Chrome-trace JSON.
#include "sim/trace.h"

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "hw/chip.h"
#include "sim/collectives.h"
#include "util/rng.h"

namespace tsi {
namespace {

TEST(TracerTest, RecordsAndTotals) {
  Tracer t;
  t.Record(0, "matmul", 0.0, 1.0);
  t.Record(0, "matmul", 1.0, 0.5);
  t.Record(1, "memory", 0.0, 2.0);
  auto totals = t.TotalsByName();
  EXPECT_DOUBLE_EQ(totals["matmul"], 1.5);
  EXPECT_DOUBLE_EQ(totals["memory"], 2.0);
  EXPECT_EQ(t.events().size(), 3u);
  t.Clear();
  EXPECT_TRUE(t.events().empty());
}

TEST(TracerTest, ChromeJsonShape) {
  Tracer t;
  t.Record(2, "all-gather(xy)", 1e-6, 2e-6);
  std::string json = t.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"all-gather(xy)\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TracerTest, MachineChargesAreTraced) {
  SimMachine m(Torus3D(2, 1, 1), TpuV4());
  Tracer tracer;
  m.AttachTracer(&tracer);
  m.ChargeCompute(0, 275e12);  // 1s
  m.ChargeMemory(1, 600e9);    // 0.5s
  m.ChargeComputeAndMemory(0, 1, 1, "attention");
  auto totals = tracer.TotalsByName();
  EXPECT_DOUBLE_EQ(totals["compute"], 1.0);
  EXPECT_DOUBLE_EQ(totals["memory"], 0.5);
  EXPECT_GT(totals["attention"], 0.0);
}

TEST(TracerTest, CollectivesAreTracedWithAxisNames) {
  SimMachine m(Torus3D(2, 2, 1), TpuV4());
  Tracer tracer;
  m.AttachTracer(&tracer);
  ShardVec in;
  for (int c = 0; c < 4; ++c) {
    Rng rng(static_cast<uint64_t>(c));
    in.push_back(Tensor::Gaussian({4, 4}, rng));
  }
  AllGather(m, in, kAxisX, 0);
  AllReduce(m, in, kAxisY);
  AllToAll(m, in, kAxisX | kAxisY, 0, 1);
  auto totals = tracer.TotalsByName();
  EXPECT_GT(totals["all-gather(x)"], 0.0);
  EXPECT_GT(totals["all-reduce(y)"], 0.0);
  EXPECT_GT(totals["all-to-all(xy)"], 0.0);
}

TEST(TracerTest, EventsTileEachChipTimeline) {
  // Tracing a real engine forward pass: per chip, events must be
  // non-overlapping, ordered, and sum (with idle gaps from clock syncs) to
  // at most the chip's final clock. Head-sharded attention, so the pass
  // runs collectives: batch-sharded attention on 2x2x1 runs purely data
  // parallel (core/replication.h, site 5) and traces none.
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 3);
  SimMachine machine(Torus3D(2, 2, 1), TpuV4());
  Tracer tracer;
  machine.AttachTracer(&tracer);
  EngineSpec spec;
  spec.attn = AttnSharding::kHeads;
  DistributedEngine engine(weights, &machine, spec);

  std::vector<int32_t> tokens(4 * 4, 1);
  engine.Prefill(tokens, 4);

  ASSERT_FALSE(tracer.events().empty());
  for (int chip = 0; chip < machine.num_chips(); ++chip) {
    double cursor = 0;
    double busy = 0;
    for (const auto& e : tracer.events()) {
      if (e.chip != chip) continue;
      EXPECT_GE(e.start + 1e-15, cursor) << "overlapping events on chip " << chip;
      cursor = e.start + e.duration;
      busy += e.duration;
    }
    EXPECT_LE(busy, machine.counters(chip).time + 1e-12);
    EXPECT_GT(busy, 0.0);
  }
  // The engine's categories are all present.
  auto totals = tracer.TotalsByName();
  EXPECT_GT(totals["matmul"], 0.0);
  EXPECT_GT(totals["attention"], 0.0);
  bool any_comm = false;
  for (const auto& [name, secs] : totals) {
    if (name.find("all-") == 0 || name.find("reduce-") == 0) any_comm = secs > 0 || any_comm;
  }
  EXPECT_TRUE(any_comm);
}

TEST(TracerTest, SummaryListsCategories) {
  Tracer t;
  t.Record(0, "matmul", 0, 3e-6);
  t.Record(0, "all-reduce(yz)", 3e-6, 1e-6);
  std::string s = t.Summary();
  EXPECT_NE(s.find("matmul"), std::string::npos);
  EXPECT_NE(s.find("all-reduce(yz)"), std::string::npos);
  EXPECT_NE(s.find("75%"), std::string::npos);
}

}  // namespace
}  // namespace tsi
