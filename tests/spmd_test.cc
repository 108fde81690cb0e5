// Parallel lockstep SPMD determinism: a full engine forward pass must be
// bit-identical -- logits, per-chip counters, and trace event streams --
// whether the chip closures run on 1 execution slot (honest serialized
// baseline) or on many concurrently. Also covers the SlotGate invariants:
// concurrency is bounded by the slot count, and a rendezvous between more
// chips than slots does not deadlock (parked chips release their slot).
#include "sim/spmd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "engine/engine.h"
#include "hw/chip.h"
#include "model/reference.h"
#include "sim/machine.h"
#include "util/rng.h"

namespace tsi {
namespace {

std::vector<int32_t> RandomTokens(int64_t n, int64_t vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> t(static_cast<size_t>(n));
  for (auto& v : t)
    v = static_cast<int32_t>(rng.NextBelow(static_cast<uint64_t>(vocab)));
  return t;
}

::testing::AssertionResult BitIdentical(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return ::testing::AssertionFailure() << "shape";
  if (std::memcmp(a.data(), b.data(),
                  static_cast<size_t>(a.numel()) * sizeof(float)) != 0)
    return ::testing::AssertionFailure() << "bytes differ";
  return ::testing::AssertionSuccess();
}

struct RunResult {
  Tensor prefill_logits;
  Tensor decode_logits;
  std::vector<ChipCounters> counters;
  std::vector<TraceEvent> events;
  std::string trace_json;  // exported Chrome trace, byte-compared
};

// Runs prefill + one decode step on a 2x2x2 mesh with the given slot count
// and returns everything observable: logits, per-chip counters, trace.
RunResult RunWorkload(EngineSpec spec, int slots) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 42);
  SimMachine machine(Torus3D(2, 2, 2), TpuV4());
  Tracer tracer;
  machine.AttachTracer(&tracer);
  DistributedEngine engine(weights, &machine, spec);
  engine.spmd().set_slots(slots);

  const int64_t B = 8, L = 4;
  RunResult r;
  r.prefill_logits = engine.Prefill(RandomTokens(B * L, cfg.vocab_size, 7), B);
  r.decode_logits = engine.DecodeStep(RandomTokens(B, cfg.vocab_size, 8));
  for (int c = 0; c < machine.num_chips(); ++c)
    r.counters.push_back(machine.counters(c));
  r.events = tracer.events();
  r.trace_json = tracer.ToChromeTraceJson();
  return r;
}

void ExpectIdenticalRuns(const RunResult& a, const RunResult& b) {
  EXPECT_TRUE(BitIdentical(a.prefill_logits, b.prefill_logits))
      << "prefill logits";
  EXPECT_TRUE(BitIdentical(a.decode_logits, b.decode_logits))
      << "decode logits";

  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (size_t c = 0; c < a.counters.size(); ++c) {
    EXPECT_EQ(a.counters[c].time, b.counters[c].time) << "chip " << c;
    EXPECT_EQ(a.counters[c].flops, b.counters[c].flops) << "chip " << c;
    EXPECT_EQ(a.counters[c].hbm_bytes, b.counters[c].hbm_bytes) << "chip " << c;
    EXPECT_EQ(a.counters[c].network_bytes, b.counters[c].network_bytes)
        << "chip " << c;
  }

  ASSERT_EQ(a.events.size(), b.events.size()) << "trace event count";
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].chip, b.events[i].chip) << "event " << i;
    EXPECT_EQ(a.events[i].name, b.events[i].name) << "event " << i;
    EXPECT_EQ(a.events[i].start, b.events[i].start) << "event " << i;
    EXPECT_EQ(a.events[i].duration, b.events[i].duration) << "event " << i;
  }

  // The exported Chrome JSON -- double formatting included -- is also part
  // of the determinism contract (the observability golden tests build on it).
  EXPECT_EQ(a.trace_json, b.trace_json) << "exported trace JSON";
}

TEST(SpmdDeterminismTest, WeightStationaryHeadsSlotCountInvariant) {
  EngineSpec spec;  // WS-2D prefill + decode, head-sharded attention
  RunResult serial = RunWorkload(spec, 1);
  for (int slots : {2, 8}) {
    RunResult parallel = RunWorkload(spec, slots);
    ExpectIdenticalRuns(serial, parallel);
  }
}

TEST(SpmdDeterminismTest, WeightGatheredBatchSlotCountInvariant) {
  // The other region shape: weight-gathered prefill + weight-stationary
  // decode with batch-sharded attention (all-to-all resharding paths).
  EngineSpec spec;
  spec.prefill_ffn = FfnLayout::kWGXYZ;
  spec.decode_ffn = FfnLayout::kWS2D;
  spec.attn = AttnSharding::kBatch;
  ExpectIdenticalRuns(RunWorkload(spec, 1), RunWorkload(spec, 8));
}

TEST(SpmdDeterminismTest, FusedCollectivesSlotCountInvariant) {
  EngineSpec spec;
  spec.fuse_collectives = true;  // pipelined MatMulReduceScatter charging
  ExpectIdenticalRuns(RunWorkload(spec, 1), RunWorkload(spec, 8));
}

TEST(SpmdExecutorTest, SlotGateBoundsConcurrency) {
  SimMachine machine(Torus3D(1, 4, 2), TpuV4());
  SpmdExecutor ex(&machine);
  ex.set_slots(2);
  std::atomic<int> current{0}, peak{0};
  ex.Run([&](SpmdContext& ctx) {
    int now = current.fetch_add(1) + 1;
    int prev = peak.load();
    while (prev < now && !peak.compare_exchange_weak(prev, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    current.fetch_sub(1);
    // Rendezvous of all 8 chips on 2 slots: parked chips must release
    // their slot or this deadlocks.
    Tensor sum = ctx.AllReduce(kAxisXYZ, Tensor::Full({1}, 1.0f));
    EXPECT_EQ(sum[0], 8.0f) << "chip " << ctx.chip();
  });
  EXPECT_LE(peak.load(), 2) << "more closures computing than slots";
  EXPECT_GE(peak.load(), 1);
}

TEST(SpmdExecutorTest, SingleChipRunsInline) {
  SimMachine machine(Torus3D(1, 1, 1), TpuV4());
  SpmdExecutor ex(&machine);
  int calls = 0;
  ex.Run([&](SpmdContext& ctx) {
    EXPECT_EQ(ctx.chip(), 0);
    // Self-collectives are identity (and charge nothing for k == 1).
    Tensor t = ctx.AllReduce(kAxisXYZ, Tensor::Full({3}, 2.0f));
    EXPECT_EQ(t[1], 2.0f);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(machine.counters(0).network_bytes, 0.0);
}

TEST(SpmdExecutorTest, CollectiveChargesMatchSerialFormulas) {
  // One all-gather over y on a 1x4x1 mesh: entry barrier to the max clock,
  // AllGatherTime on the clock, (k-1)/k of the output bytes as egress.
  SimMachine machine(Torus3D(1, 4, 1), TpuV4());
  SpmdExecutor ex(&machine);
  machine.AdvanceTime(2, 1e-3);  // stagger one clock; barrier takes the max
  ex.Run([&](SpmdContext& ctx) {
    Tensor part = Tensor::Full({4, 8}, static_cast<float>(ctx.chip()));
    Tensor full = ctx.AllGather(kAxisY, std::move(part), 0);
    EXPECT_EQ(full.dim(0), 16);
    EXPECT_EQ(full[0], 0.0f);               // rank 0's rows first
    EXPECT_EQ(full[15 * 8], 3.0f);          // rank 3's rows last
  });
  double out_bytes = 16 * 8 * machine.bytes_per_element();
  double want_t = 1e-3 + machine.comm_cost().AllGatherTime(out_bytes, 4);
  for (int c = 0; c < 4; ++c) {
    EXPECT_DOUBLE_EQ(machine.counters(c).time, want_t) << "chip " << c;
    EXPECT_DOUBLE_EQ(machine.counters(c).network_bytes, out_bytes * 3 / 4)
        << "chip " << c;
  }
}

// Closed form of a ring collective run as one ring per torus axis
// (Appendix A.1): reduce-scatters walk the axes in reverse order (all-gathers
// forward, same terms), and axis a's ring carries D_a = D / prod_{b>a} k_b,
// paying Alpha(k_a) + D_a / bw * Factor(k_a).
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

// Tuple collectives (SpmdContext::AllGatherMany / ReduceScatterMany /
// AllToAllMany): each member bit-identical to its single-tensor call, the
// whole tuple charged as one collective, and slot-count invariant like
// everything else.
enum class TupleOp { kAllGather, kReduceScatter, kAllToAll };

const char* TupleName(TupleOp op) {
  switch (op) {
    case TupleOp::kAllGather: return "all-gather";
    case TupleOp::kReduceScatter: return "reduce-scatter";
    case TupleOp::kAllToAll: return "all-to-all";
  }
  return "";
}

struct TupleRun {
  std::vector<std::vector<Tensor>> out;  // [chip][member]
  std::vector<ChipCounters> counters;
  std::vector<TraceEvent> events;
};

// Members of mixed rank and split dim; every split extent, and every dim 0
// (the all-to-all's split dim), divides by 8.
std::vector<Tensor> TupleMembers(int chip) {
  Rng rng(Rng::DeriveSeed(99, static_cast<uint64_t>(chip)));
  std::vector<Tensor> ts;
  ts.push_back(Tensor::Gaussian({16, 6}, rng));
  ts.push_back(Tensor::Gaussian({8, 8}, rng));
  ts.push_back(Tensor::Gaussian({8, 8, 5}, rng));
  return ts;
}
const std::vector<int64_t> kTupleDims = {0, 1, 1};
const unsigned kTupleMasks[] = {kAxisX, kAxisY | kAxisZ, kAxisXYZ};
const TupleOp kTupleOps[] = {TupleOp::kAllGather, TupleOp::kReduceScatter,
                             TupleOp::kAllToAll};

// many: one tuple call; else one single-tensor call per member, in member
// order. The all-to-all splits dim 0 and concatenates along dim 1.
TupleRun RunTuple(unsigned mask, TupleOp op, bool many, int slots) {
  SimMachine machine(Torus3D(2, 2, 2), TpuV4());
  Tracer tracer;
  machine.AttachTracer(&tracer);
  SpmdExecutor ex(&machine);
  ex.set_slots(slots);
  TupleRun r;
  r.out.resize(static_cast<size_t>(machine.num_chips()));
  ex.Run([&](SpmdContext& ctx) {
    std::vector<Tensor> ts = TupleMembers(ctx.chip());
    std::vector<Tensor>& out = r.out[static_cast<size_t>(ctx.chip())];
    if (many) {
      switch (op) {
        case TupleOp::kAllGather:
          out = ctx.AllGatherMany(mask, std::move(ts), kTupleDims);
          break;
        case TupleOp::kReduceScatter:
          out = ctx.ReduceScatterMany(mask, std::move(ts), kTupleDims);
          break;
        case TupleOp::kAllToAll:
          out = ctx.AllToAllMany(mask, std::move(ts), 0, 1);
          break;
      }
      return;
    }
    for (size_t j = 0; j < ts.size(); ++j) {
      switch (op) {
        case TupleOp::kAllGather:
          out.push_back(ctx.AllGather(mask, ts[j], kTupleDims[j]));
          break;
        case TupleOp::kReduceScatter:
          out.push_back(ctx.ReduceScatter(mask, ts[j], kTupleDims[j]));
          break;
        case TupleOp::kAllToAll:
          out.push_back(ctx.AllToAll(mask, ts[j], 0, 1));
          break;
      }
    }
  });
  for (int c = 0; c < machine.num_chips(); ++c)
    r.counters.push_back(machine.counters(c));
  r.events = tracer.events();
  return r;
}

TEST(SpmdTupleCollectiveTest, ManyIsBitIdenticalToPerMemberCalls) {
  for (unsigned mask : kTupleMasks) {
    for (TupleOp op : kTupleOps) {
      TupleRun single = RunTuple(mask, op, /*many=*/false, 8);
      TupleRun many = RunTuple(mask, op, /*many=*/true, 8);
      for (size_t c = 0; c < single.out.size(); ++c) {
        ASSERT_EQ(many.out[c].size(), single.out[c].size());
        for (size_t j = 0; j < single.out[c].size(); ++j)
          EXPECT_TRUE(BitIdentical(many.out[c][j], single.out[c][j]))
              << TupleName(op) << "(" << AxisName(mask) << ") chip " << c
              << " member " << j;
        EXPECT_DOUBLE_EQ(many.counters[c].network_bytes,
                         single.counters[c].network_bytes)
            << "egress is the members' sum";
      }
    }
  }
}

TEST(SpmdTupleCollectiveTest, ManyChargesOneCollective) {
  const Torus3D mesh(2, 2, 2);
  for (unsigned mask : kTupleMasks) {
    const int k = static_cast<int>(mesh.GroupOf(0, mask).size());
    for (TupleOp op : kTupleOps) {
      TupleRun r = RunTuple(mask, op, /*many=*/true, 8);
      SimMachine probe(mesh, TpuV4());
      const CommCostModel& cm = probe.comm_cost();
      // Summed bytes: the gathered outputs (all-gather) or the full
      // per-chip inputs (reduce-scatter, all-to-all).
      double bytes = 0;
      for (const Tensor& t : TupleMembers(0))
        bytes += static_cast<double>(t.numel()) * probe.bytes_per_element();
      if (op == TupleOp::kAllGather) bytes *= k;
      // One latency term plus the bandwidth term on the summed bytes: one
      // hop for the all-to-all, one ring per torus axis otherwise.
      const double want = op == TupleOp::kAllToAll
                              ? cm.AllToAllTime(bytes, k)
                              : PerAxisRingTime(mesh, mask, cm, bytes);
      for (size_t c = 0; c < r.counters.size(); ++c) {
        EXPECT_DOUBLE_EQ(r.counters[c].time, want)
            << TupleName(op) << "(" << AxisName(mask) << ") chip " << c;
        EXPECT_DOUBLE_EQ(r.counters[c].network_bytes, bytes * (k - 1) / k);
      }
      // One trace event per chip, under the single-tensor name.
      ASSERT_EQ(r.events.size(), r.counters.size());
      const std::string name =
          std::string(TupleName(op)) + "(" + AxisName(mask) + ")";
      for (const TraceEvent& e : r.events) EXPECT_EQ(e.name, name);
    }
  }
}

TEST(SpmdTupleCollectiveTest, ManySlotCountInvariant) {
  for (TupleOp op : kTupleOps) {
    TupleRun one = RunTuple(kAxisXYZ, op, /*many=*/true, 1);
    TupleRun eight = RunTuple(kAxisXYZ, op, /*many=*/true, 8);
    for (size_t c = 0; c < one.out.size(); ++c) {
      for (size_t j = 0; j < one.out[c].size(); ++j)
        EXPECT_TRUE(BitIdentical(one.out[c][j], eight.out[c][j]))
            << TupleName(op) << " chip " << c << " member " << j;
      EXPECT_EQ(one.counters[c].time, eight.counters[c].time);
      EXPECT_EQ(one.counters[c].network_bytes, eight.counters[c].network_bytes);
    }
  }
}

// MatMulReduceScatterMany: the same data as ReduceScatterMany over the
// members plus the computed partials, in one pipelined collective that
// beats charging the matmuls and then the reduce-scatter.
TEST(SpmdTupleCollectiveTest, MatMulReduceScatterManyIsOnePipelinedCollective) {
  const Torus3D mesh(2, 2, 2);
  for (unsigned mask : {kAxisX, kAxisXYZ}) {
    TupleRun looped, serial;
    for (bool pipelined : {true, false}) {
      TupleRun& r = pipelined ? looped : serial;
      SimMachine machine(mesh, TpuV4());
      Tracer tracer;
      machine.AttachTracer(&tracer);
      SpmdExecutor ex(&machine);
      r.out.resize(static_cast<size_t>(machine.num_chips()));
      ex.Run([&](SpmdContext& ctx) {
        Rng rng(Rng::DeriveSeed(7, static_cast<uint64_t>(ctx.chip())));
        const Tensor x = Tensor::Gaussian({8, 6}, rng);
        const Tensor w1 = Tensor::Gaussian({6, 8}, rng);
        const Tensor w2 = Tensor::Gaussian({6, 16}, rng);
        std::vector<Tensor> ts = TupleMembers(ctx.chip());
        std::vector<int64_t> dims = kTupleDims;
        std::vector<Tensor>& out = r.out[static_cast<size_t>(ctx.chip())];
        if (pipelined) {
          out = ctx.MatMulReduceScatterMany(mask, std::move(ts), dims, x,
                                            {&w1, &w2});
          return;
        }
        for (const Tensor* w : {&w1, &w2}) {
          ts.push_back(MatMul(x, *w));
          dims.push_back(1);
          ctx.machine().ChargeComputeAndMemory(
              ctx.chip(), 2.0 * x.dim(0) * w->dim(0) * w->dim(1),
              static_cast<double>(w->numel()) * 2.0, "matmul");
        }
        out = ctx.ReduceScatterMany(mask, std::move(ts), dims);
      });
      for (int c = 0; c < machine.num_chips(); ++c)
        r.counters.push_back(machine.counters(c));
      r.events = tracer.events();
    }
    ASSERT_EQ(looped.events.size(), looped.counters.size());
    for (const TraceEvent& e : looped.events)
      EXPECT_EQ(e.name, "looped-matmul-rs");
    // Closed form: the matmuls (x [8, 6] times w1 [6, 8] and w2 [6, 16])
    // chunk over the ring of the mask's last axis, k_o chunks under k_o - 1
    // steps of hop + (D / k_o) / bw; the other axes' rings then carry
    // D / k_o as plain ring steps -- the unfused reduce-scatter's hops.
    SimMachine probe(mesh, TpuV4());
    const CommCostModel& cm = probe.comm_cost();
    const ChipSpec& chip = probe.chip();
    double elems = 8 * 8 + 8 * 16;  // the two matmul outputs
    for (const Tensor& t : TupleMembers(0))
      elems += static_cast<double>(t.numel());
    const double flops = 2.0 * 8 * 6 * (8 + 16);
    const double wbytes = 6.0 * (8 + 16) * 2.0;
    const unsigned last =
        (mask & kAxisZ) ? kAxisZ : (mask & kAxisY) ? kAxisY : kAxisX;
    const int ko = mesh.GroupSize(last);
    const double t_chunk = std::max(chip.ComputeTime(flops / ko),
                                    chip.MemoryTime(wbytes / ko));
    const double step_bytes = elems / ko * probe.bytes_per_element();
    const double t_step = cm.hop_latency + step_bytes / cm.network_bw;
    const double want = t_chunk + (ko - 1) * std::max(t_chunk, t_step) +
                        PerAxisRingTime(mesh, mask & ~last, cm, step_bytes);
    for (size_t c = 0; c < looped.out.size(); ++c) {
      ASSERT_EQ(looped.out[c].size(), serial.out[c].size());
      for (size_t j = 0; j < looped.out[c].size(); ++j)
        EXPECT_TRUE(BitIdentical(looped.out[c][j], serial.out[c][j]))
            << AxisName(mask) << " chip " << c << " member " << j;
      EXPECT_DOUBLE_EQ(looped.counters[c].network_bytes,
                       serial.counters[c].network_bytes);
      EXPECT_LT(looped.counters[c].time, serial.counters[c].time)
          << "pipelining should hide something";
      EXPECT_DOUBLE_EQ(looped.counters[c].time, want) << AxisName(mask);
    }
  }
}

// All-reduce charges: over one 2-chip axis a single exchange of the full
// buffer (hop + D / bw, egress D, one event: RS + AG's bytes in one hop);
// otherwise the per-axis reduce-scatter and all-gather legs (two events,
// egress twice the flat ring's D (K-1)/K), which over a single axis of
// k >= 3 chips is exactly the flat AllReduceTime. Slot counts 1 and 8 give
// identical clocks and traces.
TEST(SpmdAllReduceTest, ExchangeOverTwoChipAxisElsePerAxisLegs) {
  struct Case {
    Torus3D mesh;
    unsigned mask;
  };
  const Case cases[] = {{Torus3D(2, 2, 2), kAxisX},
                        {Torus3D(2, 2, 2), kAxisY | kAxisZ},
                        {Torus3D(2, 2, 2), kAxisXYZ},
                        {Torus3D(2, 2, 1), kAxisY | kAxisZ},
                        {Torus3D(4, 2, 1), kAxisXY},
                        {Torus3D(1, 4, 1), kAxisY},
                        {Torus3D(2, 3, 2), kAxisY}};
  for (const Case& cs : cases) {
    const std::string name = cs.mesh.ToString() + " " + AxisName(cs.mask);
    TupleRun runs[2];
    for (int i = 0; i < 2; ++i) {
      SimMachine machine(cs.mesh, TpuV4());
      Tracer tracer;
      machine.AttachTracer(&tracer);
      SpmdExecutor ex(&machine);
      ex.set_slots(i == 0 ? 1 : 8);
      ex.Run([&](SpmdContext& ctx) {
        ctx.AllReduce(cs.mask,
                      Tensor::Full({6, 4}, static_cast<float>(ctx.chip())));
      });
      for (int c = 0; c < machine.num_chips(); ++c)
        runs[i].counters.push_back(machine.counters(c));
      runs[i].events = tracer.events();
    }
    SimMachine probe(cs.mesh, TpuV4());
    const CommCostModel& cm = probe.comm_cost();
    const double D = 6 * 4 * probe.bytes_per_element();
    const int k = cs.mesh.GroupSize(cs.mask);
    int axes = 0;
    for (unsigned a : {kAxisX, kAxisY, kAxisZ})
      if ((cs.mask & a) && cs.mesh.GroupSize(a) > 1) ++axes;
    double want_t = 2 * PerAxisRingTime(cs.mesh, cs.mask, cm, D);
    double want_bytes = 2 * D * (k - 1) / k;
    size_t events = 2;
    if (axes == 1 && k == 2) {
      want_t = cm.hop_latency + D / cm.network_bw;
      want_bytes = D;
      events = 1;
    } else if (axes == 1) {
      EXPECT_DOUBLE_EQ(want_t, cm.AllReduceTime(D, k)) << name;
    }
    const TupleRun& r = runs[0];
    for (size_t c = 0; c < r.counters.size(); ++c) {
      EXPECT_DOUBLE_EQ(r.counters[c].time, want_t) << name << " chip " << c;
      EXPECT_DOUBLE_EQ(r.counters[c].network_bytes, want_bytes)
          << name << " chip " << c;
      EXPECT_EQ(r.counters[c].time, runs[1].counters[c].time) << name;
      EXPECT_EQ(r.counters[c].network_bytes, runs[1].counters[c].network_bytes)
          << name;
    }
    ASSERT_EQ(r.events.size(), events * r.counters.size()) << name;
    ASSERT_EQ(r.events.size(), runs[1].events.size()) << name;
    for (size_t i = 0; i < r.events.size(); ++i) {
      EXPECT_EQ(r.events[i].name, "all-reduce(" + AxisName(cs.mask) + ")");
      EXPECT_EQ(r.events[i].chip, runs[1].events[i].chip) << name;
      EXPECT_EQ(r.events[i].start, runs[1].events[i].start) << name;
      EXPECT_EQ(r.events[i].duration, runs[1].events[i].duration) << name;
    }
  }
}

// Ragged row splits: a collective whose ranks hold different row extents
// (SpmdContext::Extents). Its values equal the real rows of the same
// collective run on rows padded to the largest extent; equal extents charge
// exactly the even closed forms; an uneven charge is never above the padded
// one and never below the busiest member's bytes over the link bandwidth.
enum class RaggedOp {
  kReduceScatter,
  kAllGather,
  kAllToAllSplit,
  kAllToAllConcat
};

const char* RaggedName(RaggedOp op) {
  switch (op) {
    case RaggedOp::kReduceScatter: return "reduce-scatter";
    case RaggedOp::kAllGather: return "all-gather";
    case RaggedOp::kAllToAllSplit: return "all-to-all rows->heads";
    case RaggedOp::kAllToAllConcat: return "all-to-all heads->rows";
  }
  return "";
}

struct RaggedGroup {
  Torus3D mesh;
  unsigned mask;
  SpmdContext::Extents uneven;  // one rank holds a single row
};

// Group sizes 2 and 4: one x ring, two rings (x then y), one y ring.
const RaggedGroup kRaggedGroups[] = {{Torus3D(2, 2, 1), kAxisX, {5, 1}},
                                     {Torus3D(2, 2, 1), kAxisXYZ, {3, 1, 6, 2}},
                                     {Torus3D(1, 4, 1), kAxisY, {3, 1, 6, 2}}};

int64_t Sum(const SpmdContext::Extents& e) {
  int64_t n = 0;
  for (int64_t v : e) n += v;
  return n;
}

// Rows of `t` cut into blocks of extents `e`, each block zero-padded to `m`
// rows: the frame the padded collective runs on.
Tensor PadBlocks(const Tensor& t, const SpmdContext::Extents& e, int64_t m) {
  std::vector<Tensor> blocks;
  int64_t first = 0;
  for (int64_t rows : e) {
    Shape pad = t.shape();
    pad[0] = m - rows;
    blocks.push_back(t.Slice(0, first, rows));
    if (m > rows) blocks.push_back(Tensor::Zeros(pad));
    first += rows;
  }
  return Tensor::Concat(0, blocks);
}

// The real rows of a padded result: the first e[q] rows of each m-row block.
Tensor UnpadBlocks(const Tensor& t, const SpmdContext::Extents& e, int64_t m) {
  std::vector<Tensor> blocks;
  for (size_t q = 0; q < e.size(); ++q)
    blocks.push_back(t.Slice(0, static_cast<int64_t>(q) * m, e[q]));
  return Tensor::Concat(0, blocks);
}

// Runs `op` on `g` with rank r holding ext[r] rows -- ragged, or padded to
// the largest extent and split evenly. Member 0 carries the rows; the
// reduce-scatter and all-gather add an evenly split member 1, the
// split-side all-to-all a second row member. Every result is returned
// unpadded (the real rows only).
TupleRun RunRagged(const RaggedGroup& g, RaggedOp op,
                   const SpmdContext::Extents& ext, bool padded) {
  SimMachine machine(g.mesh, TpuV4());
  SpmdExecutor ex(&machine);
  ex.set_slots(8);
  const auto k = static_cast<int64_t>(ext.size());
  const int64_t m = *std::max_element(ext.begin(), ext.end());
  const int64_t w = 2 * k;  // a width every group size divides
  const SpmdContext::Extents even(ext.size(), m);
  TupleRun r;
  r.out.resize(static_cast<size_t>(machine.num_chips()));
  ex.Run([&](SpmdContext& ctx) {
    const int rank = ctx.topo().RankInGroup(ctx.chip(), g.mask);
    const int64_t mine = ext[static_cast<size_t>(rank)];
    Rng rng(Rng::DeriveSeed(77, static_cast<uint64_t>(ctx.chip())));
    std::vector<Tensor>& out = r.out[static_cast<size_t>(ctx.chip())];
    switch (op) {
      case RaggedOp::kReduceScatter: {
        Tensor rows = Tensor::Gaussian({Sum(ext), 3}, rng);
        Tensor cols = Tensor::Gaussian({2, w}, rng);
        std::vector<Tensor> ts;
        ts.push_back(padded ? PadBlocks(rows, ext, m) : rows);
        ts.push_back(cols);
        out = ctx.ReduceScatterMany(g.mask, std::move(ts), {0, 1},
                                    {padded ? even : ext, {}});
        if (padded) out[0] = out[0].Slice(0, 0, mine);
        break;
      }
      case RaggedOp::kAllGather: {
        Tensor rows = Tensor::Gaussian({mine, 3}, rng);
        Tensor cols = Tensor::Gaussian({2, 2}, rng);
        std::vector<Tensor> ts;
        ts.push_back(padded ? PadBlocks(rows, {mine}, m) : rows);
        ts.push_back(cols);
        out = ctx.AllGatherMany(g.mask, std::move(ts), {0, 1},
                                {padded ? even : ext, {}});
        if (padded) out[0] = UnpadBlocks(out[0], ext, m);
        break;
      }
      case RaggedOp::kAllToAllSplit: {
        Tensor a = Tensor::Gaussian({Sum(ext), w}, rng);
        Tensor b = Tensor::Gaussian({Sum(ext), k, 3}, rng);
        std::vector<Tensor> ts;
        ts.push_back(padded ? PadBlocks(a, ext, m) : a);
        ts.push_back(padded ? PadBlocks(b, ext, m) : b);
        out = ctx.AllToAllMany(g.mask, std::move(ts), 0, 1,
                               padded ? even : ext);
        if (padded)
          for (Tensor& o : out) o = o.Slice(0, 0, mine);
        break;
      }
      case RaggedOp::kAllToAllConcat: {
        Tensor a = Tensor::Gaussian({mine, w}, rng);
        std::vector<Tensor> ts;
        ts.push_back(padded ? PadBlocks(a, {mine}, m) : a);
        out = ctx.AllToAllMany(g.mask, std::move(ts), 1, 0, {},
                               padded ? even : ext);
        if (padded) out[0] = UnpadBlocks(out[0], ext, m);
        break;
      }
    }
  });
  for (int c = 0; c < machine.num_chips(); ++c)
    r.counters.push_back(machine.counters(c));
  return r;
}

const RaggedOp kRaggedOps[] = {RaggedOp::kReduceScatter, RaggedOp::kAllGather,
                               RaggedOp::kAllToAllSplit,
                               RaggedOp::kAllToAllConcat};

TEST(SpmdRaggedCollectiveTest, ValuesEqualThePaddedCollectivesRealRows) {
  for (const RaggedGroup& g : kRaggedGroups) {
    for (RaggedOp op : kRaggedOps) {
      const std::string name = std::string(RaggedName(op)) + "(" +
                               AxisName(g.mask) + ") on " + g.mesh.ToString();
      const TupleRun ragged = RunRagged(g, op, g.uneven, /*padded=*/false);
      const TupleRun padded = RunRagged(g, op, g.uneven, /*padded=*/true);
      for (size_t c = 0; c < ragged.out.size(); ++c) {
        ASSERT_EQ(ragged.out[c].size(), padded.out[c].size()) << name;
        for (size_t j = 0; j < ragged.out[c].size(); ++j)
          EXPECT_TRUE(BitIdentical(ragged.out[c][j], padded.out[c][j]))
              << name << " chip " << c << " member " << j;
      }
    }
  }
}

TEST(SpmdRaggedCollectiveTest, EqualExtentsChargeTheEvenClosedForms) {
  for (const RaggedGroup& g : kRaggedGroups) {
    const auto k = static_cast<int64_t>(g.uneven.size());
    const SpmdContext::Extents equal(g.uneven.size(), 2);
    SimMachine probe(g.mesh, TpuV4());
    const CommCostModel& cm = probe.comm_cost();
    const double bpe = probe.bytes_per_element();
    for (RaggedOp op : kRaggedOps) {
      const std::string name = std::string(RaggedName(op)) + "(" +
                               AxisName(g.mask) + ") on " + g.mesh.ToString();
      // The even formulas' per-chip buffer D: the full inputs for the
      // reduce-scatter, the gathered outputs for the all-gather, the
      // deposit for the all-to-all.
      double elems = 0;
      switch (op) {
        case RaggedOp::kReduceScatter: elems = 2 * k * 3 + 2 * 2 * k; break;
        case RaggedOp::kAllGather: elems = k * (2 * 3 + 2 * 2); break;
        case RaggedOp::kAllToAllSplit:
          elems = 2 * k * 2 * k + 2 * k * k * 3;
          break;
        case RaggedOp::kAllToAllConcat: elems = 2 * 2 * k; break;
      }
      const double D = elems * bpe;
      const bool a2a = op == RaggedOp::kAllToAllSplit ||
                       op == RaggedOp::kAllToAllConcat;
      const double want_t = a2a ? cm.AllToAllTime(D, static_cast<int>(k))
                                : PerAxisRingTime(g.mesh, g.mask, cm, D);
      const TupleRun r = RunRagged(g, op, equal, /*padded=*/false);
      for (size_t c = 0; c < r.counters.size(); ++c) {
        EXPECT_EQ(r.counters[c].time, want_t) << name << " chip " << c;
        EXPECT_EQ(r.counters[c].network_bytes, D * (k - 1) / k)
            << name << " chip " << c;
      }
    }
  }
}

TEST(SpmdRaggedCollectiveTest, UnevenChargeIsTheBusiestMembers) {
  for (const RaggedGroup& g : kRaggedGroups) {
    SimMachine probe(g.mesh, TpuV4());
    const double bw = probe.comm_cost().network_bw;
    for (RaggedOp op : kRaggedOps) {
      const std::string name = std::string(RaggedName(op)) + "(" +
                               AxisName(g.mask) + ") on " + g.mesh.ToString();
      const TupleRun ragged = RunRagged(g, op, g.uneven, /*padded=*/false);
      const TupleRun padded = RunRagged(g, op, g.uneven, /*padded=*/true);
      double busiest = 0, ragged_net = 0, padded_net = 0;
      for (size_t c = 0; c < ragged.counters.size(); ++c) {
        busiest = std::max(busiest, ragged.counters[c].network_bytes);
        ragged_net += ragged.counters[c].network_bytes;
        padded_net += padded.counters[c].network_bytes;
      }
      // Never above the padded charge -- here exactly it: one member is
      // ragged, so the busiest rank's share is what every padded rank
      // moves.
      for (size_t c = 0; c < ragged.counters.size(); ++c) {
        EXPECT_EQ(ragged.counters[c].time, padded.counters[c].time)
            << name << " chip " << c;
        EXPECT_GE(ragged.counters[c].time, busiest / bw)
            << name << " chip " << c;
      }
      EXPECT_LT(ragged_net, padded_net) << name << ": padding rows move";
    }
  }
}

// The owned-row all-reduce (replication site 3, core/replication.h): each
// row's owner ships the other rank's term for its rows inside the exchange.
// Over random ragged segments it equals AllReduce of the recombined
// partials bit for bit, for 1 and 8 slots alike, and is charged as one
// exchange: one hop plus the larger deposit over the link, egress the
// rank's deposit (its partial, or its own terms, plus its side terms).
struct OwnedRowsRun {
  std::vector<Tensor> owned, reference;  // per chip
  std::vector<double> owned_time, owned_egress;
  std::vector<ChipCounters> counters;
  std::vector<TraceEvent> events;
};

OwnedRowsRun RunOwnedRows(const Torus3D& mesh, unsigned mask,
                          const SpmdContext::Extents& segments,
                          bool with_partial, uint64_t seed, int slots) {
  SimMachine machine(mesh, TpuV4());
  Tracer tracer;
  machine.AttachTracer(&tracer);
  SpmdExecutor ex(&machine);
  ex.set_slots(slots);
  const int64_t E = 5;
  int64_t N = 0;
  for (int64_t s : segments) N += s;
  OwnedRowsRun r;
  const auto n = static_cast<size_t>(machine.num_chips());
  r.owned.resize(n);
  r.reference.resize(n);
  r.owned_time.resize(n);
  r.owned_egress.resize(n);
  ex.Run([&](SpmdContext& ctx) {
    const int me = ctx.topo().RankInGroup(ctx.chip(), mask);
    // Rank r's base partial F_r at every row and its term A_r at every row,
    // the same on every chip.
    auto base = [&](int rank) {
      Rng rng(Rng::DeriveSeed(seed, static_cast<uint64_t>(2 * rank)));
      return Tensor::Gaussian({N, E}, rng);
    };
    auto term = [&](int rank) {
      Rng rng(Rng::DeriveSeed(seed, static_cast<uint64_t>(2 * rank + 1)));
      return Tensor::Gaussian({N, E}, rng);
    };
    // The rows of `t` that rank `owner` owns, in row order.
    auto owned_rows = [&](const Tensor& t, int owner) {
      std::vector<Tensor> parts;
      int64_t row = 0;
      for (size_t s = 0; s < segments.size(); ++s) {
        if (static_cast<int>(s % 2) == owner && segments[s] > 0)
          parts.push_back(t.Slice(0, row, segments[s]));
        row += segments[s];
      }
      if (parts.empty()) return Tensor({0, E});
      return Tensor::Concat(0, parts);
    };
    const Tensor mine = term(me), theirs = term(1 - me);
    Tensor partial;
    if (with_partial) partial = base(me);
    Tensor out = ctx.AllReduceOwnedRows(mask, partial, owned_rows(mine, me),
                                        owned_rows(theirs, me), segments);
    const ChipCounters& cc = ctx.machine().counters(ctx.chip());
    r.owned_time[static_cast<size_t>(ctx.chip())] = cc.time;
    r.owned_egress[static_cast<size_t>(ctx.chip())] = cc.network_bytes;
    // The recombined partial: the base (if any) plus the rank's own term.
    Tensor recombined = mine;
    if (with_partial) {
      recombined = base(me);
      recombined.AddInPlace(mine);
    }
    r.reference[static_cast<size_t>(ctx.chip())] =
        ctx.AllReduce(mask, std::move(recombined));
    r.owned[static_cast<size_t>(ctx.chip())] = std::move(out);
  });
  for (int c = 0; c < machine.num_chips(); ++c)
    r.counters.push_back(machine.counters(c));
  r.events = tracer.events();
  return r;
}

TEST(SpmdOwnedRowsAllReduceTest, EqualsAllReduceOfRecombinedPartials) {
  struct Case {
    Torus3D mesh;
    unsigned mask;
  };
  const Case cases[] = {{Torus3D(2, 2, 1), kAxisY | kAxisZ},
                        {Torus3D(1, 2, 1), kAxisY | kAxisZ},
                        {Torus3D(2, 1, 2), kAxisY | kAxisZ},
                        {Torus3D(2, 2, 2), kAxisX}};
  Rng pick(123);
  for (const Case& cs : cases) {
    for (uint64_t trial = 0; trial < 6; ++trial) {
      // 2, 4 or 6 segments of 0..4 rows each.
      SpmdContext::Extents segments(2 * (1 + trial % 3));
      for (int64_t& e : segments)
        e = static_cast<int64_t>(pick.NextBelow(5));
      for (bool with_partial : {true, false}) {
        const std::string name = cs.mesh.ToString() + " trial " +
                                 std::to_string(trial) +
                                 (with_partial ? " partial" : " own rows");
        const OwnedRowsRun one =
            RunOwnedRows(cs.mesh, cs.mask, segments, with_partial, trial, 1);
        const OwnedRowsRun eight =
            RunOwnedRows(cs.mesh, cs.mask, segments, with_partial, trial, 8);
        SimMachine probe(cs.mesh, TpuV4());
        const CommCostModel& cm = probe.comm_cost();
        const double bpe = probe.bytes_per_element();
        int64_t N = 0, owned[2] = {0, 0};
        for (size_t s = 0; s < segments.size(); ++s) {
          N += segments[s];
          owned[s % 2] += segments[s];
        }
        auto deposit = [&](int rank) {
          return static_cast<double>(
                     (with_partial ? N : owned[rank]) + owned[rank]) *
                 5 * bpe;
        };
        const double busiest = std::max(deposit(0), deposit(1));
        for (size_t c = 0; c < one.owned.size(); ++c) {
          EXPECT_TRUE(BitIdentical(one.owned[c], one.reference[c]))
              << name << " chip " << c;
          EXPECT_TRUE(BitIdentical(one.owned[c], eight.owned[c]))
              << name << " chip " << c;
          const int rank = cs.mesh.RankInGroup(static_cast<int>(c), cs.mask);
          EXPECT_DOUBLE_EQ(one.owned_time[c],
                           cm.hop_latency + busiest / cm.network_bw)
              << name << " chip " << c;
          EXPECT_EQ(one.owned_egress[c], deposit(rank))
              << name << " chip " << c;
          EXPECT_EQ(one.counters[c].time, eight.counters[c].time) << name;
          EXPECT_EQ(one.counters[c].network_bytes,
                    eight.counters[c].network_bytes)
              << name;
        }
        // One all-reduce event per chip for each of the two calls.
        ASSERT_EQ(one.events.size(), 2 * one.owned.size()) << name;
        ASSERT_EQ(one.events.size(), eight.events.size()) << name;
        for (size_t i = 0; i < one.events.size(); ++i) {
          EXPECT_EQ(one.events[i].name, "all-reduce(" + AxisName(cs.mask) + ")");
          EXPECT_EQ(one.events[i].start, eight.events[i].start) << name;
          EXPECT_EQ(one.events[i].duration, eight.events[i].duration) << name;
        }
      }
    }
  }
}

TEST(SimMachineTest, CommCostCacheFollowsHopLatency) {
  SimMachine machine(Torus3D(1, 4, 1), TpuV4());
  double t0 = machine.comm_cost().AllGatherTime(1 << 20, 4);
  machine.set_hop_latency(5e-6);
  double t1 = machine.comm_cost().AllGatherTime(1 << 20, 4);
  EXPECT_DOUBLE_EQ(machine.comm_cost().hop_latency, 5e-6);
  EXPECT_GT(t1, t0) << "cached cost model must rebuild on set_hop_latency";
}

}  // namespace
}  // namespace tsi
