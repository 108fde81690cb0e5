// Experiment E15 -- google-benchmark microbenchmarks of the functional
// collectives substrate: wall-clock cost of simulating each collective, and
// (as counters) the virtual time / traffic the simulator charges.
//
// Writes BENCH_micro_collectives.json (override with TSI_BENCH_JSON); see
// json_reporter.h for the record format.
#include <benchmark/benchmark.h>

#include "json_reporter.h"

#include "hw/chip.h"
#include "sim/collective_einsum.h"
#include "sim/collectives.h"
#include "sim/ring.h"
#include "sim/spmd.h"
#include "util/rng.h"

namespace tsi {
namespace {

ShardVec MakeShards(const SimMachine& m, int64_t rows, int64_t cols) {
  ShardVec shards;
  for (int c = 0; c < m.num_chips(); ++c) {
    Rng rng(static_cast<uint64_t>(c + 1));
    shards.push_back(Tensor::Gaussian({rows, cols}, rng));
  }
  return shards;
}

void BM_AllGather(benchmark::State& state) {
  SimMachine m(Torus3D(2, 2, 2), TpuV4());
  ShardVec in = MakeShards(m, 64, 64);
  for (auto _ : state) {
    m.ResetCounters();
    auto out = AllGather(m, in, kAxisXYZ, 0);
    benchmark::DoNotOptimize(out);
  }
  state.counters["virtual_us"] = m.MaxTime() * 1e6;
  state.counters["egress_bytes"] = m.counters(0).network_bytes;
}
BENCHMARK(BM_AllGather);

void BM_ReduceScatter(benchmark::State& state) {
  SimMachine m(Torus3D(2, 2, 2), TpuV4());
  ShardVec in = MakeShards(m, 64, 64);
  for (auto _ : state) {
    m.ResetCounters();
    auto out = ReduceScatter(m, in, kAxisXYZ, 0);
    benchmark::DoNotOptimize(out);
  }
  state.counters["virtual_us"] = m.MaxTime() * 1e6;
}
BENCHMARK(BM_ReduceScatter);

void BM_AllReduce(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  SimMachine m(Torus3D(1, k, 1), TpuV4());
  ShardVec in = MakeShards(m, 64, 64);
  for (auto _ : state) {
    m.ResetCounters();
    auto out = AllReduce(m, in, kAxisY);
    benchmark::DoNotOptimize(out);
  }
  state.counters["virtual_us"] = m.MaxTime() * 1e6;
}
BENCHMARK(BM_AllReduce)->Arg(2)->Arg(4)->Arg(8);

void BM_AllToAll(benchmark::State& state) {
  SimMachine m(Torus3D(1, 2, 2), TpuV4());
  ShardVec in = MakeShards(m, 64, 64);
  for (auto _ : state) {
    m.ResetCounters();
    auto out = AllToAll(m, in, kAxisY | kAxisZ, 0, 1);
    benchmark::DoNotOptimize(out);
  }
  state.counters["virtual_us"] = m.MaxTime() * 1e6;
}
BENCHMARK(BM_AllToAll);

void BM_RingAllGather(benchmark::State& state) {
  // Wire-level K-1-step schedule vs the direct BM_AllGather above: same
  // virtual time, more host work (the point of keeping both).
  SimMachine m(Torus3D(2, 2, 2), TpuV4());
  ShardVec in = MakeShards(m, 64, 64);
  for (auto _ : state) {
    m.ResetCounters();
    auto out = RingAllGather(m, in, kAxisXYZ, 0);
    benchmark::DoNotOptimize(out);
  }
  state.counters["virtual_us"] = m.MaxTime() * 1e6;
}
BENCHMARK(BM_RingAllGather);

void BM_ThreadedAllReduce(benchmark::State& state) {
  // Rendezvous-based concurrent collective: measures the thread + exchange
  // overhead of the SPMD executor. The executor lives across iterations, so
  // this exercises the steady-state path (cached channels, reused SPMD
  // threads), not setup cost.
  SimMachine m(Torus3D(2, 2, 2), TpuV4());
  ShardVec in;
  for (int c = 0; c < m.num_chips(); ++c) {
    Rng rng(static_cast<uint64_t>(c + 100));
    in.push_back(Tensor::Gaussian({64, 64}, rng));
  }
  SpmdExecutor ex(&m);
  ShardVec out(static_cast<size_t>(m.num_chips()));
  for (auto _ : state) {
    ex.Run([&](SpmdContext& ctx) {
      const size_t c = static_cast<size_t>(ctx.chip());
      out[c] = ctx.AllReduce(kAxisXYZ, in[c]);
    });
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ThreadedAllReduce);

void BM_ThreadedAllGather(benchmark::State& state) {
  // Zero-copy gather: deposits travel by shared_ptr and land in one output
  // buffer (no per-member deep copies, no Concat temporaries).
  SimMachine m(Torus3D(2, 2, 2), TpuV4());
  ShardVec in;
  for (int c = 0; c < m.num_chips(); ++c) {
    Rng rng(static_cast<uint64_t>(c + 200));
    in.push_back(Tensor::Gaussian({256, 64}, rng));
  }
  SpmdExecutor ex(&m);
  ShardVec out(static_cast<size_t>(m.num_chips()));
  for (auto _ : state) {
    ex.Run([&](SpmdContext& ctx) {
      const size_t c = static_cast<size_t>(ctx.chip());
      out[c] = ctx.AllGather(kAxisXYZ, in[c], 0);
    });
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ThreadedAllGather);

void BM_LoopedMatMulReduceScatter(benchmark::State& state) {
  SimMachine m(Torus3D(4, 1, 1), TpuV4());
  ShardVec x = MakeShards(m, 64, 64);
  ShardVec w = MakeShards(m, 64, 64);
  for (auto _ : state) {
    m.ResetCounters();
    auto out = MatMulReduceScatter(m, x, w, kAxisX);
    benchmark::DoNotOptimize(out);
  }
  state.counters["virtual_us"] = m.MaxTime() * 1e6;
}
BENCHMARK(BM_LoopedMatMulReduceScatter);

}  // namespace
}  // namespace tsi

int main(int argc, char** argv) {
  std::vector<char*> args;
  tsi::InitializeForFileReporter(&argc, argv, &args);
  if (benchmark::ReportUnrecognizedArguments(argc, args.data())) return 1;
  benchmark::ConsoleReporter display;
  tsi::JsonFileReporter json(
      tsi::BenchJsonPath("BENCH_micro_collectives.json"));
  benchmark::RunSpecifiedBenchmarks(&display, &json);
  benchmark::Shutdown();
  return 0;
}
