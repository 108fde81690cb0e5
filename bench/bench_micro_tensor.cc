// Experiment E16 -- google-benchmark microbenchmarks of the tensor
// substrate: matmul (blocked kernel vs the pre-kernel-layer naive loop),
// fused epilogues, quantized matmul, softmax variants (§3.5's base-2
// formulation), attention, and the Gaussian weight generator
// (Rng::FillGaussian, ModelWeights::Random at the host-clock benchmark's
// model shape) and the engine construction that follows it there.
//
// Writes BENCH_micro.json (override with TSI_BENCH_JSON) with one record per
// run: op, shape, ns/iter, GFLOP/s. items processed == flops, so GFLOP/s is
// items_per_second/1e9.
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <cmath>

#include "engine/engine.h"
#include "hw/chip.h"
#include "json_reporter.h"
#include "model/attention.h"
#include "model/weights.h"
#include "quant/int8.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace tsi {
namespace {

void BM_MatMul(benchmark::State& state) {
  int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(1);
  Tensor a = Tensor::Gaussian({m, k}, rng);
  Tensor b = Tensor::Gaussian({k, n}, rng);
  for (auto _ : state) {
    Tensor c = MatMul(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_MatMul)
    ->Args({32, 32, 32})
    ->Args({64, 64, 64})
    ->Args({128, 128, 128})
    ->Args({512, 2048, 2048})
    ->Args({1024, 4096, 4096});  // the ISSUE-1 acceptance shape

// The seed repository's MatMul (i-k-j, double accumulator row, no blocking,
// no SIMD) -- kept runnable as the "before" row of BENCH_micro.json so the
// kernel-layer speedup is measured, not remembered. One iteration: this is
// O(10 s) at the acceptance shape.
void BM_MatMulNaiveSeed(benchmark::State& state) {
  int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(1);
  Tensor a = Tensor::Gaussian({m, k}, rng);
  Tensor b = Tensor::Gaussian({k, n}, rng);
  std::vector<double> acc(static_cast<size_t>(n));
  for (auto _ : state) {
    Tensor c({m, n});
    const float* A = a.data();
    const float* B = b.data();
    float* C = c.data();
    for (int64_t i = 0; i < m; ++i) {
      std::fill(acc.begin(), acc.end(), 0.0);
      for (int64_t kk = 0; kk < k; ++kk) {
        double av = A[i * k + kk];
        if (av == 0.0) continue;
        const float* brow = B + kk * n;
        for (int64_t j = 0; j < n; ++j) acc[static_cast<size_t>(j)] += av * brow[j];
      }
      for (int64_t j = 0; j < n; ++j) C[i * n + j] = static_cast<float>(acc[static_cast<size_t>(j)]);
    }
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_MatMulNaiveSeed)->Args({1024, 4096, 4096})->Iterations(1);

void BM_MatMulGelu(benchmark::State& state) {
  // Fused projection + activation, as used by the FFN hot path.
  int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(6);
  Tensor a = Tensor::Gaussian({m, k}, rng);
  Tensor b = Tensor::Gaussian({k, n}, rng);
  for (auto _ : state) {
    Tensor c = MatMulGelu(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_MatMulGelu)->Args({256, 1024, 4096});

void BM_BatchMatMul(benchmark::State& state) {
  int64_t b = state.range(0), n = state.range(1);
  Rng rng(7);
  Tensor x = Tensor::Gaussian({b, n, n}, rng);
  Tensor y = Tensor::Gaussian({b, n, n}, rng);
  for (auto _ : state) {
    Tensor c = BatchMatMul(x, y);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * 2 * b * n * n * n);
}
BENCHMARK(BM_BatchMatMul)->Args({8, 128});

void BM_MatMulDequantInt8(benchmark::State& state) {
  int64_t n = state.range(0);
  Rng rng(2);
  Tensor a = Tensor::Gaussian({n, n}, rng);
  QuantizedTensor q = QuantizeInt8(Tensor::Gaussian({n, n}, rng));
  for (auto _ : state) {
    Tensor c = MatMulDequant(a, q);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMulDequantInt8)->Arg(64);

void BM_Softmax(benchmark::State& state) {
  Rng rng(3);
  Tensor x = Tensor::Gaussian({256, 256}, rng);
  for (auto _ : state) {
    Tensor s = Softmax(x);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_Softmax);

void BM_Softmax2(benchmark::State& state) {
  // §3.5: exp2-based softmax; on real accelerators this maps to the native
  // exp2 unit (here it shows the relative cost of the two formulations).
  Rng rng(3);
  Tensor x = Tensor::Gaussian({256, 256}, rng);
  for (auto _ : state) {
    Tensor s = Softmax2(x);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_Softmax2);

void BM_Attention(benchmark::State& state) {
  int64_t ctx = state.range(0);
  Rng rng(4);
  Tensor q = Tensor::Gaussian({2, 1, 8, 32}, rng);
  Tensor k = Tensor::Gaussian({2, ctx, 1, 32}, rng);
  Tensor v = Tensor::Gaussian({2, ctx, 1, 32}, rng);
  for (auto _ : state) {
    Tensor o = ScaledDotProductAttention(q, k, v, true);
    benchmark::DoNotOptimize(o);
  }
}
BENCHMARK(BM_Attention)->Arg(64)->Arg(256)->Arg(1024);

void BM_QuantizeInt8(benchmark::State& state) {
  Rng rng(5);
  Tensor w = Tensor::Gaussian({256, 256}, rng);
  for (auto _ : state) {
    QuantizedTensor q = QuantizeInt8(w);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_QuantizeInt8);

// The Box-Muller kernel behind every random weight: 1M floats per iteration.
void BM_FillGaussian(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<float> out(static_cast<size_t>(n));
  Rng rng(1);
  for (auto _ : state) {
    rng.FillGaussian(out.data(), n, 1.0f);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FillGaussian)->Arg(1 << 20);

// perfbench/serve_bench.cc's model shape.
ModelConfig BenchModel() {
  ModelConfig c = TinyTestModel();
  c.num_layers = 2;
  c.d_model = 256;
  c.d_ff = 1024;
  c.n_heads = 16;
  c.d_head = 16;
  c.vocab_size = 512;
  return c;
}

// ModelWeights::Random at perfbench/serve_bench.cc's model shape and seed:
// the weight half of that benchmark's setup_s.
void BM_RandomWeights(benchmark::State& state) {
  const ModelConfig c = BenchModel();
  for (auto _ : state) {
    ModelWeights w = ModelWeights::Random(c, 2023);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_RandomWeights);

// The engine half of perfbench's setup_s: a DistributedEngine on its mesh
// (2x2x1) and spec (kBatch), built from weights made once. The counter
// minflt is the minor page faults per construction, read with getrusage
// on this process.
void BM_EngineConstruct(benchmark::State& state) {
  const ModelWeights w = ModelWeights::Random(BenchModel(), 2023);
  SimMachine machine(Torus3D(2, 2, 1), TpuV4());
  EngineSpec spec;
  spec.attn = AttnSharding::kBatch;
  rusage before{}, after{};
  getrusage(RUSAGE_SELF, &before);
  for (auto _ : state) {
    DistributedEngine engine(w, &machine, spec);
    benchmark::DoNotOptimize(engine);
  }
  getrusage(RUSAGE_SELF, &after);
  state.counters["minflt"] = benchmark::Counter(
      static_cast<double>(after.ru_minflt - before.ru_minflt),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_EngineConstruct);

}  // namespace
}  // namespace tsi

int main(int argc, char** argv) {
  std::vector<char*> args;
  tsi::InitializeForFileReporter(&argc, argv, &args);
  if (benchmark::ReportUnrecognizedArguments(argc, args.data())) return 1;
  benchmark::ConsoleReporter display;
  tsi::JsonFileReporter json(tsi::BenchJsonPath("BENCH_micro.json"));
  benchmark::RunSpecifiedBenchmarks(&display, &json);
  benchmark::Shutdown();
  return 0;
}
