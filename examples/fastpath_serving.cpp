// Serving on the functional engine's fused block bodies (docs/fastpath.md +
// src/serve): the same continuous-batching workload served in fp32 and
// through the end-to-end int8 pipeline, on the Table 2 mixed layout
// (weight-gathered prefill, 2D weight-stationary decode, batch-sharded
// attention) over an 8-chip mesh.
//
// The demo doubles as the `tools/check.sh fastpath` race check: it serves
// the fp32 workload twice and exits non-zero unless both runs produce the
// same tokens and finish times, so running it under ThreadSanitizer with
// TSI_SPMD_SLOTS=8 checks the fused kernels and the int8 quantize/append
// paths under real SPMD concurrency.
//
//   build/examples/fastpath_serving [num_requests]
#include <cstdio>
#include <cstdlib>

#include "engine/engine.h"
#include "hw/chip.h"
#include "serve/runtime.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace tsi;
  const int64_t count = argc > 1 ? std::atoll(argv[1]) : 16;

  ModelConfig model = TinyTestModel();
  const Torus3D mesh(2, 2, 2);
  ModelWeights weights = ModelWeights::Random(model, 7);

  ServeOptions options;
  options.prefill_chunk = 4;
  options.sampling.temperature = 0;
  auto requests = PoissonRequests(/*rate=*/2e4, count, /*prompt_len=*/6,
                                  /*max_new_tokens=*/6, model.vocab_size,
                                  /*seed=*/13);

  struct RunResult {
    ServeReport report;
    double kv_bytes = 0;
  };
  auto serve = [&](FastPathPrecision precision) {
    SimMachine machine(mesh, TpuV4());
    EngineSpec spec;
    spec.prefill_ffn = FfnLayout::kWGXYZ;  // Table 2's serving mixture
    spec.decode_ffn = FfnLayout::kWS2D;
    spec.attn = AttnSharding::kBatch;
    spec.fastpath.precision = precision;
    DistributedEngine engine(weights, &machine, spec);
    EngineServeBackend backend(&engine, /*num_slots=*/8, options);
    RunResult r;
    r.report = RunContinuousServing(backend, requests, options);
    // The runtime frees KV slots as requests finish, so probe the cache's
    // per-token footprint with one 8x4 prefill before reading bytes.
    std::vector<int32_t> probe(8 * 4, 1);
    engine.Prefill(probe, 8);
    r.kv_bytes = engine.cache().TotalBytes(2.0);
    return r;
  };

  std::printf("Continuous serving, %s on a 2x2x2 mesh (WG prefill, WS-2D\n"
              "decode, batch attention), 8 KV slots, %lld requests\n\n",
              model.name.c_str(), static_cast<long long>(count));
  RunResult fp32 = serve(FastPathPrecision::kFp32);
  RunResult again = serve(FastPathPrecision::kFp32);
  RunResult int8 = serve(FastPathPrecision::kInt8);

  Table t({"config", "tokens", "virtual us", "KV cache KB"});
  for (const auto& [name, r] :
       {std::pair<const char*, const RunResult*>{"fp32", &fp32},
        {"int8", &int8}}) {
    t.AddRow({name, std::to_string(r->report.total_tokens()),
              FormatDouble(r->report.makespan * 1e6, 1),
              FormatDouble(r->kv_bytes / 1e3, 2)});
  }
  t.Print();

  // The contract check that makes this a meaningful TSan target: a rerun
  // must not change a single sampled token or clock edge.
  bool identical = fp32.report.requests.size() == again.report.requests.size();
  for (size_t i = 0; identical && i < fp32.report.requests.size(); ++i) {
    identical =
        fp32.report.requests[i].tokens == again.report.requests[i].tokens &&
        fp32.report.requests[i].finished == again.report.requests[i].finished;
  }
  std::printf("\nfp32 rerun: %s\n",
              identical ? "identical tokens and clocks (deterministic)"
                        : "DIVERGED -- reruns must be bit-identical");
  std::printf("int8: %lld tokens on an int8 KV cache at %.2fx the\n"
              "bf16-modelled bytes (docs/fastpath.md states the error bounds;\n"
              "engine_test pins int8 greedy tokens to the fp32 reference).\n",
              static_cast<long long>(int8.report.total_tokens()),
              int8.kv_bytes / fp32.kv_bytes);
  return identical ? 0 : 1;
}
