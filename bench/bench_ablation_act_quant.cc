// Experiment E19 (extension) -- §3.6's int8 projection, now measured on the
// real engine as well as the analytic model.
//
// Measured: host wall-clock per decode step for the end-to-end int8
// pipeline (int8 weight shards + dynamic per-row int8 activations + int8 KV
// cache with SDPA-folded dequant; docs/fastpath.md) vs the fp32 engine, on
// a PaLM 540B-class shape. Decode is memory-bound, so streaming
// int8 weight and KV bytes instead of fp32 is the direct lever on step
// time; the int8 logit drift vs the fp32 reference is reported next to the
// speedup, and the engine's actual KV-cache byte counts show the capacity
// win. Records merge into BENCH_micro.json (EngineDecode/fp32 and
// EngineDecode/int8).
//
// Projected: the original analytic ablation (activation bytes halved,
// matmul rate doubled) across the paper's regimes, plus the int8 KV row
// the analytic memory model now carries (PartitionSpec::kv_format).
#include "common.h"

#include "fastpath_common.h"
#include "micro_merge.h"

namespace tsi {
namespace {

void RunEngineInt8Ablation() {
  PrintHeader("Measured int8 decode fast path: real engine, fp32 vs int8");
  const ModelConfig cfg = Palm540BClassModel();
  const Torus3D mesh(1, 2, 2);
  const int64_t B = 16, L = 8;
  const int steps = 4;
  std::printf("%s, mesh 1x2x2 (WS-2D decode, batch-sharded attention),\n"
              "B=%lld, %d timed decode steps after warmup\n",
              cfg.ToString().c_str(), static_cast<long long>(B), steps);

  ModelWeights weights = ModelWeights::Random(cfg, 42);
  EngineSpec spec;
  spec.attn = AttnSharding::kBatch;

  DecodeBenchResult fp32 = RunDecodeBench(weights, spec, mesh, B, L, steps);
  spec.fastpath.precision = FastPathPrecision::kInt8;
  DecodeBenchResult int8 = RunDecodeBench(weights, spec, mesh, B, L, steps);

  Table t({"config", "ms/step (host)", "speedup", "HBM MB/step",
           "sim us/step", "KV cache MB"});
  t.AddRow({"fp32", FormatDouble(fp32.ms_per_step, 1), "1.00x",
            FormatDouble(fp32.hbm_mb_per_step, 1),
            FormatDouble(fp32.sim_us_per_step, 1),
            FormatDouble(fp32.kv_modelled_bytes / 1e6, 2)});
  t.AddRow({"int8 end-to-end", FormatDouble(int8.ms_per_step, 1),
            FormatDouble(fp32.ms_per_step / int8.ms_per_step, 2) + "x",
            FormatDouble(int8.hbm_mb_per_step, 1),
            FormatDouble(int8.sim_us_per_step, 1),
            FormatDouble(int8.kv_modelled_bytes / 1e6, 2)});
  t.Print();
  std::printf("int8-vs-fp32 logits max |diff|: %g (quantization error; the\n"
              "int8 path trades bounded drift for bytes -- docs/fastpath.md\n"
              "states the error contract, engine_test pins greedy tokens)\n",
              MaxAbsDiff(fp32.last_logits, int8.last_logits));
  std::printf("KV cache: %.2f MB bf16-modelled -> %.2f MB int8+scales (%.2fx)\n",
              fp32.kv_modelled_bytes / 1e6, int8.kv_modelled_bytes / 1e6,
              int8.kv_modelled_bytes / fp32.kv_modelled_bytes);

  const double flops = DecodeStepFlops(cfg, B);
  const std::string shape = std::to_string(cfg.d_model) + "x" +
                            std::to_string(cfg.d_ff) + "x" + std::to_string(B);
  MergeIntoBenchJson(BenchJsonPath("BENCH_micro.json"),
                     {{"EngineDecode/fp32", shape, fp32.ms_per_step * 1e6,
                       flops / (fp32.ms_per_step * 1e-3) / 1e9},
                      {"EngineDecode/int8", shape, int8.ms_per_step * 1e6,
                       flops / (int8.ms_per_step * 1e-3) / 1e9}});
}

void RunAnalyticProjection() {
  ModelConfig cfg = Palm540BPadded();
  InferenceEstimator est(cfg, TpuV4());

  auto with_act = [](PartitionSpec s) {
    s.activations = WeightFormat::kInt8;
    return s;
  };
  PartitionSpec ws2d{Torus3D(4, 4, 4), FfnLayout::kWS2D, AttnSharding::kBatch,
                     WeightFormat::kBf16};
  PartitionSpec ws2d_i8w = ws2d;
  ws2d_i8w.weight_format = WeightFormat::kInt8;
  PartitionSpec wg{Torus3D(4, 4, 4), FfnLayout::kWGXYZ, AttnSharding::kBatch,
                   WeightFormat::kBf16};
  // The full fast-path stack as the analytic model sees it: int8 weights,
  // int8 activations, int8 KV.
  PartitionSpec ws2d_full = ws2d_i8w;
  ws2d_full.kv_format = WeightFormat::kInt8;

  PrintHeader("Projected int8-activation gains, PaLM 540B, 64 chips");
  Table t({"scenario", "bf16 acts", "int8 acts", "speedup"});
  struct Case {
    const char* name;
    PartitionSpec spec;
    bool prefill;
    double batch, len_or_ctx;
  };
  std::vector<Case> cases = {
      {"decode B=64 ctx=2048 (int8 weights)", ws2d_i8w, false, 64, 2048},
      {"decode B=64 ctx=2048 (int8 weights+KV)", ws2d_full, false, 64, 2048},
      {"decode B=512 ctx=2048", ws2d, false, 512, 2048},
      {"prefill B=64 x 2048", ws2d, true, 64, 2048},
      {"prefill B=512 x 2048 (WG-XYZ)", wg, true, 512, 2048},
  };
  for (const auto& c : cases) {
    auto run = [&](const PartitionSpec& s) {
      return c.prefill ? est.Prefill(s, c.batch, c.len_or_ctx).seconds
                       : est.DecodeStep(s, c.batch, c.len_or_ctx).seconds;
    };
    double base = run(c.spec);
    double quant = run(with_act(c.spec));
    auto fmt = [&](double s) {
      return c.prefill ? FormatDouble(s, 2) + "s" : Ms(s, 2) + "ms";
    };
    t.AddRow({c.name, fmt(base), fmt(quant), FormatDouble(base / quant, 2) + "x"});
  }
  t.Print();
  std::printf("\nAs the paper anticipates, the gain concentrates in\n"
              "compute-dominated large-batch configurations (prefill) and in\n"
              "the activation-communication term of weight-stationary\n"
              "layouts; small-batch decode stays weight-memory-bound, which\n"
              "is what weight (and KV) quantization addresses -- measured\n"
              "above on the functional engine's fast path.\n");
}

}  // namespace
}  // namespace tsi

int main() {
  tsi::RunEngineInt8Ablation();
  tsi::RunAnalyticProjection();
  return 0;
}
