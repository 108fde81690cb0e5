// Shared harness for the decode fast-path ablation benches: a PaLM
// 540B-class model at reduced feature scale, plus a host-wall-clock decode
// timing loop over the *real* functional engine (engine.cc's fused block
// bodies), not the analytic model.
//
// The feature shape keeps the 540B proportions that make decode
// memory-bound -- F = 4E gated FFN, multiquery attention, parallel block --
// at 1/8 of E so one host core finishes the sweep in seconds. Ratios
// between the fast-path configurations are the measurement; absolute
// milliseconds are host-dependent.
#pragma once

#include <chrono>

#include "engine/engine.h"
#include "util/rng.h"

namespace tsi {

inline ModelConfig Palm540BClassModel() {
  ModelConfig cfg;
  cfg.name = "palm540b-class-e2304";
  cfg.num_layers = 2;
  cfg.d_model = 2304;  // 540B's 18432 / 8
  cfg.d_ff = 9216;     // F = 4E, SwiGLU-gated like PaLM
  cfg.n_heads = 16;
  cfg.d_head = 144;
  cfg.vocab_size = 1024;
  cfg.attention = AttentionKind::kMultiQuery;
  cfg.gated_ffn = true;
  cfg.parallel_block = true;
  return cfg;
}

inline std::vector<int32_t> BenchTokens(int64_t n, int64_t vocab,
                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> t(static_cast<size_t>(n));
  for (auto& v : t)
    v = static_cast<int32_t>(rng.NextBelow(static_cast<uint64_t>(vocab)));
  return t;
}

struct DecodeBenchResult {
  double ms_per_step = 0;     // host wall-clock, mean over the timed steps
  double sim_us_per_step = 0;  // virtual-clock time per timed step
  double hbm_mb_per_step = 0;  // charged HBM traffic per step, all chips
  Tensor last_logits;         // for cross-config bit-identity checks
  double kv_modelled_bytes = 0;  // cache TotalBytes at 2 B/elem (bf16 model)
};

// Prefill B sequences of length L, one warmup decode step, then `steps`
// timed decode steps on a fresh engine built with `spec`. The token stream
// is seed-fixed, so every configuration decodes identical inputs.
inline DecodeBenchResult RunDecodeBench(const ModelWeights& weights,
                                        const EngineSpec& spec, Torus3D mesh,
                                        int64_t B, int64_t L, int steps) {
  SimMachine machine(mesh, TpuV4());
  DistributedEngine engine(weights, &machine, spec);

  const int64_t vocab = weights.config.vocab_size;
  engine.Prefill(BenchTokens(B * L, vocab, 11), B);
  DecodeBenchResult r;
  r.last_logits = engine.DecodeStep(BenchTokens(B, vocab, 90));  // warmup

  auto hbm_total = [&] {
    double b = 0;
    for (int c = 0; c < machine.num_chips(); ++c)
      b += machine.counters(c).hbm_bytes;
    return b;
  };
  const double sim0 = machine.MaxTime(), hbm0 = hbm_total();
  auto t0 = std::chrono::steady_clock::now();
  for (int s = 0; s < steps; ++s) {
    r.last_logits =
        engine.DecodeStep(BenchTokens(B, vocab, 100 + static_cast<uint64_t>(s)));
  }
  auto t1 = std::chrono::steady_clock::now();
  r.ms_per_step =
      std::chrono::duration<double, std::milli>(t1 - t0).count() / steps;
  r.sim_us_per_step = (machine.MaxTime() - sim0) * 1e6 / steps;
  r.hbm_mb_per_step = (hbm_total() - hbm0) / 1e6 / steps;
  r.kv_modelled_bytes = engine.cache().TotalBytes(2.0);
  return r;
}

// FLOPs of one decode step (2 * tokens * params, embedding excluded, plus
// the logits projection) -- the rate denominator for BENCH_micro records.
inline double DecodeStepFlops(const ModelConfig& cfg, int64_t B) {
  return 2.0 * static_cast<double>(B) *
         (static_cast<double>(cfg.ParamCount(/*include_embedding=*/false)) +
          static_cast<double>(cfg.d_model * cfg.vocab_size));
}

}  // namespace tsi
