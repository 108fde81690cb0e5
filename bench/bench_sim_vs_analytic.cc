// Experiment E17 -- cross-validation: the functional simulator's virtual
// clock vs. the analytical estimator on identical (scaled-down) workloads.
//
// The two are independent implementations of the same hardware model: the
// simulator charges per-op roofline times while executing the real sharded
// algorithm; the estimator composes closed-form per-layer costs. With the
// estimator's real-system derates disabled (ideal mode), the two should
// agree to within a small factor on every layout -- this bench prints the
// ratio per configuration.
#include "common.h"

#include "engine/engine.h"
#include "model/reference.h"
#include "util/rng.h"

namespace tsi {
namespace {

std::vector<int32_t> RandomTokens(int64_t n, int64_t vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> t(static_cast<size_t>(n));
  for (auto& v : t) v = static_cast<int32_t>(rng.NextBelow(static_cast<uint64_t>(vocab)));
  return t;
}

SystemModel IdealSystem() {
  SystemModel sys;
  sys.matmul_peak_frac = 1.0;
  sys.matmul_tau_tokens = 0;
  sys.hbm_frac = 1.0;
  sys.per_layer_overhead = 0;
  sys.overlap_fraction = 0;
  sys.hop_latency = 1e-6;
  sys.additive = false;  // per-op roofline, like the simulator
  return sys;
}

}  // namespace
}  // namespace tsi

int main() {
  using namespace tsi;
  // A mid-size synthetic model: big enough that matmuls dominate bookkeeping.
  ModelConfig cfg = TinyTestModel();
  cfg.name = "sim-xval";
  cfg.num_layers = 4;
  cfg.d_model = 128;
  cfg.d_ff = 256;
  cfg.n_heads = 16;
  cfg.d_head = 16;
  cfg.vocab_size = 128;

  ModelWeights weights = ModelWeights::Random(cfg, 1);

  struct Case {
    const char* name;
    Torus3D mesh;
    FfnLayout prefill, decode;
    AttnSharding attn;
  };
  std::vector<Case> cases = {
      {"WS-1D/head 1x2x2", Torus3D(1, 2, 2), FfnLayout::kWS1D, FfnLayout::kWS1D,
       AttnSharding::kHeads},
      {"WS-2D/head 2x2x1", Torus3D(2, 2, 1), FfnLayout::kWS2D, FfnLayout::kWS2D,
       AttnSharding::kHeads},
      {"WS-2D/batch 2x2x2", Torus3D(2, 2, 2), FfnLayout::kWS2D, FfnLayout::kWS2D,
       AttnSharding::kBatch},
      {"WG-XYZ/batch 2x2x2", Torus3D(2, 2, 2), FfnLayout::kWGXYZ,
       FfnLayout::kWGXYZ, AttnSharding::kBatch},
  };

  const int64_t B = 8, L = 16;
  // alpha = true charges the per-hop launch latency in both implementations.
  // The simulator runs one collective per axis per program point (the
  // q/k/v and FFN partial sums share one reduce-scatter, §3.4); the
  // estimator prices one reduce-scatter per FFN input projection but leaves
  // out the layernorm moment all-reduces, the logit head's gathers, and
  // (WG-XYZ) gathers weights over the whole mesh at once where the
  // simulator gathers per axis. alpha = false isolates the bandwidth +
  // roofline agreement.
  for (bool alpha : {false, true}) {
    PrintHeader(std::string("Simulator vs analytical estimator, hop latency ") +
                (alpha ? "1us (per-collective latency on)"
                       : "0 (bandwidth + roofline only)"));
    SystemModel sys = IdealSystem();
    sys.hop_latency = alpha ? 1e-6 : 0.0;
    InferenceEstimator ana(cfg, TpuV4(), sys);
    Table t({"config", "phase", "sim (us)", "analytic (us)", "ratio sim/analytic"});
    for (const auto& c : cases) {
      SimMachine machine(c.mesh, TpuV4());
      machine.set_hop_latency(sys.hop_latency);
      EngineSpec spec;
      spec.prefill_ffn = c.prefill;
      spec.decode_ffn = c.decode;
      spec.attn = c.attn;
      DistributedEngine engine(weights, &machine, spec);
      PartitionSpec aspec{c.mesh, c.prefill, c.attn, WeightFormat::kBf16};

      engine.Prefill(RandomTokens(B * L, cfg.vocab_size, 2), B);
      double sim_prefill = machine.MaxTime();
      double ana_prefill = ana.Prefill(aspec, B, L).seconds;
      t.AddRow({c.name, "prefill", FormatDouble(sim_prefill * 1e6, 2),
                FormatDouble(ana_prefill * 1e6, 2),
                FormatDouble(sim_prefill / ana_prefill, 2)});

      machine.ResetCounters();
      engine.DecodeStep(RandomTokens(B, cfg.vocab_size, 3));
      double sim_decode = machine.MaxTime();
      PartitionSpec dspec{c.mesh, c.decode, c.attn, WeightFormat::kBf16};
      double ana_decode = ana.DecodeStep(dspec, B, L + 1).seconds;
      t.AddRow({c.name, "decode", FormatDouble(sim_decode * 1e6, 2),
                FormatDouble(ana_decode * 1e6, 2),
                FormatDouble(sim_decode / ana_decode, 2)});
    }
    t.Print();
  }
  std::printf("\nWith alpha = 0 the two implementations should agree closely\n"
              "(same roofline; batch-sharded attention skips the q/k/v\n"
              "all-gather the estimator prices); with alpha on, the\n"
              "simulator runs one ring per torus axis and a single exchange\n"
              "per 2-chip all-reduce, while the estimator still prices flat\n"
              "(prod k - 1)-hop rings and RS + AG, so the simulator reads\n"
              "below it despite the norm-moment and logit-head collectives\n"
              "the estimator does not count.\n");
  return 0;
}
