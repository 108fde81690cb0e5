// Experiment E1 -- Figure 1: cost (chip-seconds/token) vs. latency Pareto
// frontiers for PaLM 8B / 62B / 540B in bf16 and int8, for the generate
// phase (left, latency per token generating 64 tokens at 2048 context) and
// the prefill phase (right, time to process 2048 input tokens).
#include "common.h"

namespace tsi {
namespace {

void RunModel(const ModelConfig& cfg, WeightFormat fmt) {
  InferenceEstimator est(cfg, TpuV4());
  auto chips = PaperChipCounts();
  auto batches = PowerOfTwoBatches(1, 1024);

  PrintHeader(cfg.name + " / " + ToString(fmt) + " -- generate (64 tokens @ 2048 context)");
  auto gen = ParetoFrontier(plan::Sweep(est, Phase::kDecode, chips, batches,
                                        fmt, /*input_len=*/1984,
                                        /*gen_len=*/64));
  Table tg({"latency/token(ms)", "cost(chip-ms/token)", "chips", "batch", "layout", "MFU"});
  for (const auto& p : gen) {
    tg.AddRow({Ms(p.latency), FormatDouble(p.cost_chipsec_per_token * 1e3, 2),
               std::to_string(p.chips), FormatDouble(p.batch, 0),
               p.spec.ToString(), FormatPercent(p.mfu)});
  }
  tg.Print();

  PrintHeader(cfg.name + " / " + ToString(fmt) + " -- prefill (2048 tokens)");
  auto pre = ParetoFrontier(
      plan::Sweep(est, Phase::kPrefill, chips, batches, fmt, 2048));
  Table tp({"latency(s)", "cost(chip-ms/token)", "chips", "batch", "layout", "MFU"});
  for (const auto& p : pre) {
    tp.AddRow({FormatDouble(p.latency, 2),
               FormatDouble(p.cost_chipsec_per_token * 1e3, 2),
               std::to_string(p.chips), FormatDouble(p.batch, 0),
               p.spec.ToString(), FormatPercent(p.mfu)});
  }
  tp.Print();
}

}  // namespace
}  // namespace tsi

int main() {
  using namespace tsi;
  std::printf("Figure 1 reproduction: Pareto frontier of cost vs latency.\n"
              "Paper anchors (PaLM 540B, 64 chips): int8 generate reaches "
              "~28.5 ms/token at batch 64; bf16 ~36.9 ms/token; minimum\n"
              "generate latency is ~3x lower than the batch-512 latency; "
              "batch-512 prefill cost is ~2x below batch-512 generate cost.\n");
  for (WeightFormat fmt : {WeightFormat::kBf16, WeightFormat::kInt8}) {
    RunModel(Palm8B(), fmt);
    RunModel(Palm62B(), fmt);
    RunModel(Palm540BPadded(), fmt);
  }
  return 0;
}
