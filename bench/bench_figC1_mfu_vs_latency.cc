// Experiment E11 -- Figure C.1: MFU vs latency Pareto frontiers (companion
// of Figure 1, reporting efficiency as MFU instead of chip-seconds/token).
#include "common.h"

namespace tsi {
namespace {

void RunModel(const ModelConfig& cfg, WeightFormat fmt) {
  InferenceEstimator est(cfg, TpuV4());
  auto chips = PaperChipCounts();
  auto batches = PowerOfTwoBatches(1, 1024);

  PrintHeader(cfg.name + " / " + ToString(fmt) + " -- MFU vs latency");
  // Reuse the cost-Pareto machinery with cost = -MFU.
  auto gen = plan::Sweep(est, Phase::kDecode, chips, batches, fmt, 1984, 64);
  for (auto& p : gen) p.cost_chipsec_per_token = -p.mfu;
  auto frontier = ParetoFrontier(std::move(gen));
  Table t({"phase", "latency", "MFU", "chips", "batch", "layout"});
  for (const auto& p : frontier) {
    t.AddRow({"generate", Ms(p.latency) + "ms/token", FormatPercent(p.mfu),
              std::to_string(p.chips), FormatDouble(p.batch, 0), p.spec.ToString()});
  }
  auto pre = plan::Sweep(est, Phase::kPrefill, chips, batches, fmt, 2048);
  for (auto& p : pre) p.cost_chipsec_per_token = -p.mfu;
  for (const auto& p : ParetoFrontier(std::move(pre))) {
    t.AddRow({"prefill", FormatDouble(p.latency, 2) + "s", FormatPercent(p.mfu),
              std::to_string(p.chips), FormatDouble(p.batch, 0), p.spec.ToString()});
  }
  t.Print();
}

}  // namespace
}  // namespace tsi

int main() {
  using namespace tsi;
  std::printf("Figure C.1 reproduction: MFU vs latency Pareto frontiers.\n"
              "Paper shape: decode MFU is much lower than prefill MFU; MFU\n"
              "'jumps' in prefill mark the switch from WS-2D to weight-\n"
              "gathered layouts; larger models usually reach higher MFU.\n");
  for (WeightFormat fmt : {WeightFormat::kBf16, WeightFormat::kInt8}) {
    RunModel(Palm8B(), fmt);
    RunModel(Palm62B(), fmt);
    RunModel(Palm540BPadded(), fmt);
  }
  return 0;
}
