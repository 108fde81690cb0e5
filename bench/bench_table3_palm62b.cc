// Experiment E8 -- Table 3: example PaLM 62B serving configurations:
// low-latency on 16 chips (batch-1 int8 prefill, batch-32 int8 decode) and
// high-throughput (batch-512: 32-chip bf16 prefill, 8-chip bf16 decode).
#include "common.h"

namespace tsi {
namespace {

void Report(Table& t, const char* scenario, const char* phase, int chips,
            const plan::TuneResult& e, double paper_mfu,
            double paper_latency) {
  t.AddRow({scenario, phase, std::to_string(chips), e.plan.spec.ToString(),
            FormatPercent(e.result.mfu), FormatDouble(e.result.seconds, 2) + "s",
            FormatPercent(paper_mfu), FormatDouble(paper_latency, 2) + "s"});
}

}  // namespace
}  // namespace tsi

int main() {
  using namespace tsi;
  InferenceEstimator est(Palm62B(), TpuV4());

  Table t({"scenario", "phase", "chips", "layout (ours)", "MFU", "latency",
           "paper MFU", "paper latency"});

  auto pre_ll =
      plan::TunePhase(est, Phase::kPrefill, 16, WeightFormat::kInt8, 1, 2048);
  auto dec_ll = plan::TuneGenerate(est, 16, WeightFormat::kInt8, 32, 1984, 64);
  if (pre_ll) Report(t, "low-latency", "prefill", 16, *pre_ll, 0.36, 0.16);
  if (dec_ll) Report(t, "low-latency", "decode", 16, *dec_ll, 0.08, 0.73);

  auto pre_ht =
      plan::TunePhase(est, Phase::kPrefill, 32, WeightFormat::kBf16, 512, 2048);
  auto dec_ht = plan::TuneGenerate(est, 8, WeightFormat::kBf16, 512, 1984, 64);
  if (pre_ht) Report(t, "high-throughput", "prefill", 32, *pre_ht, 0.73, 20.2);
  if (dec_ht) Report(t, "high-throughput", "decode", 8, *dec_ht, 0.37, 5.1);

  PrintHeader("Table 3: PaLM 62B example configurations");
  t.Print();
  std::printf("\nPaper: same layout families as the 540B model (Table 2) at\n"
              "smaller chip counts; high-throughput MFUs are similar across\n"
              "model sizes.\n");
  return 0;
}
