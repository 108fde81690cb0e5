// Experiment E7 -- Table 2: example PaLM 540B serving configurations on 64
// chips: low-latency (batch-1 int8 prefill + batch-64 int8 decode) and
// high-throughput (batch-512 bf16, weight-gathered prefill + WS-2D decode).
#include "common.h"

namespace tsi {
namespace {

void Report(Table& t, const char* scenario, const char* phase,
            const plan::TuneResult& e, double paper_mfu,
            double paper_latency) {
  t.AddRow({scenario, phase, std::to_string(e.plan.spec.num_chips()),
            e.plan.spec.ToString(), FormatPercent(e.result.mfu),
            FormatDouble(e.result.seconds, 2) + "s",
            FormatPercent(paper_mfu), FormatDouble(paper_latency, 2) + "s"});
}

}  // namespace
}  // namespace tsi

int main() {
  using namespace tsi;
  ModelConfig cfg = Palm540BPadded();
  InferenceEstimator est(cfg, TpuV4());

  Table t({"scenario", "phase", "chips", "layout (ours)", "MFU", "latency",
           "paper MFU", "paper latency"});

  // Low latency: prefill 2048 tokens at batch 1 (paper: WS-2D/head/int8,
  // 43% MFU, 0.29 s); decode 64 tokens at batch 64 (14% MFU, 1.82 s).
  auto pre_ll =
      plan::TunePhase(est, Phase::kPrefill, 64, WeightFormat::kInt8, 1, 2048);
  auto dec_ll = plan::TuneGenerate(est, 64, WeightFormat::kInt8, 64, 1984, 64);
  if (pre_ll) Report(t, "low-latency", "prefill", *pre_ll, 0.43, 0.29);
  if (dec_ll) Report(t, "low-latency", "decode", *dec_ll, 0.14, 1.82);

  // High throughput: batch 512 bf16 (paper: WG-XYZ prefill 76% MFU 85.2 s;
  // WS-2D decode 33% MFU 6.0 s).
  auto pre_ht =
      plan::TunePhase(est, Phase::kPrefill, 64, WeightFormat::kBf16, 512, 2048);
  auto dec_ht =
      plan::TuneGenerate(est, 64, WeightFormat::kBf16, 512, 1984, 64);
  if (pre_ht) Report(t, "high-throughput", "prefill", *pre_ht, 0.76, 85.2);
  if (dec_ht) Report(t, "high-throughput", "decode", *dec_ht, 0.33, 6.0);

  PrintHeader("Table 2: PaLM 540B example configurations (64 chips)");
  t.Print();
  std::printf("\nPaper layouts: prefill WS-2D/head (low-latency) and WG-XYZ/batch\n"
              "(high-throughput); decode WS-2D/batch in both scenarios.\n");
  return 0;
}
