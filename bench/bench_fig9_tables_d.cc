// Experiment E9 -- Figure 9 and Tables D.2-D.4: comparison against the
// FasterTransformer benchmark suite (MT-NLG 530B on 16-32 A100s) for the
// three benchmark shapes (20/8, 60/20, 128/8 input/output tokens).
//
// For every batch size we print: the published FasterTransformer numbers,
// our GPU baseline model's prediction for the same config, the published
// PaLM-on-TPU results, and our TPU model's prediction (PaLM 540B and
// MT-NLG 530B on 64 TPU v4, 2D partitioning), all as total-time + MFU.
#include "common.h"

#include "baseline/ft.h"
#include "baseline/published.h"
#include "core/flops.h"

namespace tsi {
namespace {

std::string Cell(double seconds, double mfu) {
  return Ms(seconds, 0) + "/" + FormatPercent(mfu);
}

std::string Published(const std::optional<TimeMfu>& tm) {
  if (!tm) return "-";
  return FormatDouble(tm->ms, 0) + "/" + FormatPercent(tm->mfu);
}

void RunBenchmark(const PublishedBenchmark& bench) {
  PrintHeader(bench.name + "  [cells: total-ms/MFU]");
  FasterTransformerModel ft(MtNlg530B());
  InferenceEstimator palm(Palm540BPadded(), TpuV4());
  InferenceEstimator mtnlg(MtNlg530B(), TpuV4());

  const double L = bench.input_tokens, G = bench.output_tokens;
  FtConfig tp16;
  tp16.tensor_parallel = 16;
  FtConfig tp32;
  tp32.tensor_parallel = 32;

  Table t({"batch", "FT-TP16 paper", "FT-TP16 model", "FT-TP32 paper",
           "FT-TP32 model", "PaLM paper", "PaLM model", "MT-NLG paper",
           "MT-NLG model"});
  for (const auto& row : bench.rows) {
    const double B = row.batch;
    auto ft16 = ft.Total(tp16, B, L, G);
    auto ft32 = ft.Total(tp32, B, L, G);

    std::string palm_cell = "-", mtnlg_cell = "-";
    if (B >= 4) {  // paper reports batch >= 4 (batch-sharded attention)
      auto pp = plan::TunePhase(palm, Phase::kPrefill, 64, WeightFormat::kBf16,
                                B, L);
      auto pg = plan::TuneGenerate(palm, 64, WeightFormat::kBf16, B, L, G);
      if (pp && pg) {
        double secs = pp->result.seconds + pg->result.seconds;
        double tokens = B * (L + G);
        double mfu = MatmulFlopsPerToken(palm.config()) * tokens /
                     (64 * TpuV4().peak_flops) / secs;
        palm_cell = Cell(secs, mfu);
      }
      auto mp = plan::TunePhase(mtnlg, Phase::kPrefill, 64,
                                WeightFormat::kBf16, B, L);
      auto mg = plan::TuneGenerate(mtnlg, 64, WeightFormat::kBf16, B, L, G);
      if (mp && mg) {
        double secs = mp->result.seconds + mg->result.seconds;
        double tokens = B * (L + G);
        double mfu = MatmulFlopsPerToken(mtnlg.config()) * tokens /
                     (64 * TpuV4().peak_flops) / secs;
        mtnlg_cell = Cell(secs, mfu);
      }
    }
    t.AddRow({std::to_string(row.batch), Published(row.ft_tp16),
              Cell(ft16.seconds, ft16.mfu), Published(row.ft_tp32),
              Cell(ft32.seconds, ft32.mfu), Published(row.palm_total), palm_cell,
              Published(row.mtnlg_total), mtnlg_cell});
  }
  t.Print();
}

}  // namespace
}  // namespace tsi

int main() {
  using namespace tsi;
  std::printf(
      "Figure 9 / Tables D.2-D.4 reproduction.\n"
      "Expected shape: the TPU implementations dominate the Pareto frontier\n"
      "(lower latency and higher MFU); FasterTransformer TP32 never exceeds\n"
      "~33%% MFU (cross-node tensor parallelism) while TP16 reaches ~46%%;\n"
      "PaLM beats MT-NLG on TPU by up to ~10%% MFU (parallel attn/ffn).\n");
  for (const auto* b : AllPublishedBenchmarks()) RunBenchmark(*b);
  return 0;
}
