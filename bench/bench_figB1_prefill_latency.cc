// Experiment E10 -- Figure B.1: minimum prefill latency. Cost vs latency
// Pareto at batch 1 as the sequence length sweeps 32..1024, for each PaLM
// model in int8 (the paper's minimum-latency weight format).
#include "common.h"

int main() {
  using namespace tsi;
  PrintHeader("Figure B.1: batch-1 prefill cost vs latency, seq 32..1024");
  for (const ModelConfig& cfg : {Palm8B(), Palm62B(), Palm540BPadded()}) {
    InferenceEstimator est(cfg, TpuV4());
    std::printf("\n%s (int8):\n", cfg.name.c_str());
    Table t({"seq", "chips", "latency(ms)", "cost(chip-ms/token)", "layout", "MFU"});
    for (double seq = 32; seq <= 1024; seq *= 2) {
      // Pareto over chip count at this sequence length: report the
      // latency-minimizing point and the cost-minimizing point (the first
      // of equals).
      auto points = plan::Sweep(est, Phase::kPrefill, PaperChipCounts(), {1},
                                WeightFormat::kInt8, seq);
      if (points.empty()) continue;
      const SweepPoint* best_lat = &points[0];
      const SweepPoint* best_cost = &points[0];
      for (const SweepPoint& p : points) {
        if (p.latency < best_lat->latency) best_lat = &p;
        if (p.cost_chipsec_per_token < best_cost->cost_chipsec_per_token)
          best_cost = &p;
      }
      t.AddRow({FormatDouble(seq, 0), std::to_string(best_lat->chips),
                Ms(best_lat->latency),
                FormatDouble(best_lat->cost_chipsec_per_token * 1e3, 2),
                best_lat->spec.ToString(), FormatPercent(best_lat->mfu)});
      if (best_cost->chips != best_lat->chips) {
        t.AddRow({FormatDouble(seq, 0) + " (min-cost)", std::to_string(best_cost->chips),
                  Ms(best_cost->latency),
                  FormatDouble(best_cost->cost_chipsec_per_token * 1e3, 2),
                  best_cost->spec.ToString(), FormatPercent(best_cost->mfu)});
      }
    }
    t.Print();
  }
  std::printf("\nPaper: even batch-1 prefill runs at fairly low cost; latency\n"
              "grows sublinearly with sequence length until compute dominates.\n");
  return 0;
}
