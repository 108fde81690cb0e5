// Exports the data series behind the paper's figures as CSV files, for
// external plotting. Writes into the directory given as argv[1] (default
// "figdata/").
//
//   build/tools/export_figures [outdir]
//
// Files written:
//   fig1_generate_<model>_<fmt>.csv   latency/token vs cost Pareto (Fig 1 L)
//   fig1_prefill_<model>_<fmt>.csv    prefill latency vs cost Pareto (Fig 1 R)
//   fig3_comm_volume.csv              FFN comm volume vs batch (Fig 3)
//   fig6_ws1d_vs_2d.csv               decode latency vs chips (Fig 6)
//   fig7_prefill_mfu.csv              prefill MFU vs batch tokens (Fig 7)
//   fig8_mqa_context.csv              decode latency vs context (Fig 8)
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/ffn_cost.h"
#include "core/planner.h"
#include "hw/chip.h"
#include "plan/autotune.h"
#include "util/table.h"

namespace tsi {
namespace {

void Write(const std::filesystem::path& dir, const std::string& name,
           const Table& table) {
  std::ofstream os(dir / name);
  os << table.ToCsv();
  std::printf("wrote %s (%zu rows)\n", (dir / name).string().c_str(),
              table.num_rows());
}

std::string Slug(const std::string& s) {
  std::string out;
  for (char c : s) out += (isalnum(static_cast<unsigned char>(c)) ? static_cast<char>(tolower(c)) : '_');
  return out;
}

void ExportFig1(const std::filesystem::path& dir) {
  std::vector<int> chips = {8, 16, 32, 64, 128, 256};
  std::vector<double> batches;
  for (double b = 1; b <= 1024; b *= 2) batches.push_back(b);
  for (const ModelConfig& cfg : {Palm8B(), Palm62B(), Palm540BPadded()}) {
    InferenceEstimator est(cfg, TpuV4());
    for (WeightFormat fmt : {WeightFormat::kBf16, WeightFormat::kInt8}) {
      std::string suffix = Slug(cfg.name) + "_" + ToString(fmt) + ".csv";
      Table gen({"latency_ms_per_token", "cost_chipms_per_token", "chips",
                 "batch", "mfu", "layout"});
      for (const auto& p :
           ParetoFrontier(plan::Sweep(est, Phase::kDecode, chips, batches,
                                      fmt, 1984, 64))) {
        gen.AddRow({FormatDouble(p.latency * 1e3, 3),
                    FormatDouble(p.cost_chipsec_per_token * 1e3, 4),
                    std::to_string(p.chips), FormatDouble(p.batch, 0),
                    FormatDouble(p.mfu, 4), p.spec.ToString()});
      }
      Write(dir, "fig1_generate_" + suffix, gen);

      Table pre({"latency_s", "cost_chipms_per_token", "chips", "batch", "mfu",
                 "layout"});
      for (const auto& p :
           ParetoFrontier(plan::Sweep(est, Phase::kPrefill, chips, batches,
                                      fmt, 2048))) {
        pre.AddRow({FormatDouble(p.latency, 4),
                    FormatDouble(p.cost_chipsec_per_token * 1e3, 4),
                    std::to_string(p.chips), FormatDouble(p.batch, 0),
                    FormatDouble(p.mfu, 4), p.spec.ToString()});
      }
      Write(dir, "fig1_prefill_" + suffix, pre);
    }
  }
}

void ExportFig3(const std::filesystem::path& dir) {
  Torus3D mesh(4, 4, 4);
  Table t({"batch_tokens", "ws2d_mib", "wgx_mib", "wgxy_mib", "wgxyz_mib"});
  for (double bl = 512; bl <= (1 << 21); bl *= 2) {
    std::vector<std::string> row{FormatDouble(bl, 0)};
    for (FfnLayout l : {FfnLayout::kWS2D, FfnLayout::kWGX, FfnLayout::kWGXY,
                        FfnLayout::kWGXYZ}) {
      double v = FfnCommVolumePerChip(16384, 65536, 1, mesh, l, bl, 2.0).total();
      row.push_back(FormatDouble(v / (1024.0 * 1024.0), 2));
    }
    t.AddRow(row);
  }
  Write(dir, "fig3_comm_volume.csv", t);
}

void ExportFig6(const std::filesystem::path& dir) {
  ModelConfig cfg = Palm540BPadded();
  InferenceEstimator est(cfg, TpuV4());
  Table t({"chips", "ws1d_ms", "ws2d_ms"});
  for (int n : {32, 64, 128, 256}) {
    double t1 = -1, t2 = -1;
    for (const auto& s : EnumerateSpecs(cfg, n, WeightFormat::kInt8)) {
      if (s.attn != AttnSharding::kBatch) continue;
      auto r = est.DecodeStep(s, 512, 2048);
      if (!r.fits_memory) continue;
      if (s.ffn == FfnLayout::kWS1D && (t1 < 0 || r.seconds < t1)) t1 = r.seconds;
      if (s.ffn == FfnLayout::kWS2D && (t2 < 0 || r.seconds < t2)) t2 = r.seconds;
    }
    if (t1 < 0 || t2 < 0) continue;
    t.AddRow({std::to_string(n), FormatDouble(t1 * 1e3, 3),
              FormatDouble(t2 * 1e3, 3)});
  }
  Write(dir, "fig6_ws1d_vs_2d.csv", t);
}

void ExportFig7(const std::filesystem::path& dir) {
  ModelConfig cfg = Palm540BPadded();
  InferenceEstimator est(cfg, TpuV4());
  Table t({"batch_tokens", "ws2d_mfu", "wgx_mfu", "wgxy_mfu", "wgxyz_mfu"});
  for (double seqs = 1; seqs <= 512; seqs *= 2) {
    std::vector<std::string> row{FormatDouble(seqs * 2048, 0)};
    for (FfnLayout want : {FfnLayout::kWS2D, FfnLayout::kWGX, FfnLayout::kWGXY,
                           FfnLayout::kWGXYZ}) {
      double mfu = -1;
      for (const auto& s : EnumerateSpecs(cfg, 64, WeightFormat::kBf16)) {
        if (s.ffn != want) continue;
        auto r = est.Prefill(s, seqs, 2048);
        if (r.fits_memory) mfu = std::max(mfu, r.mfu);
      }
      row.push_back(mfu < 0 ? "" : FormatDouble(mfu, 4));
    }
    t.AddRow(row);
  }
  Write(dir, "fig7_prefill_mfu.csv", t);
}

void ExportFig8(const std::filesystem::path& dir) {
  ModelConfig mqa8 = Palm540B();
  mqa8.num_layers = 8;
  ModelConfig mha8 = Palm540BMultihead();
  mha8.num_layers = 8;
  InferenceEstimator emq(mqa8, TpuV4()), emh(mha8, TpuV4());
  PartitionSpec head{Torus3D(4, 4, 4), FfnLayout::kWS2D, AttnSharding::kHeads,
                     WeightFormat::kBf16};
  PartitionSpec batch{Torus3D(4, 4, 4), FfnLayout::kWS2D, AttnSharding::kBatch,
                      WeightFormat::kBf16};
  Table t({"context", "multihead_ms", "baseline_mq_ms", "optimized_mq_ms"});
  for (double ctx = 128; ctx <= 131072; ctx *= 2) {
    t.AddRow({FormatDouble(ctx, 0),
              FormatDouble(emh.DecodeStep(head, 256, ctx).seconds * 1e3, 3),
              FormatDouble(emq.DecodeStep(head, 256, ctx).seconds * 1e3, 3),
              FormatDouble(emq.DecodeStep(batch, 256, ctx).seconds * 1e3, 3)});
  }
  Write(dir, "fig8_mqa_context.csv", t);
}

}  // namespace
}  // namespace tsi

int main(int argc, char** argv) {
  std::filesystem::path dir = argc > 1 ? argv[1] : "figdata";
  std::filesystem::create_directories(dir);
  tsi::ExportFig1(dir);
  tsi::ExportFig3(dir);
  tsi::ExportFig6(dir);
  tsi::ExportFig7(dir);
  tsi::ExportFig8(dir);
  std::printf("done.\n");
  return 0;
}
