// FasterTransformer baseline model (§5) and the published Appendix D data.
#include "baseline/ft.h"

#include <gtest/gtest.h>

#include "baseline/published.h"
#include "hw/chip.h"
#include "plan/autotune.h"

namespace tsi {
namespace {

FtConfig Tp(int tp, int pp = 1) {
  FtConfig c;
  c.tensor_parallel = tp;
  c.pipeline_parallel = pp;
  return c;
}

TEST(FtBaselineTest, Tp32HasWorseMfuThanTp16) {
  // The paper observes FasterTransformer TP32 maxing at 33% MFU vs 46% for
  // TP16: cross-node tensor parallelism hits the inter-node bandwidth wall.
  FasterTransformerModel ft(MtNlg530B());
  auto t16 = ft.Total(Tp(16), 256, 60, 20);
  auto t32 = ft.Total(Tp(32), 256, 60, 20);
  EXPECT_GT(t16.mfu, t32.mfu);
}

TEST(FtBaselineTest, PipelineDoesNotReduceDecodeLatency) {
  FasterTransformerModel ft(MtNlg530B());
  auto tp8 = ft.Generate(Tp(8, 1), 8, 60, 20);
  auto pp3tp8 = ft.Generate(Tp(8, 3), 8, 60, 20);
  EXPECT_GE(pp3tp8.seconds, tp8.seconds);
}

TEST(FtBaselineTest, MfuGrowsWithBatch) {
  FasterTransformerModel ft(MtNlg530B());
  EXPECT_GT(ft.Total(Tp(16), 128, 60, 20).mfu, ft.Total(Tp(16), 8, 60, 20).mfu);
}

TEST(FtBaselineTest, ModelLandsNearPublishedTp16Numbers) {
  // Check order-of-magnitude agreement against Table D.3 (60in/20out)
  // mid-size batches; the baseline is a model, so allow a wide band.
  FasterTransformerModel ft(MtNlg530B());
  for (const auto& row : PublishedBenchmark60In20Out().rows) {
    if (!row.ft_tp16 || row.batch < 8 || row.batch > 128) continue;
    auto got = ft.Total(Tp(16), row.batch, 60, 20);
    double ratio = got.seconds * 1e3 / row.ft_tp16->ms;
    EXPECT_GT(ratio, 0.3) << "batch " << row.batch;
    EXPECT_LT(ratio, 3.0) << "batch " << row.batch;
  }
}

TEST(FtBaselineTest, OursBeatsFtAtMatchedScale) {
  // Figure 9's claim: the paper's implementation offers better MFU than
  // FasterTransformer at comparable latency. Compare our PaLM 540B model on
  // 64 TPU v4 against the FT model at batch 64.
  FasterTransformerModel ft(MtNlg530B());
  auto ft_result = ft.Total(Tp(16), 64, 60, 20);

  InferenceEstimator est(Palm540BPadded(), TpuV4());
  auto pre =
      plan::TunePhase(est, Phase::kPrefill, 64, WeightFormat::kBf16, 64, 60);
  auto gen = plan::TuneGenerate(est, 64, WeightFormat::kBf16, 64, 60, 20);
  ASSERT_TRUE(pre && gen);
  double ours_seconds = pre->result.seconds + gen->result.seconds;
  double ours_mfu = (pre->result.mfu * pre->result.tokens +
                     gen->result.mfu * gen->result.tokens) /
                    (pre->result.tokens + gen->result.tokens);
  EXPECT_LT(ours_seconds, ft_result.seconds);
  EXPECT_GT(ours_mfu, ft_result.mfu);
}

TEST(PublishedDataTest, TablesAreWellFormed) {
  for (const auto* b : AllPublishedBenchmarks()) {
    EXPECT_GT(b->rows.size(), 8u);
    int prev_batch = 0;
    for (const auto& row : b->rows) {
      EXPECT_GT(row.batch, prev_batch);
      prev_batch = row.batch;
      for (const auto& cell :
           {row.ft_tp16, row.ft_tp32, row.ft_pp3_tp8, row.palm_total}) {
        if (cell) {
          EXPECT_GT(cell->ms, 0);
          EXPECT_GE(cell->mfu, 0);
          EXPECT_LE(cell->mfu, 1);
        }
      }
    }
  }
}

TEST(PublishedDataTest, PalmDominatesFtInPublishedNumbers) {
  // Sanity on the transcription: at every batch where both exist, the
  // paper's PaLM total is faster than FasterTransformer TP16.
  for (const auto* b : AllPublishedBenchmarks()) {
    for (const auto& row : b->rows) {
      if (row.ft_tp16 && row.palm_total) {
        EXPECT_LT(row.palm_total->ms, row.ft_tp16->ms)
            << b->name << " batch " << row.batch;
      }
    }
  }
}

TEST(PublishedDataTest, MfuMonotoneInBatchForPalm) {
  for (const auto* b : AllPublishedBenchmarks()) {
    double prev = 0;
    for (const auto& row : b->rows) {
      if (!row.palm_total) continue;
      EXPECT_GE(row.palm_total->mfu + 0.011, prev) << b->name << " batch " << row.batch;
      prev = row.palm_total->mfu;
    }
  }
}

TEST(PublishedDataTest, Table1Published) {
  auto t1 = PublishedTable1();
  ASSERT_EQ(t1.size(), 3u);
  EXPECT_EQ(t1[2].batch_512, 10700);
  EXPECT_EQ(t1[2].batch_128, 43000);
}

TEST(FtBaselineTest, ConfigToString) {
  EXPECT_EQ(Tp(16).ToString(), "TP16");
  EXPECT_EQ(Tp(8, 3).ToString(), "PP3/TP8");
}

}  // namespace
}  // namespace tsi
