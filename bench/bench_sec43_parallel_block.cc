// Experiment E12 -- §4.3: parallel vs. serial attention/FFN formulation.
// The paper measures 14% higher decode latency per step for the serialized
// formulation (2D weight-stationary, 64 chips, batch 512), shrinking during
// prefill where weight-gathered layouts carry less activation communication.
#include "common.h"

int main() {
  using namespace tsi;
  ModelConfig par = Palm540BPadded();
  ModelConfig ser = par;
  ser.parallel_block = false;
  ser.name = "PaLM-540B-serial";
  InferenceEstimator ep(par, TpuV4());
  InferenceEstimator es(ser, TpuV4());

  PartitionSpec ws2d{Torus3D(4, 4, 4), FfnLayout::kWS2D, AttnSharding::kBatch,
                     WeightFormat::kBf16};

  PrintHeader("Section 4.3: parallel vs serial blocks, PaLM 540B, 64 chips");
  Table t({"phase", "batch", "parallel", "serial", "serial overhead",
           "paper overhead"});
  {
    auto p = ep.DecodeStep(ws2d, 512, 2048);
    auto s = es.DecodeStep(ws2d, 512, 2048);
    t.AddRow({"decode step", "512", Ms(p.seconds, 1) + "ms", Ms(s.seconds, 1) + "ms",
              FormatPercent(s.seconds / p.seconds - 1.0), "14%"});
  }
  for (double batch : {64.0, 512.0}) {
    auto bp = plan::TunePhase(ep, Phase::kPrefill, 64, WeightFormat::kBf16,
                              batch, 2048);
    auto bs = plan::TunePhase(es, Phase::kPrefill, 64, WeightFormat::kBf16,
                              batch, 2048);
    if (!bp || !bs) continue;
    t.AddRow({"prefill", FormatDouble(batch, 0),
              FormatDouble(bp->result.seconds, 2) + "s",
              FormatDouble(bs->result.seconds, 2) + "s",
              FormatPercent(bs->result.seconds / bp->result.seconds - 1.0),
              "smaller"});
  }
  t.Print();
  std::printf("\nMechanism: a parallel block fuses its input projections and\n"
              "shares one all-reduce(yz) per layer; the serial form pays two\n"
              "plus an extra layernorm dependency chain.\n");
  return 0;
}
