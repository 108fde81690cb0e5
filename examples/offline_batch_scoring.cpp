// The paper's offline high-throughput scenario (§1, Table 2): process
// 1984-token inputs and generate 64-token outputs "for huge numbers of
// examples" at the best cost per token, ignoring latency.
// Paper: 73% overall FLOPS efficiency on PaLM 540B, 64 chips, bf16.
//
//   build/examples/offline_batch_scoring
#include <cstdio>

#include "hw/chip.h"
#include "plan/autotune.h"
#include "util/table.h"

int main() {
  using namespace tsi;
  ModelConfig model = Palm540BPadded();
  InferenceEstimator est(model, TpuV4());
  const int chips = 64;
  const double input_len = 1984, gen_len = 64;

  std::printf("Offline scoring/distillation on %s, %d chips, bf16\n",
              model.name.c_str(), chips);
  std::printf("per example: %.0f input tokens -> %.0f output tokens\n\n", input_len,
              gen_len);

  Table t({"batch", "prefill layout", "prefill", "decode layout", "decode",
           "overall MFU", "cost(chip-ms/token)", "examples/hour/pod"});
  double best_cost = 1e300;
  double best_batch = 0;
  for (double batch : {64.0, 128.0, 256.0, 512.0}) {
    auto pre = plan::TunePhase(est, Phase::kPrefill, chips, WeightFormat::kBf16,
                               batch, input_len);
    auto gen = plan::TuneGenerate(est, chips, WeightFormat::kBf16, batch,
                                  input_len, gen_len);
    if (!pre || !gen) continue;
    double seconds = pre->result.seconds + gen->result.seconds;
    double tokens = batch * (input_len + gen_len);
    double mfu = (pre->result.mfu * pre->result.tokens +
                  gen->result.mfu * gen->result.tokens) / tokens;
    double cost = chips * seconds / tokens;
    double examples_per_hour = batch / seconds * 3600.0;
    t.AddRow({FormatDouble(batch, 0), pre->plan.spec.ToString(),
              FormatDouble(pre->result.seconds, 1) + "s",
              gen->plan.spec.ToString(),
              FormatDouble(gen->result.seconds, 1) + "s", FormatPercent(mfu),
              FormatDouble(cost * 1e3, 2), FormatDouble(examples_per_hour, 0)});
    if (cost < best_cost) {
      best_cost = cost;
      best_batch = batch;
    }
  }
  t.Print();

  std::printf("\nbest cost at batch %.0f. Paper: overall FLOPS efficiency 73%%\n"
              "for this workload; prefill switches to weight-gathered layouts\n"
              "while decode stays 2D weight-stationary.\n", best_batch);
  return 0;
}
