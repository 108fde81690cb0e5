// The paper's interactive chatbot scenario (§1): PaLM 540B with int8
// weights on 64 TPU v4 chips processes a 64-token user message on top of a
// 1920-token cached conversation, then streams a 64-token reply.
// Paper: "a total of 1.9 seconds".
//
// Part 1 drives the layout autotuner (plan/autotune.h): best layout per
// phase, the latency budget, and the decode-batch trick (batch-1 prefill
// feeding a batch-64 decode server). Part 2 runs the same interactive
// pattern through the continuous-batching runtime (src/serve) on the
// functional sharded engine: staggered chat turns admitted mid-flight,
// incremental prefill on top of cached context, per-turn TTFT and
// time-per-output-token.
//
//   build/examples/chatbot_serving
#include <cstdio>

#include "core/memory.h"
#include "hw/chip.h"
#include "plan/autotune.h"
#include "serve/runtime.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace tsi;
  ModelConfig model = Palm540BPadded();
  InferenceEstimator est(model, TpuV4());
  const int chips = 64;
  const double history = 1920, message = 64, reply = 64;

  std::printf("Chatbot turn on %s, %d TPU v4 chips, int8 weights\n",
              model.name.c_str(), chips);
  std::printf("history %.0f tokens (cached) + message %.0f tokens + reply %.0f tokens\n\n",
              history, message, reply);

  // Phase 1: incremental prefill of the new message over the cached history
  // (batch 1 minimizes prefill latency).
  auto best_prefill = plan::TunePhase(est, Phase::kPrefill, chips,
                                      WeightFormat::kInt8, 1, message);
  const PartitionSpec& prefill_spec = best_prefill->plan.spec;
  PhaseResult prefill =
      est.Prefill(prefill_spec, 1, message, /*prior_context=*/history);

  // Phase 2: decode the reply. Batch 64 costs almost no extra latency but is
  // dramatically better for MFU -- serve 64 conversations per replica (or 64
  // samples of this one).
  auto decode1 = plan::TuneGenerate(est, chips, WeightFormat::kInt8, 1,
                                    history + message, reply);
  auto decode64 = plan::TuneGenerate(est, chips, WeightFormat::kInt8, 64,
                                     history + message, reply);

  Table t({"phase", "batch", "layout", "latency", "MFU", "cost(chip-ms/token)"});
  t.AddRow({"prefill message", "1", prefill_spec.ToString(),
            FormatMs(prefill.seconds), FormatPercent(prefill.mfu),
            FormatDouble(prefill.cost_chipsec_per_token * 1e3, 1)});
  t.AddRow({"decode reply", "1", decode1->plan.spec.ToString(),
            FormatMs(decode1->result.seconds), FormatPercent(decode1->result.mfu),
            FormatDouble(decode1->result.cost_chipsec_per_token * 1e3, 1)});
  t.AddRow({"decode reply", "64", decode64->plan.spec.ToString(),
            FormatMs(decode64->result.seconds), FormatPercent(decode64->result.mfu),
            FormatDouble(decode64->result.cost_chipsec_per_token * 1e3, 1)});
  t.Print();

  double total = prefill.seconds + decode64->result.seconds;
  std::printf("\nend-to-end turn latency (batch-64 decode): %.2f s  (paper: 1.9 s)\n", total);
  std::printf("batch 1 -> 64 decode latency penalty: %.0f%%, cost improvement: %.1fx\n",
              (decode64->result.seconds / decode1->result.seconds - 1.0) * 100,
              decode1->result.cost_chipsec_per_token /
                  decode64->result.cost_chipsec_per_token);

  // Memory budget at the decode configuration.
  MemoryReport mem = ChipMemoryReport(model, decode64->plan.spec, TpuV4(), 64,
                                      history + message + reply);
  std::printf("\nper-chip HBM: weights %s + KV cache %s of %s (%s)\n",
              FormatBytes(mem.weight_bytes_per_chip).c_str(),
              FormatBytes(mem.kv_bytes_per_chip).c_str(),
              FormatBytes(mem.hbm_bytes).c_str(),
              mem.fits() ? "fits" : "DOES NOT FIT");

  // Part 2: the same interactive pattern on the functional engine (tiny
  // stand-in model -- the simulator executes every forward pass, so model
  // scale is bounded by host memory; the 540B numbers above come from the
  // analytic backend that shares this scheduler). Six chat turns arrive
  // staggered, each a prompt prefilled in chunks plus a streamed reply;
  // four KV slots force the last turns to queue for a freed slot.
  ModelConfig tiny = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(tiny, 1);
  SimMachine machine(Torus3D(2, 2, 1), TpuV4());
  EngineSpec espec;
  espec.attn = AttnSharding::kBatch;
  DistributedEngine engine(weights, &machine, espec);

  ServeOptions options;
  options.prefill_chunk = 8;
  options.sampling.temperature = 0;  // greedy, deterministic replies
  EngineServeBackend backend(&engine, /*num_slots=*/4, options);

  std::vector<ServeRequest> turns;
  Rng rng(5);
  for (int64_t i = 0; i < 6; ++i) {
    ServeRequest r;
    r.id = i;
    r.arrival = static_cast<double>(i) * 3e-6;
    r.prompt.resize(12);
    for (auto& tok : r.prompt)
      tok = static_cast<int32_t>(rng.NextBelow(static_cast<uint64_t>(tiny.vocab_size)));
    r.max_new_tokens = 8;
    turns.push_back(std::move(r));
  }
  ServeReport report = RunContinuousServing(backend, turns, options);

  std::printf("\nContinuous runtime on the functional engine (%s, 4 chips, "
              "4 KV slots):\n", tiny.name.c_str());
  Table ft({"turn", "queue wait", "TTFT", "latency", "s/token", "tokens"});
  for (const auto& r : report.requests) {
    std::string toks;
    for (int32_t tok : r.tokens) {
      if (!toks.empty()) toks += ' ';
      toks += std::to_string(tok);
    }
    ft.AddRow({std::to_string(r.id), FormatMs(r.QueueWait()), FormatMs(r.Ttft()),
               FormatMs(r.Latency()), FormatMs(r.TimePerOutputToken()), toks});
  }
  ft.Print();
  std::printf("\n%lld turns, %lld tokens, %.1f us virtual makespan; replies are\n"
              "bit-identical for any slot assignment, batch mix, or\n"
              "TSI_SPMD_SLOTS (tests/serve_test.cc).\n",
              static_cast<long long>(report.completed()),
              static_cast<long long>(report.total_tokens()),
              report.makespan * 1e6);
  return 0;
}
