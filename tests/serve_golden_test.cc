// Serving golden values: four serving runs, each pinned by three FNV-1a
// hashes --
//   * every RequestRecord field (doubles hashed as their bit patterns);
//   * the scheduler trace (Tracer::ToChromeTraceJson);
//   * the deterministic metrics snapshot (MetricsRegistry::ToJson with
//     include_host=false).
// The runs cover both pool shapes of the serving loop on both backends:
//   * functional colocated (2x2x1, kBatch): deferred 3-chunk prompts, a
//     registered system prompt, a multi-turn parent fork, EOS, a request
//     that retires at its first token, retain_parents;
//   * analytic colocated with a tuned PlanCache and SLO classes;
//   * functional disaggregated: a kHeads prefill pool into a kBatch decode
//     pool, a request that retires at its first token, more requests than
//     decode slots (migrations queue);
//   * analytic disaggregated, E24-shaped (an interactive stream plus long
//     RAG prompts over a slow link), so the prefill pool idles until a
//     migration frees a slot.
// Any change to when the scheduler calls a backend, what it records or
// which metrics it keeps moves a hash. Besides the hashes, each run asserts
// that the feature it exists to cover actually fired.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "comm/cost.h"
#include "core/inference_cost.h"
#include "engine/engine.h"
#include "hw/chip.h"
#include "plan/autotune.h"
#include "serve/analytic.h"
#include "serve/disagg.h"
#include "serve/runtime.h"
#include "sim/trace.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace tsi {
namespace {

class Fnv1a {
 public:
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void I64(int64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

uint64_t HashString(const std::string& s) {
  Fnv1a h;
  h.Bytes(s.data(), s.size());
  return h.value();
}

uint64_t HashRecords(const std::vector<RequestRecord>& records) {
  Fnv1a h;
  h.U64(records.size());
  for (const RequestRecord& r : records) {
    h.I64(r.id);
    h.Str(r.klass);
    h.F64(r.arrival);
    h.F64(r.admitted);
    h.F64(r.first_token);
    h.F64(r.finished);
    h.U64(r.tokens.size());
    for (int32_t t : r.tokens) h.I64(t);
    h.U64(r.token_times.size());
    for (double t : r.token_times) h.F64(t);
    h.I64(r.shared_prefix_tokens);
  }
  return h.value();
}

struct Golden {
  uint64_t records;
  uint64_t trace;
  uint64_t metrics;
};

void ExpectGolden(const char* run, const std::vector<RequestRecord>& records,
                  const Tracer& tracer, const obs::MetricsRegistry& metrics,
                  const Golden& want) {
  const Golden got{HashRecords(records), HashString(tracer.ToChromeTraceJson()),
                   HashString(metrics.ToJson(/*include_host=*/false))};
  EXPECT_EQ(got.records, want.records) << run << " records";
  EXPECT_EQ(got.trace, want.trace) << run << " trace";
  EXPECT_EQ(got.metrics, want.metrics) << run << " metrics";
  if (got.records != want.records || got.trace != want.trace ||
      got.metrics != want.metrics)
    std::printf("%s: {0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                "ULL}\n",
                run, got.records, got.trace, got.metrics);
}

std::vector<int32_t> RandomTokens(int64_t n, int64_t vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> t(static_cast<size_t>(n));
  for (auto& v : t)
    v = static_cast<int32_t>(rng.NextBelow(static_cast<uint64_t>(vocab)));
  return t;
}

ServeRequest Request(int64_t id, double arrival, std::vector<int32_t> prompt,
                     int64_t max_new_tokens, std::string klass = "") {
  ServeRequest r;
  r.id = id;
  r.arrival = arrival;
  r.prompt = std::move(prompt);
  r.max_new_tokens = max_new_tokens;
  r.klass = std::move(klass);
  return r;
}

std::vector<int32_t> Concat(std::vector<int32_t> a,
                            const std::vector<int32_t>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

TEST(ServeGoldenTest, FunctionalColocated) {
  const ModelConfig cfg = TinyTestModel();
  const ModelWeights weights = ModelWeights::Random(cfg, 91);
  const int64_t vocab = cfg.vocab_size;
  const std::vector<int32_t> sys = RandomTokens(8, vocab, 910);
  constexpr int32_t kEos = 47;  // request 1 samples it as its third token

  std::vector<ServeRequest> requests;
  // Chunk 4: 10- and 11-token prompts prefill in 3 chunks, two of them
  // deferred into the backend's next pass.
  for (int64_t i = 0; i < 4; ++i)
    requests.push_back(Request(i, static_cast<double>(i) * 2e-6,
                               RandomTokens(10 + i % 2, vocab, 920 + i), 6,
                               i % 2 ? "batch" : "interactive"));
  // System-prompt requests: 8 forked tokens, 3 prefilled.
  for (int64_t i = 4; i < 7; ++i)
    requests.push_back(Request(i, 3e-6 + static_cast<double>(i) * 1e-6,
                               Concat(sys, RandomTokens(3, vocab, 930 + i)), 5));
  // Retires at its first token.
  requests.push_back(Request(7, 5e-6, RandomTokens(6, vocab, 940), 1));
  // A second turn of request 5, arriving after everything retired: forks
  // the retained conversation (retain_parents 2 keeps the last two
  // retirees, 5 and 6).
  ServeRequest turn2 =
      Request(8, 1e-3, Concat(requests[5].prompt, RandomTokens(3, vocab, 950)),
              4, "interactive");
  turn2.parent = 5;
  requests.push_back(std::move(turn2));

  SimMachine machine(Torus3D(2, 2, 1), TpuV4());
  Tracer tracer;
  machine.AttachTracer(&tracer);
  obs::MetricsRegistry metrics;
  EngineSpec spec;
  spec.attn = AttnSharding::kBatch;
  spec.kv.page_size = 4;
  DistributedEngine engine(weights, &machine, spec);
  engine.set_metrics(&metrics);
  ServeOptions options;
  options.prefill_chunk = 4;
  options.sampling.temperature = 0;
  options.eos_token = kEos;
  options.share_prefixes = true;
  options.retain_parents = 2;
  options.tracer = &tracer;
  options.metrics = &metrics;
  EngineServeBackend backend(&engine, /*num_slots=*/4, options);
  backend.RegisterSystemPrompt(sys);
  const ServeReport report = RunContinuousServing(backend, requests, options);

  ASSERT_EQ(report.completed(), 9);
  int eos_retired = 0;
  for (const RequestRecord& r : report.requests)
    if (r.tokens.back() == kEos &&
        static_cast<int64_t>(r.tokens.size()) < requests[r.id].max_new_tokens)
      ++eos_retired;
  EXPECT_GT(eos_retired, 0) << "EOS never retired a request";
  EXPECT_EQ(report.requests[4].shared_prefix_tokens, 8);
  EXPECT_GE(report.requests[8].shared_prefix_tokens,
            static_cast<int64_t>(requests[5].prompt.size()));
  EXPECT_EQ(report.requests[7].tokens.size(), 1u);
  EXPECT_GT(metrics.GetCounter("serve/deferred_chunks")->value(), 0);

  ExpectGolden("functional colocated", report.requests, tracer, metrics,
               {0x98d62326e0c4a350ULL, 0xbd16a64be96b28deULL,
                0x8b7dd35e222ec1f6ULL});
}

TEST(ServeGoldenTest, AnalyticColocatedWithPlanCacheAndSlo) {
  const ModelConfig cfg = Palm8B();
  const InferenceEstimator est(cfg, TpuV4());
  plan::AutotuneRequest grid;
  grid.chip_counts = {4};
  grid.batches = {1, 8};
  grid.contexts = {128, 512};
  const plan::PlanCache plans = plan::BuildPlanCache(est, grid);

  std::vector<ServeRequest> requests =
      PoissonRequests(40.0, 12, 200, 24, cfg.vocab_size, /*seed=*/5);
  for (ServeRequest& r : requests) {
    r.klass = r.id % 3 == 0 ? "rag" : "interactive";
    if (r.klass == "rag") r.prompt.resize(480, 7);
  }

  Tracer tracer;
  obs::MetricsRegistry metrics;
  AnalyticServeConfig sc;
  sc.spec = PartitionSpec{Torus3D(1, 2, 2), FfnLayout::kWS1D,
                          AttnSharding::kBatch, WeightFormat::kBf16};
  sc.num_slots = 8;
  sc.plans = &plans;
  AnalyticServeBackend backend(&est, sc);
  ServeOptions options;
  options.prefill_chunk = 128;
  options.tracer = &tracer;
  options.metrics = &metrics;
  options.slo.classes["interactive"] = {0, 0.05, 0, 0.02};
  options.slo.classes["rag"] = {0.1, 0, 0, 0};
  const ServeReport report = RunContinuousServing(backend, requests, options);

  ASSERT_EQ(report.completed(), 12);
  EXPECT_TRUE(report.slo.evaluated);
  EXPECT_GT(plans.hits(), 0);

  ExpectGolden("analytic colocated", report.requests, tracer, metrics,
               {0xe6af6a08a2afc429ULL, 0x16f9847c6bcf2eedULL,
                0x448cdd8fec5236f1ULL});
}

TEST(ServeGoldenTest, FunctionalDisaggregated) {
  const ModelConfig cfg = TinyTestModelMultihead();
  const ModelWeights weights = ModelWeights::Random(cfg, 93);
  const int64_t vocab = cfg.vocab_size;

  // Eight requests into a 4-slot decode frame: migrations queue for slots.
  std::vector<ServeRequest> requests;
  for (int64_t i = 0; i < 8; ++i)
    requests.push_back(Request(i, static_cast<double>(i) * 1e-6,
                               RandomTokens(5 + i % 4, vocab, 960 + i),
                               i == 2 ? 1 : 6 + i % 3));

  SimMachine prefill_machine(Torus3D(2, 2, 1), TpuV4());
  SimMachine decode_machine(Torus3D(2, 2, 1), TpuV4());
  Tracer tracer;
  obs::MetricsRegistry metrics;
  EngineSpec prefill_spec;
  prefill_spec.attn = AttnSharding::kHeads;
  EngineSpec decode_spec;
  decode_spec.attn = AttnSharding::kBatch;
  DistributedEngine prefill_engine(weights, &prefill_machine, prefill_spec);
  DistributedEngine decode_engine(weights, &decode_machine, decode_spec);
  prefill_engine.set_metrics(&metrics);
  decode_engine.set_metrics(&metrics);
  ServeOptions options;
  options.prefill_chunk = 3;
  options.sampling.temperature = 0;
  options.tracer = &tracer;
  options.metrics = &metrics;
  EngineServeBackend prefill(&prefill_engine, /*num_slots=*/2, options);
  EngineServeBackend decode(&decode_engine, /*num_slots=*/4, options);
  CommCostModel link;
  link.network_bw = TpuV4().network_bw;
  EngineKvMigrator migrator(&prefill_engine, &decode_engine, 4, link);
  const DisaggReport report =
      RunDisaggServing(prefill, decode, migrator, requests, options);

  ASSERT_EQ(report.serve.completed(), 8);
  EXPECT_EQ(report.migrations, 7);  // request 2 retired at its first token
  EXPECT_EQ(report.serve.requests[2].tokens.size(), 1u);
  // Some migration waited in the queue until a decode retirement freed
  // its slot: a decode-pool retire lands between the request's first token
  // and its migrate span in the timeline's insertion order.
  bool queued_for_slot = false;
  std::vector<int64_t> waiting;  // first token sampled, not yet migrated
  for (const TimelineEvent& e : tracer.timeline()) {
    if (e.name == "first_token") waiting.push_back(e.id);
    if (e.name == "migrate") {
      const int64_t id = std::stoll(e.args[0].second);
      waiting.erase(std::find(waiting.begin(), waiting.end(), id));
    }
    if (e.name == "retire" && e.args[1].second != "1") {
      queued_for_slot |= !waiting.empty();
    }
  }
  EXPECT_TRUE(queued_for_slot);

  ExpectGolden("functional disaggregated", report.serve.requests, tracer,
               metrics,
               {0x8d118ab8fe966994ULL, 0x2b9456fc9a929293ULL,
                0xabc706c5c10f21f7ULL});
}

TEST(ServeGoldenTest, AnalyticDisaggregatedE24Shape) {
  const ModelConfig cfg = Palm8B();
  const InferenceEstimator est(cfg, TpuV4());

  std::vector<ServeRequest> requests =
      PoissonRequests(200.0, 16, 64, 32, cfg.vocab_size, /*seed=*/7);
  for (ServeRequest& r : requests) r.klass = "interactive";
  std::vector<ServeRequest> rag =
      PoissonRequests(60.0, 4, 2048, 4, cfg.vocab_size, /*seed=*/8);
  for (ServeRequest& r : rag) {
    r.id += 16;
    r.klass = "rag";
    requests.push_back(std::move(r));
  }

  auto spec = [](Torus3D mesh) {
    PartitionSpec s{mesh, FfnLayout::kWS2D, AttnSharding::kBatch,
                    WeightFormat::kInt8};
    s.kv_page_size = 16;
    return s;
  };
  DisaggConfig dc;
  dc.prefill_spec = spec(Torus3D(1, 2, 2));
  dc.decode_spec = spec(Torus3D(2, 2, 2));
  dc.prefill_slots = 2;
  dc.decode_slots = 8;
  // A slow link: a RAG prompt's KV takes longer to ship than to prefill,
  // so the prefill pool waits on slots its migrations free.
  dc.link.network_bw = 2e8;
  Tracer tracer;
  obs::MetricsRegistry metrics;
  ServeOptions options;
  options.prefill_chunk = 256;
  options.tracer = &tracer;
  options.metrics = &metrics;
  options.slo.classes["interactive"] = {0, 0, 0, 0.01};
  options.slo.classes["rag"] = {0, 1.0, 0, 0};
  const AnalyticDisaggRun run =
      RunAnalyticDisaggServing(est, dc, requests, options);

  ASSERT_EQ(run.report.serve.completed(), 20);
  EXPECT_EQ(run.report.migrations, 20);
  // Some admission waited for a slot that a transfer's landing freed.
  bool admitted_at_landing = false;
  for (const TimelineEvent& e : tracer.timeline()) {
    if (e.name != "migrated") continue;
    for (const RequestRecord& r : run.report.serve.requests)
      admitted_at_landing |= r.admitted == e.ts && r.admitted > r.arrival;
  }
  EXPECT_TRUE(admitted_at_landing);

  ExpectGolden("analytic disaggregated", run.report.serve.requests, tracer,
               metrics,
               {0xe5016091aa65bac0ULL, 0x9ad77f460700a5c9ULL,
                0xc44a116512510524ULL});
}

}  // namespace
}  // namespace tsi
