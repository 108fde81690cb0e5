// Per-request latency anatomy + roofline attribution + SLO evaluation
// (src/obs/{anatomy,roofline,slo}):
//   * FoldAnatomy over the scheduler timeline reconstructs exactly the
//     queue wait / TTFT / latency / token-emission stamps the scheduler's
//     own RequestRecords hold -- trace-side and report-side anatomy are two
//     views of the same virtual-time stamps;
//   * AnatomyReport::ToJson and RooflineReport::ToJson are byte-identical
//     across SPMD slot counts 1 vs 8, for both the colocated functional
//     runtime and the disaggregated two-pool runtime;
//   * on the colocated analytic backend the roofline fold's summed per-span
//     breakdowns equal AnalyticServeBackend::total_cost() EXACTLY (same
//     estimator calls in the same order), per-phase bound-by fractions sum
//     to 1, and each span's bound is the argmax of its own breakdown;
//   * on the analytic disagg run the prefill-/decode-phase span sums equal
//     the per-pool costs the backends charged, and migrate spans are
//     network-bound with the link seconds the migrator reported;
//   * EvaluateSlo: per-class pass/fail against exact percentiles, ""-class
//     default fallback, targeted-but-empty classes fail, TPOT checks are
//     vacuous without gaps.
#include "obs/anatomy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "comm/cost.h"
#include "core/inference_cost.h"
#include "engine/engine.h"
#include "hw/chip.h"
#include "obs/roofline.h"
#include "obs/slo.h"
#include "serve/analytic.h"
#include "serve/disagg.h"
#include "serve/runtime.h"
#include "sim/trace.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace tsi {
namespace {

std::vector<int32_t> RandomTokens(int64_t n, int64_t vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> t(static_cast<size_t>(n));
  for (auto& v : t)
    v = static_cast<int32_t>(rng.NextBelow(static_cast<uint64_t>(vocab)));
  return t;
}

ServeOptions GreedyOptions(int64_t prefill_chunk) {
  ServeOptions o;
  o.prefill_chunk = prefill_chunk;
  o.sampling.temperature = 0;
  return o;
}

// Staggered arrivals, two request classes, prompts long enough to chunk.
std::vector<ServeRequest> ClassedRequests(const ModelConfig& cfg) {
  std::vector<ServeRequest> requests;
  for (int64_t i = 0; i < 6; ++i) {
    ServeRequest r;
    r.id = i;
    r.arrival = static_cast<double>(i) * 2e-6;
    r.klass = (i % 2 == 0) ? "interactive" : "batch";
    r.prompt =
        RandomTokens(4 + i % 3, cfg.vocab_size, 100 + static_cast<uint64_t>(i));
    r.max_new_tokens = 5;
    requests.push_back(std::move(r));
  }
  return requests;
}

// The ideal-mode estimator the analytic cross-checks run under (the same
// zeroed-overhead SystemModel serve_test's analytic cross-check uses).
InferenceEstimator IdealEstimator(const ModelConfig& cfg) {
  SystemModel sys;
  sys.matmul_peak_frac = 1.0;
  sys.matmul_tau_tokens = 0;
  sys.hbm_frac = 1.0;
  sys.per_layer_overhead = 0;
  sys.overlap_fraction = 0;
  sys.hop_latency = 0;
  sys.additive = false;
  return InferenceEstimator(cfg, TpuV4(), sys);
}

obs::BoundBy ArgmaxBound(const CostBreakdown& b) {
  const double hbm = b.weight_memory + b.kv_memory;
  if (b.compute >= hbm && b.compute >= b.comm) return obs::BoundBy::kCompute;
  if (hbm >= b.comm) return obs::BoundBy::kHbm;
  return obs::BoundBy::kNetwork;
}

// --- Anatomy: trace-side fold == report-side records -----------------------

// Every request's folded anatomy equals the scheduler's own record.
void ExpectFoldMatchesRecords(const obs::AnatomyReport& anatomy,
                              const ServeReport& report,
                              const std::vector<ServeRequest>& requests) {
  ASSERT_EQ(anatomy.requests.size(), report.requests.size());
  for (size_t i = 0; i < report.requests.size(); ++i) {
    const RequestRecord& rec = report.requests[i];
    const obs::RequestAnatomy& a = anatomy.requests[i];
    ASSERT_EQ(a.id, rec.id);
    EXPECT_EQ(a.klass, rec.klass);
    EXPECT_EQ(a.prompt_tokens,
              static_cast<int64_t>(requests[i].prompt.size()));
    // The fold reads the very stamps the scheduler recorded, so these are
    // exact -- not approximately-equal -- reconstructions.
    EXPECT_DOUBLE_EQ(a.arrival, rec.arrival);
    EXPECT_DOUBLE_EQ(a.admitted, rec.admitted);
    EXPECT_DOUBLE_EQ(a.first_token, rec.first_token);
    EXPECT_DOUBLE_EQ(a.finished, rec.finished);
    EXPECT_DOUBLE_EQ(a.QueueWait(), rec.QueueWait());
    EXPECT_DOUBLE_EQ(a.Ttft(), rec.Ttft());
    EXPECT_DOUBLE_EQ(a.Latency(), rec.Latency());
    // Token-emission stamps: one per generated token, first at first_token,
    // reconstructed from decode-span ends. Span ends are start + duration,
    // so allow one rounding step against the recorded stamps.
    ASSERT_EQ(a.token_times.size(), rec.token_times.size());
    ASSERT_EQ(a.token_times.size(), rec.tokens.size());
    for (size_t t = 0; t < a.token_times.size(); ++t)
      EXPECT_NEAR(a.token_times[t], rec.token_times[t],
                  1e-9 * std::max(1.0, rec.token_times[t]));
    EXPECT_FALSE(a.migrated);
    // Prefill chunks cover the whole prompt in prefill_chunk pieces.
    int64_t fed = 0;
    for (const obs::PrefillChunkAnatomy& c : a.prefill) {
      EXPECT_EQ(c.context, fed);  // context = tokens cached before the chunk
      fed += c.tokens;
    }
    EXPECT_EQ(fed, a.prompt_tokens);
  }
}

TEST(AnatomyTest, FoldMatchesServeReportRecords) {
  ModelConfig cfg = TinyTestModel();
  InferenceEstimator estimator = IdealEstimator(cfg);
  AnalyticServeConfig acfg;
  acfg.spec = PartitionSpec{Torus3D(2, 2, 1), FfnLayout::kWS2D,
                            AttnSharding::kBatch, WeightFormat::kBf16};
  acfg.num_slots = 4;

  Tracer tracer;
  obs::MetricsRegistry metrics;
  ServeOptions options = GreedyOptions(/*prefill_chunk=*/3);
  options.tracer = &tracer;
  options.metrics = &metrics;
  AnalyticServeBackend backend(&estimator, acfg);
  const std::vector<ServeRequest> requests = ClassedRequests(cfg);
  const ServeReport report = RunContinuousServing(backend, requests, options);
  ASSERT_EQ(report.completed(), 6);

  const obs::AnatomyReport anatomy = obs::FoldAnatomy(tracer.timeline());
  ASSERT_EQ(anatomy.requests.size(), 6u);
  ExpectFoldMatchesRecords(anatomy, report, requests);

  // Per-class summaries fold exactly the samples the report's own
  // per-class grouping produces (the SLO input), so an anatomy percentile
  // and an SLO verdict can never disagree.
  const auto want = report.ClassSamples();
  const auto got = anatomy.ClassSamples();
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(anatomy.classes.size(), 2u);
  for (const obs::ClassAnatomy& c : anatomy.classes) {
    ASSERT_TRUE(want.count(c.klass)) << c.klass;
    const obs::SloClassSamples& w = want.at(c.klass);
    EXPECT_EQ(c.requests, static_cast<int64_t>(w.ttft.size()));
    EXPECT_EQ(c.tpot_samples, static_cast<int64_t>(w.tpot.size()));
    std::vector<double> ttft = w.ttft;
    std::sort(ttft.begin(), ttft.end());
    EXPECT_DOUBLE_EQ(c.ttft.p50, SortedPercentile(ttft, 50));
    EXPECT_DOUBLE_EQ(c.ttft.p99, SortedPercentile(ttft, 99));
  }
}

TEST(AnatomyTest, FunctionalFoldMatchesRecordsWithDeferredChunks) {
  // The functional backend defers non-final prefill chunks into its next
  // forward pass: their prefill spans are zero-length and their cost sits
  // in the next pass's span. The fold still reproduces every record.
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 7);
  SimMachine machine(Torus3D(2, 2, 1), TpuV4());
  Tracer tracer;
  machine.AttachTracer(&tracer);
  EngineSpec spec;
  spec.attn = AttnSharding::kBatch;
  DistributedEngine engine(weights, &machine, spec);
  obs::MetricsRegistry metrics;
  engine.set_metrics(&metrics);
  ServeOptions options = GreedyOptions(/*prefill_chunk=*/3);
  options.tracer = &tracer;
  options.metrics = &metrics;
  EngineServeBackend backend(&engine, /*num_slots=*/4, options);
  const std::vector<ServeRequest> requests = ClassedRequests(cfg);
  const ServeReport report = RunContinuousServing(backend, requests, options);
  ASSERT_EQ(report.completed(), 6);

  const obs::AnatomyReport anatomy = obs::FoldAnatomy(tracer.timeline());
  ExpectFoldMatchesRecords(anatomy, report, requests);
  int64_t deferred = 0;
  for (const obs::RequestAnatomy& a : anatomy.requests) {
    ASSERT_EQ(a.prefill.size(), 2u);  // 4-6 token prompts, 3-token chunks
    EXPECT_EQ(a.prefill[0].seconds, 0.0) << "request " << a.id;
    EXPECT_GT(a.prefill[1].seconds, 0.0) << "request " << a.id;
    ++deferred;
  }
  EXPECT_EQ(metrics.GetCounter("serve/deferred_chunks")->value(), deferred);
}

// --- Byte-identity across SPMD slot counts ---------------------------------

TEST(AnatomyTest, ColocatedReportsByteIdenticalAcrossSpmdSlotCounts) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 21);
  EngineSpec spec;
  spec.attn = AttnSharding::kBatch;
  const std::vector<ServeRequest> requests = ClassedRequests(cfg);
  InferenceEstimator estimator = IdealEstimator(cfg);
  obs::RooflineInputs rin;
  rin.estimator = &estimator;
  rin.prefill_spec = PartitionSpec{Torus3D(2, 2, 1), FfnLayout::kWS2D,
                                   AttnSharding::kBatch, WeightFormat::kBf16};
  rin.decode_spec = rin.prefill_spec;

  auto run = [&](int spmd_slots) {
    SimMachine machine(Torus3D(2, 2, 1), TpuV4());
    Tracer tracer;
    machine.AttachTracer(&tracer);
    obs::MetricsRegistry metrics;
    DistributedEngine engine(weights, &machine, spec);
    engine.set_metrics(&metrics);
    engine.spmd().set_slots(spmd_slots);
    ServeOptions options = GreedyOptions(/*prefill_chunk=*/3);
    options.tracer = &tracer;
    options.metrics = &metrics;
    EngineServeBackend backend(&engine, /*num_slots=*/4, options);
    RunContinuousServing(backend, requests, options);
    return obs::FoldAnatomy(tracer.timeline()).ToJson() + "\n" +
           obs::FoldRoofline(tracer.timeline(), rin).ToJson();
  };

  const std::string one = run(1);
  const std::string eight = run(8);
  EXPECT_EQ(one, eight);
  // Non-vacuous: the folds actually saw requests and classified spans.
  EXPECT_NE(one.find("\"interactive\""), std::string::npos);
  EXPECT_NE(one.find("\"prefill\""), std::string::npos);
  EXPECT_NE(one.find("\"decode\""), std::string::npos);
}

TEST(AnatomyTest, DisaggReportsByteIdenticalAcrossSpmdSlotCounts) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 22);
  EngineSpec spec;
  spec.attn = AttnSharding::kBatch;
  const std::vector<ServeRequest> requests = ClassedRequests(cfg);
  InferenceEstimator estimator = IdealEstimator(cfg);
  CommCostModel link;
  link.network_bw = TpuV4().network_bw;
  obs::RooflineInputs rin;
  rin.estimator = &estimator;
  rin.prefill_spec = PartitionSpec{Torus3D(2, 2, 1), FfnLayout::kWS2D,
                                   AttnSharding::kBatch, WeightFormat::kBf16};
  rin.decode_spec = rin.prefill_spec;
  rin.link = link;

  auto run = [&](int spmd_slots) {
    SimMachine prefill_machine(Torus3D(2, 2, 1), TpuV4());
    SimMachine decode_machine(Torus3D(2, 2, 1), TpuV4());
    Tracer tracer;
    obs::MetricsRegistry metrics;
    DistributedEngine prefill_engine(weights, &prefill_machine, spec);
    DistributedEngine decode_engine(weights, &decode_machine, spec);
    prefill_engine.spmd().set_slots(spmd_slots);
    decode_engine.spmd().set_slots(spmd_slots);
    ServeOptions options = GreedyOptions(/*prefill_chunk=*/3);
    options.tracer = &tracer;
    options.metrics = &metrics;
    EngineServeBackend prefill(&prefill_engine, /*num_slots=*/4, options);
    EngineServeBackend decode(&decode_engine, /*num_slots=*/8, options);
    EngineKvMigrator migrator(&prefill_engine, &decode_engine, 8, link);
    DisaggReport report =
        RunDisaggServing(prefill, decode, migrator, requests, options);
    EXPECT_EQ(report.migrations, 6);
    return obs::FoldAnatomy(tracer.timeline()).ToJson() + "\n" +
           obs::FoldRoofline(tracer.timeline(), rin).ToJson();
  };

  const std::string one = run(1);
  const std::string eight = run(8);
  EXPECT_EQ(one, eight);
  // The disagg-only anatomy made it into the report: migration fields and
  // the network-bound migrate phase.
  EXPECT_NE(one.find("\"migrate_s\""), std::string::npos);
  EXPECT_NE(one.find("\"migrate\""), std::string::npos);
}

TEST(AnatomyTest, DisaggFoldAccountsMigrationInTokenGaps) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 23);
  EngineSpec spec;
  spec.attn = AttnSharding::kBatch;
  CommCostModel link;
  link.network_bw = TpuV4().network_bw;

  SimMachine prefill_machine(Torus3D(2, 2, 1), TpuV4());
  SimMachine decode_machine(Torus3D(2, 2, 1), TpuV4());
  Tracer tracer;
  obs::MetricsRegistry metrics;
  DistributedEngine prefill_engine(weights, &prefill_machine, spec);
  DistributedEngine decode_engine(weights, &decode_machine, spec);
  ServeOptions options = GreedyOptions(/*prefill_chunk=*/3);
  options.tracer = &tracer;
  options.metrics = &metrics;
  EngineServeBackend prefill(&prefill_engine, /*num_slots=*/4, options);
  EngineServeBackend decode(&decode_engine, /*num_slots=*/8, options);
  EngineKvMigrator migrator(&prefill_engine, &decode_engine, 8, link);
  const std::vector<ServeRequest> requests = ClassedRequests(cfg);
  DisaggReport report =
      RunDisaggServing(prefill, decode, migrator, requests, options);
  ASSERT_EQ(report.serve.completed(), 6);

  const obs::AnatomyReport anatomy = obs::FoldAnatomy(tracer.timeline());
  ASSERT_EQ(anatomy.requests.size(), 6u);
  double migrate_seconds = 0;
  double migrate_bytes = 0;
  for (const obs::RequestAnatomy& a : anatomy.requests) {
    ASSERT_TRUE(a.migrated) << "request " << a.id;
    EXPECT_GT(a.migrate_seconds, 0.0);
    EXPECT_GE(a.migrate_start + 1e-12,
              a.prefill.back().start + a.prefill.back().seconds);
    migrate_seconds += a.migrate_seconds;
    migrate_bytes += a.migrate_bytes;
    // The TPOT series is per token gap; the first gap straddles the
    // migration, so it is at least the link occupancy.
    const std::vector<double> gaps = a.TokenGaps();
    ASSERT_EQ(gaps.size() + 1, a.token_times.size());
    ASSERT_FALSE(gaps.empty());
    EXPECT_GE(gaps.front() + 1e-12, a.migrate_seconds);
    for (double g : gaps) EXPECT_GE(g, 0.0);
  }
  EXPECT_DOUBLE_EQ(migrate_bytes, report.migrated_bytes);
  EXPECT_NEAR(migrate_seconds, report.link_busy_seconds,
              1e-9 * std::max(1.0, report.link_busy_seconds));
}

// --- Roofline: exact cross-check against the analytic backend --------------

TEST(RooflineTest, ColocatedAnalyticSpanSumEqualsBackendTotalExactly) {
  ModelConfig cfg = TinyTestModel();
  InferenceEstimator estimator = IdealEstimator(cfg);
  AnalyticServeConfig acfg;
  acfg.spec = PartitionSpec{Torus3D(2, 2, 1), FfnLayout::kWS2D,
                            AttnSharding::kBatch, WeightFormat::kBf16};
  acfg.num_slots = 4;

  Tracer tracer;
  obs::MetricsRegistry metrics;
  ServeOptions options = GreedyOptions(/*prefill_chunk=*/3);
  options.tracer = &tracer;
  options.metrics = &metrics;
  AnalyticServeBackend backend(&estimator, acfg);
  RunContinuousServing(backend, ClassedRequests(cfg), options);

  obs::RooflineInputs rin;
  rin.estimator = &estimator;
  rin.prefill_spec = acfg.spec;
  rin.decode_spec = acfg.spec;
  const obs::RooflineReport roofline =
      obs::FoldRoofline(tracer.timeline(), rin);

  // Same estimator calls in the same order as the backend charged them, so
  // the fold's total is the backend's total bit-for-bit -- the per-span
  // fold and the aggregate accumulation are two views of one model.
  const CostBreakdown& want = backend.total_cost();
  EXPECT_DOUBLE_EQ(roofline.total.compute, want.compute);
  EXPECT_DOUBLE_EQ(roofline.total.weight_memory, want.weight_memory);
  EXPECT_DOUBLE_EQ(roofline.total.kv_memory, want.kv_memory);
  EXPECT_DOUBLE_EQ(roofline.total.comm, want.comm);
  EXPECT_DOUBLE_EQ(roofline.total.overhead, want.overhead);

  ASSERT_FALSE(roofline.spans.empty());
  for (const obs::RooflineSpan& s : roofline.spans) {
    EXPECT_TRUE(s.phase == "prefill" || s.phase == "decode") << s.phase;
    EXPECT_EQ(s.bound, ArgmaxBound(s.breakdown)) << s.phase;
  }
  ASSERT_EQ(roofline.phases.size(), 2u);  // sorted: decode, prefill
  EXPECT_EQ(roofline.phases[0].phase, "decode");
  EXPECT_EQ(roofline.phases[1].phase, "prefill");
  for (const obs::PhaseRoofline& p : roofline.phases) {
    EXPECT_GT(p.spans, 0);
    EXPECT_GT(p.seconds, 0.0);
    EXPECT_NEAR(p.compute_frac + p.hbm_frac + p.network_frac, 1.0, 1e-12);
  }
}

TEST(RooflineTest, DisaggAnalyticPhaseSumsMatchPerPoolCosts) {
  ModelConfig cfg = TinyTestModel();
  InferenceEstimator estimator = IdealEstimator(cfg);
  DisaggConfig dc;
  dc.enabled = true;
  dc.prefill_spec = PartitionSpec{Torus3D(2, 1, 1), FfnLayout::kWS2D,
                                  AttnSharding::kBatch, WeightFormat::kBf16};
  dc.decode_spec = PartitionSpec{Torus3D(2, 2, 1), FfnLayout::kWS2D,
                                 AttnSharding::kBatch, WeightFormat::kBf16};
  dc.prefill_slots = 2;
  dc.decode_slots = 8;
  dc.link.network_bw = TpuV4().network_bw;

  Tracer tracer;
  obs::MetricsRegistry metrics;
  ServeOptions options = GreedyOptions(/*prefill_chunk=*/3);
  options.tracer = &tracer;
  options.metrics = &metrics;
  const AnalyticDisaggRun run =
      RunAnalyticDisaggServing(estimator, dc, ClassedRequests(cfg), options);
  ASSERT_EQ(run.report.serve.completed(), 6);
  ASSERT_EQ(run.report.migrations, 6);

  obs::RooflineInputs rin;
  rin.estimator = &estimator;
  rin.prefill_spec = dc.prefill_spec;
  rin.decode_spec = dc.decode_spec;
  rin.link = dc.link;
  const obs::RooflineReport roofline =
      obs::FoldRoofline(tracer.timeline(), rin);

  // Per-pool exactness: prefill-phase spans re-sum to what the prefill
  // backend charged, decode-phase spans to the decode backend (each pool's
  // spans appear in the timeline in that pool's charge order).
  CostBreakdown prefill_sum, decode_sum;
  double migrate_sum = 0;
  for (const obs::RooflineSpan& s : roofline.spans) {
    if (s.phase == "prefill") {
      prefill_sum += s.breakdown;
    } else if (s.phase == "decode") {
      decode_sum += s.breakdown;
    } else {
      ASSERT_EQ(s.phase, "migrate");
      // Migration occupies only the link: network-bound by definition, all
      // cost in comm, priced identically to the migrator's charge.
      EXPECT_EQ(s.bound, obs::BoundBy::kNetwork);
      EXPECT_DOUBLE_EQ(s.breakdown.comm, s.seconds);
      EXPECT_DOUBLE_EQ(s.breakdown.compute, 0.0);
      migrate_sum += s.seconds;
    }
  }
  EXPECT_DOUBLE_EQ(prefill_sum.compute, run.prefill_cost.compute);
  EXPECT_DOUBLE_EQ(prefill_sum.weight_memory, run.prefill_cost.weight_memory);
  EXPECT_DOUBLE_EQ(prefill_sum.kv_memory, run.prefill_cost.kv_memory);
  EXPECT_DOUBLE_EQ(prefill_sum.comm, run.prefill_cost.comm);
  EXPECT_DOUBLE_EQ(decode_sum.compute, run.decode_cost.compute);
  EXPECT_DOUBLE_EQ(decode_sum.weight_memory, run.decode_cost.weight_memory);
  EXPECT_DOUBLE_EQ(decode_sum.kv_memory, run.decode_cost.kv_memory);
  EXPECT_DOUBLE_EQ(decode_sum.comm, run.decode_cost.comm);
  EXPECT_NEAR(migrate_sum, run.report.link_busy_seconds,
              1e-9 * std::max(1.0, run.report.link_busy_seconds));

  bool saw_migrate_phase = false;
  for (const obs::PhaseRoofline& p : roofline.phases) {
    EXPECT_NEAR(p.compute_frac + p.hbm_frac + p.network_frac, 1.0, 1e-12);
    if (p.phase == "migrate") {
      saw_migrate_phase = true;
      EXPECT_DOUBLE_EQ(p.network_frac, 1.0);
    }
  }
  EXPECT_TRUE(saw_migrate_phase);
}

// --- SLO evaluation --------------------------------------------------------

TEST(SloTest, EvaluatesTargetsAgainstExactPercentiles) {
  obs::SloSpec spec;
  spec.classes["interactive"] = {0, 0.5, 0, 0.1};  // ttft_p99, tpot_p99
  std::map<std::string, obs::SloClassSamples> samples;
  samples["interactive"].ttft = {0.1, 0.2, 0.3};
  samples["interactive"].tpot = {0.01, 0.02, 0.05};

  obs::SloReport report = EvaluateSlo(spec, samples);
  EXPECT_TRUE(report.evaluated);
  EXPECT_TRUE(report.ok);
  ASSERT_EQ(report.classes.size(), 1u);
  const obs::SloClassReport& c = report.classes[0];
  EXPECT_EQ(c.klass, "interactive");
  EXPECT_EQ(c.requests, 3);
  EXPECT_EQ(c.tpot_samples, 3);
  // Exact order statistics, not bucket bounds.
  std::vector<double> ttft = samples["interactive"].ttft;
  EXPECT_DOUBLE_EQ(c.ttft_p99, SortedPercentile(ttft, 99));
  ASSERT_EQ(c.checks.size(), 2u);  // only the targeted metrics
  for (const obs::SloCheck& chk : c.checks) EXPECT_TRUE(chk.ok);

  // Tighten one target below the actual: the class and the report flip.
  spec.classes["interactive"].tpot_p99 = 0.04;
  report = EvaluateSlo(spec, samples);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.classes[0].ok);
}

TEST(SloTest, DefaultClassFallbackAndEmptyTargetedClassFails) {
  obs::SloSpec spec;
  spec.classes[""] = {0, 1.0, 0, 0};       // default: ttft_p99 <= 1
  spec.classes["strict"] = {0, 0.01, 0, 0};
  EXPECT_EQ(spec.TargetFor("anything"), &spec.classes[""]);
  EXPECT_EQ(spec.TargetFor("strict"), &spec.classes["strict"]);

  std::map<std::string, obs::SloClassSamples> samples;
  samples["untagged"].ttft = {0.5};
  // "strict" has a spec entry but no samples: nothing completed is a miss.
  obs::SloReport report = EvaluateSlo(spec, samples);
  EXPECT_TRUE(report.evaluated);
  EXPECT_FALSE(report.ok);
  bool saw_untagged = false, saw_strict = false;
  for (const obs::SloClassReport& c : report.classes) {
    if (c.klass == "untagged") {
      saw_untagged = true;
      EXPECT_TRUE(c.ok);  // checked against the "" default and passed
      ASSERT_EQ(c.checks.size(), 1u);
      EXPECT_EQ(c.checks[0].metric, "ttft_p99");
    }
    if (c.klass == "strict") {
      saw_strict = true;
      EXPECT_FALSE(c.ok);
      EXPECT_EQ(c.requests, 0);
    }
  }
  EXPECT_TRUE(saw_untagged);
  EXPECT_TRUE(saw_strict);

  // TPOT targets are vacuous when requests completed but emitted no gaps
  // (single-token generations): TTFT still gates, TPOT passes.
  obs::SloSpec tpot_spec;
  tpot_spec.classes[""] = {0, 1.0, 0, 0.1};
  std::map<std::string, obs::SloClassSamples> single;
  single[""].ttft = {0.2};
  obs::SloReport vac = EvaluateSlo(tpot_spec, single);
  EXPECT_TRUE(vac.ok);
}

}  // namespace
}  // namespace tsi
