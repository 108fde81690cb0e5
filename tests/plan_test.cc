// Shard-spec propagation, lowering, autotuner and plan cache.
//
// The load-bearing claim: the collective schedule the propagation pass
// derives from a sharding assignment prices EXACTLY like the hand-coded
// LayerCost for every paper layout -- same collectives, same CostBreakdown
// to the double (EXPECT_DOUBLE_EQ, not EXPECT_NEAR). If propagation merely
// approximated §3, these tests would see last-bit drift immediately.
#include <gtest/gtest.h>

#include <set>

#include "core/inference_cost.h"
#include "core/planner.h"
#include "hw/chip.h"
#include "plan/autotune.h"
#include "plan/cache.h"
#include "plan/lower.h"
#include "plan/propagate.h"
#include "plan/validate.h"
#include "serve/analytic.h"
#include "serve/disagg.h"

namespace tsi {
namespace plan {
namespace {

struct LayoutCase {
  FfnLayout ffn;
  Torus3D mesh;
};

// One representative mesh per paper layout, exercising x, y and z.
std::vector<LayoutCase> PaperLayouts() {
  return {
      {FfnLayout::kWS1D, Torus3D(1, 4, 2)},
      {FfnLayout::kWS2D, Torus3D(4, 4, 2)},
      {FfnLayout::kWGX, Torus3D(4, 4, 2)},
      {FfnLayout::kWGXY, Torus3D(4, 4, 2)},
      {FfnLayout::kWGXYZ, Torus3D(4, 4, 2)},
  };
}

std::vector<ModelConfig> Models() {
  return {Palm8B(), Palm62B(), Palm540BPadded(), Palm540BMultihead(),
          Palm540BGrouped(8), MtNlg530B()};
}

void ExpectBreakdownEq(const CostBreakdown& want, const CostBreakdown& got,
                       const std::string& what) {
  EXPECT_DOUBLE_EQ(want.compute, got.compute) << what;
  EXPECT_DOUBLE_EQ(want.weight_memory, got.weight_memory) << what;
  EXPECT_DOUBLE_EQ(want.kv_memory, got.kv_memory) << what;
  EXPECT_DOUBLE_EQ(want.comm, got.comm) << what;
  EXPECT_DOUBLE_EQ(want.overhead, got.overhead) << what;
}

// --- ShardSpec IR ----------------------------------------------------------

TEST(ShardSpecTest, AccessorsAndValidation) {
  Torus3D mesh(2, 4, 2);
  ShardSpec s = Spec({{"tokens", kAxisNone}, {"E", kAxisX}});
  EXPECT_EQ(s.AxesOf("E"), kAxisX);
  EXPECT_EQ(s.AxesOf("missing"), kAxisNone);
  EXPECT_EQ(s.DivisorOf("E", mesh), 2);
  EXPECT_EQ(s.DivisorOf("tokens", mesh), 1);
  s.SetAxes("E", kAxisXY);
  EXPECT_EQ(s.DivisorOf("E", mesh), 8);
  s.Validate(mesh);
  EXPECT_EQ(s.ToString(), "[tokens, E.xy]");

  ShardSpec partial = Spec({{"tokens", kAxisNone}, {"E", kAxisX}}, kAxisY | kAxisZ);
  partial.Validate(mesh);
  EXPECT_EQ(partial.ToString(), "[tokens, E.x]+partial(yz)");

  ShardSpec bad = Spec({{"a", kAxisX}, {"b", kAxisX}});
  EXPECT_DEATH(bad.Validate(mesh), "shards two dimensions");
  ShardSpec overlap = Spec({{"a", kAxisX}}, kAxisX);
  EXPECT_DEATH(overlap.Validate(mesh), "both shards and carries");
}

// --- Propagation: structure ------------------------------------------------

int CountKind(const PropagatedBlock& b, CollectiveKind kind) {
  int n = 0;
  for (const auto& c : b.collectives)
    if (c.kind == kind) ++n;
  return n;
}

TEST(PropagateTest, Ws2DParallelInsertsPaperSchedule) {
  ModelConfig config = Palm540BPadded();  // gated, parallel
  PartitionSpec spec;
  spec.mesh = Torus3D(4, 4, 2);
  spec.ffn = FfnLayout::kWS2D;
  PropagatedBlock b = Propagate(BuildBlockGraph(config, CanonicalAssignment(spec)));

  // F-side: rs(x) at sdpa + ag(x) at attn-out (both fused into the FFN
  // group), rs(x) covering both gated input projections, ag(x) at ffn-out.
  EXPECT_EQ(CountKind(b, CollectiveKind::kReduceScatter), 2);
  EXPECT_EQ(CountKind(b, CollectiveKind::kAllGather), 2);
  // E-side: ONE residual all-reduce(yz) shared by both branches (§3.4).
  EXPECT_EQ(CountKind(b, CollectiveKind::kAllReduce), 1);
  EXPECT_EQ(CountKind(b, CollectiveKind::kWeightGather), 0);
  EXPECT_EQ(CountKind(b, CollectiveKind::kAllToAll), 0);
  for (const auto& c : b.collectives) {
    if (c.kind == CollectiveKind::kAllReduce) {
      EXPECT_EQ(c.axes, kAxisY | kAxisZ);
    } else {
      EXPECT_EQ(c.axes, kAxisX);
    }
  }
  // Output spec equals input spec (blocks stack).
  EXPECT_EQ(b.output_spec(), b.specs[0]);
  EXPECT_EQ(b.specs[0].ToString(), "[tokens, E.x]");
}

TEST(PropagateTest, SerialBlockPaysTwoResidualAllReduces) {
  ModelConfig config = MtNlg530B();  // serial, plain FFN
  PartitionSpec spec;
  spec.mesh = Torus3D(4, 4, 2);
  spec.ffn = FfnLayout::kWS2D;
  PropagatedBlock b = Propagate(BuildBlockGraph(config, CanonicalAssignment(spec)));
  EXPECT_EQ(CountKind(b, CollectiveKind::kAllReduce), 2);
}

TEST(PropagateTest, WeightGatheredXyzNeedsNoActivationCollectives) {
  ModelConfig config = Palm540BPadded();
  PartitionSpec spec;
  spec.mesh = Torus3D(4, 4, 2);
  spec.ffn = FfnLayout::kWGXYZ;
  PropagatedBlock b = Propagate(BuildBlockGraph(config, CanonicalAssignment(spec)));
  // Four weight gathers (qkv, attn-out, ffn-in, ffn-out), nothing else: the
  // batch-sharded activations never leave the chip.
  EXPECT_EQ(CountKind(b, CollectiveKind::kWeightGather), 4);
  EXPECT_EQ(static_cast<int>(b.collectives.size()), 4);
  EXPECT_EQ(b.specs[0].ToString(), "[tokens.xyz, E]");
}

TEST(PropagateTest, BatchShardedAttentionInsertsAllToAllPairOnlyWhenWeightStationary) {
  ModelConfig config = Palm540BPadded();
  PartitionSpec spec;
  spec.mesh = Torus3D(4, 4, 2);
  spec.attn = AttnSharding::kBatch;
  spec.ffn = FfnLayout::kWS2D;
  PropagatedBlock ws = Propagate(BuildBlockGraph(config, CanonicalAssignment(spec)));
  EXPECT_EQ(CountKind(ws, CollectiveKind::kAllToAll), 2);

  spec.ffn = FfnLayout::kWGXYZ;  // tokens already batch-sharded: no reshard
  PropagatedBlock wg = Propagate(BuildBlockGraph(config, CanonicalAssignment(spec)));
  EXPECT_EQ(CountKind(wg, CollectiveKind::kAllToAll), 0);
}

TEST(PropagateTest, PartialGatherLeavesResidualReduction) {
  ModelConfig config = Palm540BPadded();
  PartitionSpec spec;
  spec.mesh = Torus3D(4, 4, 2);
  spec.ffn = FfnLayout::kWGX;
  PropagatedBlock b = Propagate(BuildBlockGraph(config, CanonicalAssignment(spec)));
  ASSERT_EQ(CountKind(b, CollectiveKind::kAllReduce), 1);
  for (const auto& c : b.collectives) {
    if (c.kind == CollectiveKind::kAllReduce) {
      EXPECT_EQ(c.axes, kAxisY | kAxisZ);
    }
  }

  spec.ffn = FfnLayout::kWGXY;
  PropagatedBlock b2 = Propagate(BuildBlockGraph(config, CanonicalAssignment(spec)));
  ASSERT_EQ(CountKind(b2, CollectiveKind::kAllReduce), 1);
  for (const auto& c : b2.collectives) {
    if (c.kind == CollectiveKind::kAllReduce) {
      EXPECT_EQ(c.axes, kAxisZ);
    }
  }
}

// --- Lowering: cost equality (the tentpole acceptance) ---------------------

// Every paper layout x attention sharding x model x phase: the
// propagation-derived schedule prices EXACTLY like LayerCost.
TEST(LowerTest, PropagationReproducesHandCodedLayerCostExactly) {
  SystemModel sys;
  ChipSpec chip = TpuV4();
  for (const ModelConfig& config : Models()) {
    for (const LayoutCase& lc : PaperLayouts()) {
      for (AttnSharding attn : {AttnSharding::kHeads, AttnSharding::kBatch}) {
        for (WeightFormat fmt : {WeightFormat::kBf16, WeightFormat::kInt8}) {
          PartitionSpec spec;
          spec.mesh = lc.mesh;
          spec.ffn = lc.ffn;
          spec.attn = attn;
          spec.weight_format = fmt;
          LoweredPlan plan = LowerSpec(config, spec, chip, sys.hop_latency);
          ASSERT_EQ(plan.spec.ffn, spec.ffn);
          std::string what = config.name + " " + spec.ToString();
          // Decode step, large-batch prefill, long-context decode.
          ExpectBreakdownEq(
              LayerCost(config, spec, chip, sys, Phase::kDecode, 64, 1, 1024),
              PriceBlock(plan, chip, sys, Phase::kDecode, 64, 1, 1024),
              what + " decode");
          ExpectBreakdownEq(
              LayerCost(config, spec, chip, sys, Phase::kPrefill, 16, 2048, 2048),
              PriceBlock(plan, chip, sys, Phase::kPrefill, 16, 2048, 2048),
              what + " prefill");
          ExpectBreakdownEq(
              LayerCost(config, spec, chip, sys, Phase::kDecode, 256, 1, 8192),
              PriceBlock(plan, chip, sys, Phase::kDecode, 256, 1, 8192),
              what + " long-context");
        }
      }
    }
  }
}

// Same equality across EVERY enumerated candidate at several chip counts --
// including degenerate meshes (x-only, z-only) and single chip.
TEST(LowerTest, AllEnumeratedCandidatesPriceExactly) {
  SystemModel sys;
  ChipSpec chip = TpuV4();
  ModelConfig config = Palm540BPadded();
  for (int chips : {1, 8, 64, 256}) {
    for (const PartitionSpec& spec :
         EnumerateSpecs(config, chips, WeightFormat::kInt8,
                        /*dedup=*/false)) {
      LoweredPlan plan = LowerSpec(config, spec, chip, sys.hop_latency);
      ExpectBreakdownEq(
          LayerCost(config, spec, chip, sys, Phase::kDecode, 64, 1, 2048),
          PriceBlock(plan, chip, sys, Phase::kDecode, 64, 1, 2048),
          config.name + " " + spec.ToString() + " @" + std::to_string(chips));
    }
  }
}

TEST(LowerTest, LoweringRecoversLayoutEnum) {
  ModelConfig config = Palm8B();
  for (const LayoutCase& lc : PaperLayouts()) {
    PartitionSpec spec;
    spec.mesh = lc.mesh;
    spec.ffn = lc.ffn;
    EXPECT_EQ(
        LowerSpec(config, spec, TpuV4(), SystemModel{}.hop_latency).spec.ffn,
        lc.ffn);
  }
  // Degenerate mesh: a gather over xy on a y=z=1 mesh IS a gather over x.
  PartitionSpec degen;
  degen.mesh = Torus3D(8, 1, 1);
  degen.ffn = FfnLayout::kWGXY;
  EXPECT_EQ(
      LowerSpec(config, degen, TpuV4(), SystemModel{}.hop_latency).spec.ffn,
      FfnLayout::kWGX);
}

// --- Enumeration dedup -----------------------------------------------------

TEST(EnumerateTest, DedupDropsEquivalentCandidatesButKeepsWinners) {
  ModelConfig config = Palm540BPadded();
  for (int chips : {8, 64, 256}) {
    auto full = EnumerateSpecs(config, chips, WeightFormat::kBf16, false);
    auto deduped = EnumerateSpecs(config, chips, WeightFormat::kBf16);
    EXPECT_LT(deduped.size(), full.size()) << chips << " chips";
    // Dedup keeps the first of each class, so it is a subsequence of full.
    size_t j = 0;
    for (const auto& s : deduped) {
      while (j < full.size() && !(full[j].mesh.x() == s.mesh.x() &&
                                  full[j].mesh.y() == s.mesh.y() &&
                                  full[j].mesh.z() == s.mesh.z() &&
                                  full[j].ffn == s.ffn && full[j].attn == s.attn)) {
        ++j;
      }
      EXPECT_LT(j, full.size()) << "deduped list is not a subsequence";
    }
  }
}

TEST(EnumerateTest, DedupPreservesPlannerChoices) {
  InferenceEstimator est(Palm540BPadded(), TpuV4());
  for (int chips : {8, 64}) {
    for (double batch : {4.0, 64.0, 512.0}) {
      auto best = BestGenerate(est, chips, WeightFormat::kBf16, batch, 1984, 64);
      // Recompute the winner against the FULL enumeration.
      std::optional<ConfigEval> full_best;
      for (const PartitionSpec& spec :
           EnumerateSpecs(est.config(), chips, WeightFormat::kBf16, false)) {
        PhaseResult r = est.Generate(spec, batch, 1984, 64);
        if (!r.fits_memory) continue;
        if (!full_best || r.seconds < full_best->result.seconds)
          full_best = ConfigEval{spec, r};
      }
      ASSERT_EQ(best.has_value(), full_best.has_value());
      if (!best) continue;
      EXPECT_DOUBLE_EQ(best->result.seconds, full_best->result.seconds);
      EXPECT_EQ(best->spec.ffn, full_best->spec.ffn);
      EXPECT_EQ(best->spec.attn, full_best->spec.attn);
    }
  }
}

// --- Autotuner -------------------------------------------------------------

// The tuner (searching through propagate + lower) reproduces the Figure 1
// frontier: at every (chips, batch) sweep point its winner matches
// SweepGenerate's latency and cost exactly.
TEST(AutotuneTest, ReproducesFigure1SweepWinners) {
  for (const ModelConfig& config : {Palm8B(), Palm540BPadded()}) {
    InferenceEstimator est(config, TpuV4());
    std::vector<int> chips = {8, 64, 256};
    std::vector<double> batches = {4, 64, 512};
    auto sweep = SweepGenerate(est, chips, batches, WeightFormat::kInt8,
                               1984, 64);
    TuneStats stats;
    size_t i = 0;
    for (int c : chips) {
      for (double b : batches) {
        auto tuned = TuneGenerate(est, c, WeightFormat::kInt8, b, 1984, 64,
                                  &stats);
        bool swept = i < sweep.size() && sweep[i].chips == c &&
                     sweep[i].batch == b;
        if (!tuned.has_value()) {
          EXPECT_FALSE(swept) << c << " chips batch " << b;
          continue;
        }
        ASSERT_TRUE(swept) << c << " chips batch " << b;
        EXPECT_DOUBLE_EQ(tuned->result.PerStepLatency(), sweep[i].latency);
        EXPECT_DOUBLE_EQ(tuned->result.cost_chipsec_per_token,
                         sweep[i].cost_chipsec_per_token);
        EXPECT_EQ(tuned->plan.spec.ffn, sweep[i].spec.ffn);
        EXPECT_EQ(tuned->plan.spec.attn, sweep[i].spec.attn);
        ++i;
      }
    }
    EXPECT_EQ(i, sweep.size());
    EXPECT_EQ(stats.price_mismatches, 0);
  }
}

TEST(AutotuneTest, BuildPlanCacheCoversGridAndSelfChecks) {
  InferenceEstimator est(Palm8B(), TpuV4());
  AutotuneRequest req;
  req.chip_counts = {8, 16};
  req.batches = {1, 32, 256};
  req.contexts = {128, 2048};
  req.format = WeightFormat::kBf16;
  TuneStats stats;
  PlanCache cache = BuildPlanCache(est, req, &stats);
  EXPECT_EQ(stats.price_mismatches, 0);
  EXPECT_GT(stats.candidates, 0);
  // 2 chips x 2 phases x 3 batches x 2 contexts, all buckets distinct.
  EXPECT_EQ(cache.size(), 24u);
  // Every cached plan re-prices to its recorded estimate (no drift).
  for (const auto& [key, plan] : cache.plans()) {
    PhaseResult r =
        key.phase == Phase::kPrefill
            ? est.Prefill(plan.spec, key.batch_bucket, key.context_bucket)
            : est.DecodeStep(plan.spec, key.batch_bucket, key.context_bucket);
    EXPECT_DOUBLE_EQ(r.seconds, plan.est_seconds) << key.ToString();
  }
}

// --- Plan cache ------------------------------------------------------------

TEST(PlanCacheTest, BucketingAndFallbackLookup) {
  EXPECT_EQ(PlanCache::Bucket(0), 1);
  EXPECT_EQ(PlanCache::Bucket(1), 1);
  EXPECT_EQ(PlanCache::Bucket(3), 4);
  EXPECT_EQ(PlanCache::Bucket(64), 64);
  EXPECT_EQ(PlanCache::Bucket(65), 128);

  PlanCache cache;
  TunedPlan plan;
  plan.key = PlanKey{"m", 8, Phase::kDecode, 64, 2048};
  plan.spec.mesh = Torus3D(2, 2, 2);
  cache.Insert(plan);

  // Exact bucket.
  EXPECT_NE(cache.Lookup("m", 8, Phase::kDecode, 40, 1500), nullptr);
  // Shorter context falls up to the tuned 2048 plan.
  EXPECT_NE(cache.Lookup("m", 8, Phase::kDecode, 64, 100), nullptr);
  // Longer context falls back down to the largest tuned bucket.
  EXPECT_NE(cache.Lookup("m", 8, Phase::kDecode, 64, 100000), nullptr);
  // Different batch bucket / phase / model / chips: miss.
  EXPECT_EQ(cache.Lookup("m", 8, Phase::kDecode, 500, 1500), nullptr);
  EXPECT_EQ(cache.Lookup("m", 8, Phase::kPrefill, 64, 1500), nullptr);
  EXPECT_EQ(cache.Lookup("other", 8, Phase::kDecode, 64, 1500), nullptr);
  EXPECT_EQ(cache.Lookup("m", 16, Phase::kDecode, 64, 1500), nullptr);
  EXPECT_EQ(cache.hits(), 3);
  EXPECT_EQ(cache.misses(), 4);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 3.0 / 7.0);
}

TEST(PlanCacheTest, JsonRoundTripIsLossless) {
  InferenceEstimator est(Palm8B(), TpuV4());
  AutotuneRequest req;
  req.chip_counts = {8};
  req.batches = {1, 64};
  req.contexts = {512};
  req.format = WeightFormat::kInt8;
  PlanCache cache = BuildPlanCache(est, req);
  std::string json = cache.ToJson();

  PlanCache reloaded;
  std::string error;
  ASSERT_TRUE(PlanCache::FromJson(json, &reloaded, &error)) << error;
  ASSERT_EQ(reloaded.size(), cache.size());
  for (const auto& [key, plan] : cache.plans()) {
    auto it = reloaded.plans().find(key);
    ASSERT_NE(it, reloaded.plans().end()) << key.ToString();
    EXPECT_EQ(it->second.spec.ToString(), plan.spec.ToString());
    EXPECT_EQ(it->second.est_seconds, plan.est_seconds);
  }
  // Deterministic: serializing the reload is byte-identical.
  EXPECT_EQ(reloaded.ToJson(), json);
}

// --- Functional validation -------------------------------------------------

// A plan-driven engine run is bit-identical to a directly-constructed one,
// and within the engine suite's tolerance of the single-chip reference --
// for a WG-prefill + WS-decode pair (the paper's serving shape) and for a
// pure weight-stationary pair.
TEST(ValidateTest, PlanPairMatchesDirectExecutionBitwise) {
  ModelConfig config = TinyTestModel();
  PartitionSpec prefill, decode;
  prefill.mesh = decode.mesh = Torus3D(1, 2, 2);
  prefill.ffn = FfnLayout::kWGXYZ;
  decode.ffn = FfnLayout::kWS1D;
  // The engine executes weight-gathered layouts with batch-sharded
  // activations only (engine.cc enforces it).
  prefill.attn = decode.attn = AttnSharding::kBatch;
  ValidationResult r =
      ValidatePlanPair(config, prefill, decode, /*batch=*/4, /*input_len=*/6,
                       /*decode_steps=*/2, /*seed=*/42);
  EXPECT_TRUE(r.bit_identical);
  EXPECT_EQ(r.max_abs_vs_direct, 0.0f);
  EXPECT_LT(r.max_abs_vs_reference, 5e-3f);
  EXPECT_EQ(r.steps, 2);

  prefill.ffn = FfnLayout::kWS1D;
  ValidationResult ws = ValidatePlanPair(config, prefill, decode, 4, 6, 2, 7);
  EXPECT_TRUE(ws.bit_identical);
  EXPECT_LT(ws.max_abs_vs_reference, 5e-3f);
}

// The tuner's actual winners for a small model validate functionally: the
// partially-gathered layouts map onto the engine's WG-XYZ execution.
TEST(ValidateTest, TunedWinnersValidateOnFunctionalSim) {
  ModelConfig config = TinyTestModel();
  InferenceEstimator est(config, TpuV4());
  auto prefill = TunePhase(est, Phase::kPrefill, 4, WeightFormat::kBf16,
                           /*batch=*/8, /*context=*/16);
  auto decode = TunePhase(est, Phase::kDecode, 4, WeightFormat::kBf16,
                          /*batch=*/8, /*context=*/16);
  ASSERT_TRUE(prefill.has_value());
  ASSERT_TRUE(decode.has_value());
  // Validation needs one mesh + attention sharding across phases; pin the
  // decode winner's and carry prefill's FFN layout onto that mesh, bending
  // to the engine's execution constraints (WS-1D needs x == 1, weight
  // gathering needs batch-sharded attention).
  PartitionSpec p = prefill->plan.spec;
  PartitionSpec d = decode->plan.spec;
  p.mesh = d.mesh;
  p.attn = d.attn;
  if (p.ffn == FfnLayout::kWS1D && p.mesh.x() > 1) p.ffn = FfnLayout::kWS2D;
  if (EngineLayout(p.ffn) == FfnLayout::kWGXYZ ||
      EngineLayout(d.ffn) == FfnLayout::kWGXYZ) {
    p.attn = d.attn = AttnSharding::kBatch;
  }
  ValidationResult r = ValidatePlanPair(config, p, d, 8, 16,
                                        /*decode_steps=*/2, /*seed=*/3);
  EXPECT_TRUE(r.bit_identical);
  EXPECT_LT(r.max_abs_vs_reference, 5e-3f);
}

// --- Serving integration ---------------------------------------------------

TunedPlan MakePlan(const std::string& model, int chips, Phase phase,
                   double batch, double context, const PartitionSpec& spec) {
  TunedPlan p;
  p.key = PlanCache::MakeKey(model, chips, phase, batch, context);
  p.spec = spec;
  return p;
}

// The analytic serving backend consults the cache per prefill chunk and per
// decode step, and adopts ONLY the FFN layout (mesh/attn/format are pinned
// by the resident shards, §3.2.3).
TEST(ServePlanTest, AnalyticBackendSwitchesFfnLayoutPerPhase) {
  ModelConfig config = Palm8B();
  InferenceEstimator est(config, TpuV4());

  PartitionSpec base;
  base.mesh = Torus3D(1, 2, 2);
  base.ffn = FfnLayout::kWS1D;

  PartitionSpec tuned_prefill = base;
  tuned_prefill.ffn = FfnLayout::kWGXYZ;
  PartitionSpec tuned_decode = base;
  tuned_decode.ffn = FfnLayout::kWS2D;

  PlanCache cache;
  cache.Insert(
      MakePlan(config.name, 4, Phase::kPrefill, 1, 512, tuned_prefill));
  cache.Insert(
      MakePlan(config.name, 4, Phase::kDecode, 64, 512, tuned_decode));

  AnalyticServeConfig sc;
  sc.spec = base;
  sc.num_slots = 64;
  sc.plans = &cache;
  AnalyticServeBackend backend(&est, sc);
  backend.Prefill(0, 0, std::vector<int32_t>(512, 1), /*last=*/true);
  backend.Decode({ServeBackend::DecodeLane{0, 1, 0}});

  ASSERT_EQ(backend.prefill_layout_steps().size(), 1u);
  EXPECT_EQ(backend.prefill_layout_steps().begin()->first, "WG-XYZ");
  ASSERT_EQ(backend.decode_layout_steps().size(), 1u);
  EXPECT_EQ(backend.decode_layout_steps().begin()->first, "WS-2D");
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 0);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 1.0);

  // A cached plan on a different attention sharding is ignored for pricing:
  // adopting it would reshard the resident KV cache.
  PartitionSpec foreign = tuned_decode;
  foreign.attn = AttnSharding::kBatch;
  PlanCache incompatible;
  incompatible.Insert(
      MakePlan(config.name, 4, Phase::kDecode, 64, 512, foreign));
  sc.plans = &incompatible;
  AnalyticServeBackend pinned(&est, sc);
  pinned.Prefill(0, 0, std::vector<int32_t>(16, 1), /*last=*/true);
  pinned.Decode({ServeBackend::DecodeLane{0, 1, 0}});
  EXPECT_EQ(pinned.decode_layout_steps().begin()->first, "WS-1D");
  EXPECT_EQ(incompatible.hits(), 1);   // decode lookup found a plan...
  EXPECT_EQ(incompatible.misses(), 1); // ...the prefill lookup did not
}

// Bring-up, by contrast, may adopt the whole spec: pools have nothing
// resident yet.
TEST(ServePlanTest, ApplyPlanCacheAdoptsPoolSpecsAtBringUp) {
  ModelConfig config = Palm8B();
  DisaggConfig dc;
  dc.prefill_spec.mesh = Torus3D(1, 2, 1);
  dc.prefill_spec.ffn = FfnLayout::kWS1D;
  dc.decode_spec.mesh = Torus3D(1, 2, 2);
  dc.decode_spec.ffn = FfnLayout::kWS1D;
  dc.colocated_spec.mesh = Torus3D(2, 2, 2);

  PartitionSpec tuned_prefill;
  tuned_prefill.mesh = Torus3D(2, 1, 1);  // re-factorizes the 2-chip slice
  tuned_prefill.ffn = FfnLayout::kWGXYZ;
  tuned_prefill.attn = AttnSharding::kBatch;
  PartitionSpec tuned_decode;
  tuned_decode.mesh = Torus3D(1, 4, 1);
  tuned_decode.ffn = FfnLayout::kWS1D;

  PlanCache cache;
  cache.Insert(
      MakePlan(config.name, 2, Phase::kPrefill, 1, 1024, tuned_prefill));
  cache.Insert(MakePlan(config.name, 4, Phase::kDecode, dc.decode_slots,
                        2048, tuned_decode));
  // No plan for the 8-chip colocated fallback: it must keep its spec.

  int adopted = ApplyPlanCache(cache, config.name, /*expected_prompt=*/1024,
                               /*expected_context=*/2048, &dc);
  EXPECT_EQ(adopted, 2);
  EXPECT_EQ(dc.prefill_spec.ffn, FfnLayout::kWGXYZ);
  EXPECT_EQ(dc.prefill_spec.attn, AttnSharding::kBatch);
  EXPECT_EQ(dc.prefill_spec.mesh.x(), 2);
  EXPECT_EQ(dc.decode_spec.mesh.y(), 4);
  EXPECT_EQ(dc.colocated_spec.mesh.num_chips(), 8);
  EXPECT_EQ(dc.colocated_spec.ffn, FfnLayout::kWS2D);  // untouched default
}

}  // namespace
}  // namespace plan
}  // namespace tsi
