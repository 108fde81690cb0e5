// Continuous-batching serving runtime (src/serve) on the functional engine:
//   * per-request token sequences are bit-identical for SPMD slot counts 1
//     and 8 (the executor determinism contract, surfaced end-to-end);
//   * simultaneously-arriving requests match the same batch run through the
//     static Generate API token-for-token (row independence + greedy);
//   * staggered arrivals with slot reuse match each request generated in
//     isolation (batch composition cannot leak between sequences);
//   * the functional runtime and the analytical backend agree on the
//     schedule's shape and, loosely, on its virtual duration.
#include "serve/runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>

#include "engine/generation.h"
#include "hw/chip.h"
#include "obs/export.h"
#include "serve/analytic.h"
#include "serve/slots.h"
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
  o.sampling.temperature = 0;  // greedy: matches Generate's shared sampler
  return o;
}

struct ServeSetup {
  Torus3D mesh;
  EngineSpec spec;
};

ServeSetup BatchShardedSetup() {
  ServeSetup s{Torus3D(2, 2, 1), {}};
  s.spec.attn = AttnSharding::kBatch;
  return s;
}

ServeSetup HeadShardedSetup() {
  ServeSetup s{Torus3D(2, 2, 1), {}};
  s.spec.attn = AttnSharding::kHeads;
  return s;
}

ServeSetup MixedLayoutSetup() {
  // Table 2's serving mixture: weight-gathered prefill, 2D weight-stationary
  // decode, batch-sharded attention, one shared KV cache.
  ServeSetup s{Torus3D(2, 2, 2), {}};
  s.spec.prefill_ffn = FfnLayout::kWGXYZ;
  s.spec.decode_ffn = FfnLayout::kWS2D;
  s.spec.attn = AttnSharding::kBatch;
  return s;
}

// Runs `requests` through the continuous runtime on a fresh engine.
ServeReport RunOnFreshEngine(const ServeSetup& setup, const ModelWeights& weights,
                             int64_t num_slots,
                             const std::vector<ServeRequest>& requests,
                             const ServeOptions& options, int spmd_slots = 0) {
  SimMachine machine(setup.mesh, TpuV4());
  DistributedEngine engine(weights, &machine, setup.spec);
  if (spmd_slots > 0) engine.spmd().set_slots(spmd_slots);
  EngineServeBackend backend(&engine, num_slots, options);
  return RunContinuousServing(backend, requests, options);
}

TEST(ServeRuntimeTest, BitIdenticalAcrossSpmdSlotCounts) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 21);
  const ServeSetup setup = BatchShardedSetup();
  const ServeOptions options = GreedyOptions(/*prefill_chunk=*/3);

  std::vector<ServeRequest> requests;
  for (int64_t i = 0; i < 6; ++i) {
    ServeRequest r;
    r.id = i;
    r.arrival = static_cast<double>(i) * 2e-6;  // lands mid-flight
    r.prompt = RandomTokens(4 + i % 3, cfg.vocab_size, 100 + static_cast<uint64_t>(i));
    r.max_new_tokens = 5;
    requests.push_back(std::move(r));
  }

  ServeReport one = RunOnFreshEngine(setup, weights, 4, requests, options, 1);
  ServeReport eight = RunOnFreshEngine(setup, weights, 4, requests, options, 8);

  ASSERT_EQ(one.completed(), 6);
  ASSERT_EQ(eight.completed(), 6);
  EXPECT_EQ(one.decode_steps, eight.decode_steps);
  EXPECT_EQ(one.prefill_chunks, eight.prefill_chunks);
  for (size_t i = 0; i < 6; ++i) {
    const RequestRecord& a = one.requests[i];
    const RequestRecord& b = eight.requests[i];
    EXPECT_EQ(a.tokens, b.tokens) << "request " << a.id;
    // Virtual clocks, not just tokens, are part of the determinism contract.
    EXPECT_EQ(a.admitted, b.admitted) << "request " << a.id;
    EXPECT_EQ(a.first_token, b.first_token) << "request " << a.id;
    EXPECT_EQ(a.finished, b.finished) << "request " << a.id;
  }
}

// The observability golden test: a fully instrumented serving run -- trace
// (chip rows AND scheduler/request rows), utilization summary, and the
// deterministic metrics snapshot -- exports to the byte-identical JSON
// document whether the chip closures ran on 1 SPMD slot or 8. Only "host/"
// wall-clock metrics depend on the execution schedule, and
// include_host=false drops them.
TEST(ServeRuntimeTest, GoldenObservabilityExportAcrossSpmdSlotCounts) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 21);
  const ServeSetup setup = BatchShardedSetup();

  std::vector<ServeRequest> requests;
  for (int64_t i = 0; i < 6; ++i) {
    ServeRequest r;
    r.id = i;
    r.arrival = static_cast<double>(i) * 2e-6;
    r.prompt = RandomTokens(4 + i % 3, cfg.vocab_size, 100 + static_cast<uint64_t>(i));
    r.max_new_tokens = 5;
    requests.push_back(std::move(r));
  }

  auto run = [&](int spmd_slots) {
    SimMachine machine(setup.mesh, TpuV4());
    Tracer tracer;
    machine.AttachTracer(&tracer);
    obs::MetricsRegistry metrics;
    DistributedEngine engine(weights, &machine, setup.spec);
    engine.set_metrics(&metrics);
    engine.spmd().set_slots(spmd_slots);
    ServeOptions options = GreedyOptions(/*prefill_chunk=*/3);
    options.tracer = &tracer;
    options.metrics = &metrics;
    EngineServeBackend backend(&engine, /*num_slots=*/4, options);
    RunContinuousServing(backend, requests, options);
    std::ostringstream os;
    obs::WriteObservability(os, machine, tracer, &metrics,
                            /*include_host=*/false);
    return os.str();
  };

  const std::string doc_one = run(1);
  const std::string doc_eight = run(8);
  EXPECT_EQ(doc_one, doc_eight);

  // The document actually contains both clock families and the metrics --
  // byte equality of an empty trace would be vacuous.
  EXPECT_NE(doc_one.find("\"pid\":0"), std::string::npos) << "chip rows";
  EXPECT_NE(doc_one.find("\"cat\":\"scheduler\""), std::string::npos);
  EXPECT_NE(doc_one.find("\"cat\":\"request\""), std::string::npos);
  EXPECT_NE(doc_one.find("\"serve/admitted\":6"), std::string::npos);
  EXPECT_NE(doc_one.find("\"utilization\""), std::string::npos);
  // ... and the wall-clock metrics are gone.
  EXPECT_EQ(doc_one.find("host/"), std::string::npos);
}

TEST(ServeRuntimeTest, SimultaneousArrivalsMatchStaticGenerate) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 22);
  const int64_t B = 4, L = 6, kMaxNew = 5;
  const auto prompts = RandomTokens(B * L, cfg.vocab_size, 23);

  for (const ServeSetup& setup : {BatchShardedSetup(), HeadShardedSetup()}) {
    // Static batch through the existing Generate API.
    SimMachine machine(setup.mesh, TpuV4());
    DistributedEngine engine(weights, &machine, setup.spec);
    GenerationOptions gen;
    gen.max_new_tokens = kMaxNew;
    gen.sampling.temperature = 0;
    GenerationResult want = Generate(engine, prompts, B, gen);

    // Same sequences as simultaneously-arriving requests through the
    // continuous runtime (chunked prefill included).
    std::vector<ServeRequest> requests;
    for (int64_t b = 0; b < B; ++b) {
      ServeRequest r;
      r.id = b;
      r.arrival = 0;
      r.prompt.assign(prompts.begin() + b * L, prompts.begin() + (b + 1) * L);
      r.max_new_tokens = kMaxNew;
      requests.push_back(std::move(r));
    }
    ServeReport got = RunOnFreshEngine(setup, weights, B,
                                       requests, GreedyOptions(4));
    ASSERT_EQ(got.completed(), B);
    for (int64_t b = 0; b < B; ++b)
      EXPECT_EQ(got.requests[static_cast<size_t>(b)].tokens,
                want.sequences[static_cast<size_t>(b)])
          << "sequence " << b << " diverges from static batch, attn="
          << ToString(setup.spec.attn);
  }
}

TEST(ServeRuntimeTest, MixedLayoutServingMatchesStaticGenerate) {
  // Weight-gathered chunked prefill + weight-stationary decode on one cache,
  // driven by the runtime, still matches the static batch bit-for-bit.
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 24);
  const ServeSetup setup = MixedLayoutSetup();
  const int64_t B = 8, L = 4, kMaxNew = 4;
  const auto prompts = RandomTokens(B * L, cfg.vocab_size, 25);

  SimMachine machine(setup.mesh, TpuV4());
  DistributedEngine engine(weights, &machine, setup.spec);
  GenerationOptions gen;
  gen.max_new_tokens = kMaxNew;
  gen.sampling.temperature = 0;
  GenerationResult want = Generate(engine, prompts, B, gen);

  std::vector<ServeRequest> requests;
  for (int64_t b = 0; b < B; ++b) {
    ServeRequest r;
    r.id = b;
    r.arrival = 0;
    r.prompt.assign(prompts.begin() + b * L, prompts.begin() + (b + 1) * L);
    r.max_new_tokens = kMaxNew;
    requests.push_back(std::move(r));
  }
  ServeReport got =
      RunOnFreshEngine(setup, weights, B, requests, GreedyOptions(2));
  ASSERT_EQ(got.completed(), B);
  for (int64_t b = 0; b < B; ++b)
    EXPECT_EQ(got.requests[static_cast<size_t>(b)].tokens,
              want.sequences[static_cast<size_t>(b)]);
}

// Forwards to a backend, records how far each non-final Prefill call moved
// the clock, and whether a decode step ran while a chunk was deferred.
class DeferralProbe : public ServeBackend {
 public:
  explicit DeferralProbe(ServeBackend* inner) : inner_(inner) {}
  int64_t num_slots() const override { return inner_->num_slots(); }
  double Now() const override { return inner_->Now(); }
  void AdvanceTo(double t) override { inner_->AdvanceTo(t); }
  int32_t Prefill(int64_t slot, int64_t request,
                  const std::vector<int32_t>& tokens, bool last) override {
    const double before = Now();
    const int32_t token = inner_->Prefill(slot, request, tokens, last);
    if (!last) {
      ++non_final;
      max_non_final_advance = std::max(max_non_final_advance, Now() - before);
    }
    deferred = !last;
    return token;
  }
  std::vector<int32_t> Decode(const std::vector<DecodeLane>& lanes) override {
    if (deferred) ++decodes_carrying_chunks;
    deferred = false;
    return inner_->Decode(lanes);
  }
  void Release(int64_t slot) override { inner_->Release(slot); }

  int64_t non_final = 0;
  double max_non_final_advance = 0;
  int64_t decodes_carrying_chunks = 0;

 private:
  bool deferred = false;  // the last Prefill call queued its chunk
  ServeBackend* inner_;
};

TEST(ServeRuntimeTest, DeferredRagChunksMatchIsolatedRuns) {
  // A rag-shaped trace: short prompts start decoding first, then prompts of
  // three chunks arrive while they decode (10 ns apart: a tiny-model decode
  // step on the purely data-parallel kBatch mesh takes ~40 ns, so twelve
  // of them end within 0.5 us). Non-final chunks are deferred
  // into the next forward pass (a decode frame, or the request's final
  // chunk as one longer lane); none of that may change a token, and the
  // virtual timestamps stay independent of the SPMD slot count.
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 34);
  const int64_t kChunk = 4;
  std::vector<ServeRequest> requests;
  for (int64_t i = 0; i < 8; ++i) {
    ServeRequest r;
    r.id = i;
    const bool rag = i >= 2;
    r.arrival = rag ? 1e-8 * static_cast<double>(i) : 0;
    r.prompt = RandomTokens(rag ? 2 * kChunk + 1 + i % 3 : 3, cfg.vocab_size,
                            400 + static_cast<uint64_t>(i));
    r.max_new_tokens = rag ? 3 : 12;
    requests.push_back(std::move(r));
  }

  for (const ServeSetup& setup : {BatchShardedSetup(), HeadShardedSetup()}) {
    const std::string attn = ToString(setup.spec.attn);
    struct Run {
      ServeReport report;
      int64_t non_final = 0;
      double max_non_final_advance = 0;
      int64_t deferred_chunks = 0;
      int64_t decodes_carrying_chunks = 0;
    };
    auto run = [&](int spmd_slots) {
      SimMachine machine(setup.mesh, TpuV4());
      DistributedEngine engine(weights, &machine, setup.spec);
      engine.spmd().set_slots(spmd_slots);
      obs::MetricsRegistry metrics;
      ServeOptions options = GreedyOptions(kChunk);
      options.metrics = &metrics;
      EngineServeBackend backend(&engine, /*num_slots=*/8, options);
      DeferralProbe probe(&backend);
      Run r;
      r.report = RunContinuousServing(probe, requests, options);
      r.non_final = probe.non_final;
      r.max_non_final_advance = probe.max_non_final_advance;
      r.decodes_carrying_chunks = probe.decodes_carrying_chunks;
      r.deferred_chunks = metrics.GetCounter("serve/deferred_chunks")->value();
      return r;
    };
    const Run run_one = run(1);
    const ServeReport& one = run_one.report;
    const ServeReport eight = run(8).report;
    ASSERT_EQ(one.completed(), 8) << attn;
    ASSERT_EQ(eight.completed(), 8) << attn;

    // Six rag prompts of three chunks: twelve non-final chunks, every one
    // deferred at no cost to the clock.
    EXPECT_EQ(run_one.non_final, 12) << attn;
    EXPECT_EQ(run_one.max_non_final_advance, 0.0) << attn;
    EXPECT_EQ(run_one.deferred_chunks, 12) << attn;
    EXPECT_GT(run_one.decodes_carrying_chunks, 0) << attn;

    for (size_t i = 0; i < 8; ++i) {
      const RequestRecord& a = one.requests[i];
      const RequestRecord& b = eight.requests[i];
      EXPECT_EQ(a.tokens, b.tokens) << attn << " request " << a.id;
      EXPECT_EQ(a.first_token, b.first_token) << attn << " request " << a.id;
      EXPECT_EQ(a.token_times, b.token_times) << attn << " request " << a.id;
      // Isolated: the request alone on a fresh engine.
      ServeRequest alone = requests[i];
      alone.arrival = 0;
      const ServeReport solo = RunOnFreshEngine(setup, weights, 8, {alone},
                                                GreedyOptions(kChunk));
      ASSERT_EQ(solo.completed(), 1);
      EXPECT_EQ(a.tokens, solo.requests[0].tokens)
          << attn << " request " << a.id;
    }
  }
}

// Replays each forward pass of an EngineServeBackend on a shadow engine as
// the padded kBatch frame -- every owner group topped up with a scratch
// lane to the largest group's rows -- from the same per-chip clock skew,
// and records both passes' modeled times.
// The frame is rebuilt the way the backend builds it (serve/runtime.h):
// queued chunks run with the next final chunk, or replace their slot's
// scratch lane in the next fixed decode frame.
class PaddedShadow : public ServeBackend {
 public:
  struct Pass {
    bool carries_chunk = false;
    // Every owner group ran the same rows (a group without a lane runs one
    // scratch row): the padded frame is the same frame.
    bool uniform = false;
    double ragged = 0, padded = 0;
  };

  PaddedShadow(EngineServeBackend* inner, SimMachine* machine,
               DistributedEngine* shadow)
      : inner_(inner), machine_(machine), shadow_(shadow) {}
  int64_t num_slots() const override { return inner_->num_slots(); }
  double Now() const override { return inner_->Now(); }
  void AdvanceTo(double t) override { inner_->AdvanceTo(t); }
  int32_t Prefill(int64_t slot, int64_t request,
                  const std::vector<int32_t>& tokens, bool last) override {
    auto& q = queued_[slot];
    q.insert(q.end(), tokens.begin(), tokens.end());
    if (!last) return inner_->Prefill(slot, request, tokens, last);
    std::vector<StepLane> lanes;
    for (auto& [s, t] : queued_) lanes.push_back({s, std::move(t), GroupOf(s)});
    queued_.clear();
    int32_t token = 0;
    Replay(lanes, StepPhase::kPrefill, true,
           [&] { token = inner_->Prefill(slot, request, tokens, last); });
    return token;
  }
  std::vector<int32_t> Decode(const std::vector<DecodeLane>& lanes) override {
    std::vector<StepLane> frame;
    for (int64_t s = 0; s < num_slots(); ++s)
      frame.push_back({ShardedKvCache::kScratchSlot, {0}, GroupOf(s)});
    for (const DecodeLane& l : lanes)
      frame[static_cast<size_t>(l.slot)] = {l.slot, {l.token}, GroupOf(l.slot)};
    const bool chunks = !queued_.empty();
    for (auto& [s, t] : queued_)
      frame[static_cast<size_t>(s)] = {s, std::move(t), GroupOf(s)};
    queued_.clear();
    std::vector<int32_t> out;
    Replay(frame, StepPhase::kDecode, chunks,
           [&] { out = inner_->Decode(lanes); });
    return out;
  }
  void Release(int64_t slot) override {
    inner_->Release(slot);
    shadow_->ResetSlot(slot);
  }

  std::vector<Pass> passes;

 private:
  int64_t GroupOf(int64_t slot) const {
    return slot / (num_slots() / machine_->num_chips());
  }

  void Replay(const std::vector<StepLane>& frame, StepPhase phase,
              bool carries_chunk, const std::function<void()>& run) {
    const int n = machine_->num_chips();
    SimMachine& sm = shadow_->machine();
    // Shift the ragged clocks forward so the shadow starts with the same
    // skew and no clock rewinds.
    double shift = 0;
    for (int c = 0; c < n; ++c)
      shift = std::max(shift, sm.counters(c).time - machine_->counters(c).time);
    for (int c = 0; c < n; ++c)
      sm.SetTime(c, machine_->counters(c).time + shift);
    const double t0 = machine_->MaxTime();
    run();
    Pass p;
    p.carries_chunk = carries_chunk;
    p.ragged = machine_->MaxTime() - t0;
    std::vector<int64_t> rows(static_cast<size_t>(n), 0);
    for (const StepLane& l : frame)
      rows[static_cast<size_t>(l.group)] +=
          static_cast<int64_t>(l.tokens.size());
    const int64_t R = *std::max_element(rows.begin(), rows.end());
    p.uniform = std::all_of(rows.begin(), rows.end(), [&](int64_t r) {
      return r == R || (r == 0 && R == 1);
    });
    std::vector<StepLane> padded = frame;
    for (int g = 0; g < n; ++g) {
      const int64_t pad = R - rows[static_cast<size_t>(g)];
      if (pad > 0)
        padded.push_back(
            {ShardedKvCache::kScratchSlot,
             std::vector<int32_t>(static_cast<size_t>(pad), 0), g});
    }
    shadow_->Step(padded, phase);
    p.padded = sm.MaxTime() - (t0 + shift);
    passes.push_back(p);
  }

  EngineServeBackend* inner_;
  SimMachine* machine_;
  DistributedEngine* shadow_;
  std::map<int64_t, std::vector<int32_t>> queued_;
};

TEST(ServeRuntimeTest, RaggedKBatchFramesMatchIsolatedRunsAndCostLess) {
  // Rag-shaped traces on batch-sharded attention: each owner group runs
  // exactly its lanes' rows. Tokens equal isolated runs, timestamps are
  // identical for SPMD slots 1 and 8, and every pass whose groups hold
  // different row counts -- each one carries a chunk -- costs less modeled
  // time than the same frame padded, except on a purely data-parallel mesh
  // (core/replication.h, site 5: 2x2x1), where each chip computes only its
  // own group's rows and no collective runs: there padding adds work only
  // to the smaller groups' chips, so the pass costs no more than padded
  // (less when a padded chip ends up the busiest). A uniform frame (a
  // decode frame without chunks, or a one-token final chunk alone) has
  // nothing to pad and costs the same.
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 36);
  const int64_t kChunk = 4, kSlots = 8;
  std::vector<ServeRequest> requests;
  for (int64_t i = 0; i < 8; ++i) {
    ServeRequest r;
    r.id = i;
    const bool rag = i >= 2;
    r.arrival = rag ? 1e-8 * static_cast<double>(i) : 0;
    r.prompt = RandomTokens(rag ? 2 * kChunk + 1 + i % 3 : 3, cfg.vocab_size,
                            500 + static_cast<uint64_t>(i));
    r.max_new_tokens = rag ? 3 : 12;
    requests.push_back(std::move(r));
  }
  const ServeOptions options = GreedyOptions(kChunk);
  for (const Torus3D& mesh : {Torus3D(2, 2, 1), Torus3D(2, 2, 2)}) {
    ServeSetup setup{mesh, {}};
    setup.spec.attn = AttnSharding::kBatch;
    const std::string name = mesh.ToString();
    const ServeReport one =
        RunOnFreshEngine(setup, weights, kSlots, requests, options, 1);

    SimMachine machine(mesh, TpuV4()), shadow_machine(mesh, TpuV4());
    DistributedEngine engine(weights, &machine, setup.spec);
    DistributedEngine shadow(weights, &shadow_machine, setup.spec);
    engine.spmd().set_slots(8);
    EngineServeBackend backend(&engine, kSlots, options);
    PaddedShadow probe(&backend, &machine, &shadow);
    const ServeReport eight = RunContinuousServing(probe, requests, options);

    ASSERT_EQ(one.completed(), 8) << name;
    ASSERT_EQ(eight.completed(), 8) << name;
    for (size_t i = 0; i < 8; ++i) {
      const RequestRecord& a = one.requests[i];
      const RequestRecord& b = eight.requests[i];
      EXPECT_EQ(a.tokens, b.tokens) << name << " request " << a.id;
      EXPECT_EQ(a.first_token, b.first_token) << name << " request " << a.id;
      EXPECT_EQ(a.token_times, b.token_times) << name << " request " << a.id;
      ServeRequest alone = requests[i];
      alone.arrival = 0;
      const ServeReport solo =
          RunOnFreshEngine(setup, weights, kSlots, {alone}, options);
      ASSERT_EQ(solo.completed(), 1);
      EXPECT_EQ(a.tokens, solo.requests[0].tokens)
          << name << " request " << a.id;
    }

    // The shadow's clocks are shifted, so equal passes agree to the
    // rounding of the larger absolute times, not bit for bit.
    int64_t chunk_passes = 0, plain_passes = 0;
    for (const PaddedShadow::Pass& p : probe.passes) {
      if (p.uniform) {
        ++plain_passes;
        EXPECT_NEAR(p.ragged, p.padded, 1e-12 * p.padded) << name;
      } else {
        EXPECT_TRUE(p.carries_chunk) << name;
        ++chunk_passes;
        if (engine.replication().ffn) {
          EXPECT_LE(p.ragged, p.padded + 1e-12 * p.padded) << name;
        } else {
          EXPECT_LT(p.ragged, p.padded) << name;
        }
      }
    }
    EXPECT_GT(chunk_passes, 0) << name;
    EXPECT_GT(plain_passes, 0) << name;
  }
}

TEST(ServeRuntimeTest, Int8ContinuousServingMatchesInt8StaticGenerate) {
  // The int8 fast path under continuous batching equals the same int8
  // engine driven through the static Generate API -- quantization is
  // per-row/per-slot, so batch composition still cannot leak between
  // sequences -- and is bit-identical across SPMD slot counts.
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 27);
  ServeSetup setup = BatchShardedSetup();
  setup.spec.fastpath.precision = FastPathPrecision::kInt8;
  const int64_t B = 4, L = 6, kMaxNew = 5;
  const auto prompts = RandomTokens(B * L, cfg.vocab_size, 28);

  SimMachine machine(setup.mesh, TpuV4());
  DistributedEngine engine(weights, &machine, setup.spec);
  GenerationOptions gen;
  gen.max_new_tokens = kMaxNew;
  gen.sampling.temperature = 0;
  GenerationResult want = Generate(engine, prompts, B, gen);

  std::vector<ServeRequest> requests;
  for (int64_t b = 0; b < B; ++b) {
    ServeRequest r;
    r.id = b;
    r.arrival = 0;
    r.prompt.assign(prompts.begin() + b * L, prompts.begin() + (b + 1) * L);
    r.max_new_tokens = kMaxNew;
    requests.push_back(std::move(r));
  }
  ServeReport got =
      RunOnFreshEngine(setup, weights, B, requests, GreedyOptions(4), 1);
  ServeReport got8 =
      RunOnFreshEngine(setup, weights, B, requests, GreedyOptions(4), 8);
  ASSERT_EQ(got.completed(), B);
  for (int64_t b = 0; b < B; ++b) {
    EXPECT_EQ(got.requests[static_cast<size_t>(b)].tokens,
              want.sequences[static_cast<size_t>(b)])
        << "int8 sequence " << b << " diverges from static batch";
    EXPECT_EQ(got.requests[static_cast<size_t>(b)].tokens,
              got8.requests[static_cast<size_t>(b)].tokens)
        << "int8 sequence " << b << " depends on SPMD slot count";
  }
}

TEST(ServeRuntimeTest, SlotReuseMatchesIsolatedGeneration) {
  // 5 requests, 2 slots: later requests queue until an earlier one retires
  // and its slot is reused. Batch composition changes step to step, yet each
  // request's tokens equal a batch-1 run of just that prompt.
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 26);
  const ServeSetup setup = HeadShardedSetup();

  std::vector<ServeRequest> requests;
  const int64_t prompt_lens[] = {5, 3, 2, 4, 6};
  const int64_t budgets[] = {4, 7, 3, 2, 5};
  for (int64_t i = 0; i < 5; ++i) {
    ServeRequest r;
    r.id = i;
    r.arrival = 0;
    r.prompt = RandomTokens(prompt_lens[i], cfg.vocab_size,
                            200 + static_cast<uint64_t>(i));
    r.max_new_tokens = budgets[i];
    requests.push_back(std::move(r));
  }

  ServeReport got =
      RunOnFreshEngine(setup, weights, /*num_slots=*/2, requests, GreedyOptions(2));
  ASSERT_EQ(got.completed(), 5);

  for (const RequestRecord& rec : got.requests) {
    const ServeRequest& req = requests[static_cast<size_t>(rec.id)];
    SimMachine machine(setup.mesh, TpuV4());
    DistributedEngine engine(weights, &machine, setup.spec);
    GenerationOptions gen;
    gen.max_new_tokens = req.max_new_tokens;
    gen.sampling.temperature = 0;
    GenerationResult want = Generate(engine, req.prompt, 1, gen);
    EXPECT_EQ(rec.tokens, want.sequences[0]) << "request " << rec.id;
  }

  // With 2 slots and 5 simultaneous arrivals, requests 2+ must have queued.
  EXPECT_EQ(got.requests[0].QueueWait(), 0.0);
  EXPECT_EQ(got.requests[1].QueueWait(), 0.0);
  for (size_t i = 2; i < 5; ++i)
    EXPECT_GT(got.requests[i].QueueWait(), 0.0) << "request " << i;
}

TEST(ServeRuntimeTest, EosRetiresEarlyAndFreesSlot) {
  // Force an EOS by scanning a batch-1 greedy run for its first token, then
  // serve the same prompt with that token as EOS: the sequence must stop at
  // the first occurrence and keep the EOS token (generation.h semantics).
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 27);
  const ServeSetup setup = HeadShardedSetup();
  ServeRequest r;
  r.id = 0;
  r.arrival = 0;
  r.prompt = RandomTokens(4, cfg.vocab_size, 28);
  r.max_new_tokens = 8;

  ServeReport plain =
      RunOnFreshEngine(setup, weights, 2, {r}, GreedyOptions(8));
  ASSERT_EQ(plain.completed(), 1);
  ASSERT_EQ(plain.requests[0].tokens.size(), 8u);
  const int32_t eos = plain.requests[0].tokens[2];

  ServeOptions options = GreedyOptions(8);
  options.eos_token = eos;
  ServeReport stopped = RunOnFreshEngine(setup, weights, 2, {r}, options);
  ASSERT_EQ(stopped.completed(), 1);
  const auto& tokens = stopped.requests[0].tokens;
  ASSERT_LE(tokens.size(), 3u);
  EXPECT_EQ(tokens.back(), eos);
  for (size_t i = 0; i + 1 < tokens.size(); ++i) EXPECT_NE(tokens[i], eos);
}

TEST(ServeRuntimeTest, AnalyticBackendCrossChecksFunctionalRuntime) {
  // The same scheduler on the analytical cost model must produce the same
  // schedule shape (counts, token totals) and a virtual duration in the same
  // ballpark as the functional engine when the estimator runs in ideal mode
  // (bench_sim_vs_analytic quantifies the residual gap).
  ModelConfig cfg = TinyTestModel();
  cfg.name = "serve-xval";
  cfg.num_layers = 4;
  cfg.d_model = 128;
  cfg.d_ff = 256;
  cfg.n_heads = 16;
  cfg.d_head = 16;
  cfg.vocab_size = 128;
  ModelWeights weights = ModelWeights::Random(cfg, 29);

  const Torus3D mesh(2, 2, 2);
  const int64_t S = 8, kMaxNew = 4;
  std::vector<ServeRequest> requests;
  for (int64_t i = 0; i < 8; ++i) {
    ServeRequest r;
    r.id = i;
    r.arrival = 0;
    r.prompt = RandomTokens(8, cfg.vocab_size, 300 + static_cast<uint64_t>(i));
    r.max_new_tokens = kMaxNew;
    requests.push_back(std::move(r));
  }
  const ServeOptions options = GreedyOptions(4);

  SimMachine machine(mesh, TpuV4());
  machine.set_hop_latency(0);
  EngineSpec espec;
  espec.attn = AttnSharding::kBatch;
  DistributedEngine engine(weights, &machine, espec);
  EngineServeBackend functional(&engine, S, options);
  ServeReport sim = RunContinuousServing(functional, requests, options);

  SystemModel sys;
  sys.matmul_peak_frac = 1.0;
  sys.matmul_tau_tokens = 0;
  sys.hbm_frac = 1.0;
  sys.per_layer_overhead = 0;
  sys.overlap_fraction = 0;
  sys.hop_latency = 0;
  sys.additive = false;
  InferenceEstimator estimator(cfg, TpuV4(), sys);
  AnalyticServeConfig acfg;
  acfg.spec = PartitionSpec{mesh, FfnLayout::kWS2D, AttnSharding::kBatch,
                            WeightFormat::kBf16};
  acfg.num_slots = S;
  AnalyticServeBackend analytic(&estimator, acfg);
  ServeReport ana = RunContinuousServing(analytic, requests, options);

  ASSERT_EQ(sim.completed(), ana.completed());
  EXPECT_EQ(sim.total_tokens(), ana.total_tokens());
  EXPECT_EQ(sim.prefill_chunks, ana.prefill_chunks);
  ASSERT_GT(ana.makespan, 0.0);
  ASSERT_GT(sim.makespan, 0.0);
  const double ratio = sim.makespan / ana.makespan;
  EXPECT_GT(ratio, 0.2) << "functional vs analytic drifted apart";
  EXPECT_LT(ratio, 5.0) << "functional vs analytic drifted apart";
}

TEST(ServeRuntimeTest, SharedSystemPromptForkSkipsPrefillBitExactly) {
  // Fork-at-admission: every prompt starts with a registered system prompt.
  // With share_prefixes the backend forks the cached pages instead of
  // re-prefilling them -- the sampled tokens must be bit-identical to the
  // non-shared run, while the scheduler feeds strictly fewer prefill chunks.
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 31);
  const ServeSetup setup = BatchShardedSetup();  // exercises owner groups
  const std::vector<int32_t> sys = RandomTokens(8, cfg.vocab_size, 500);

  std::vector<ServeRequest> requests;
  for (int64_t i = 0; i < 6; ++i) {
    ServeRequest r;
    r.id = i;
    r.arrival = static_cast<double>(i) * 2e-6;
    r.prompt = sys;
    const auto tail =
        RandomTokens(3, cfg.vocab_size, 510 + static_cast<uint64_t>(i));
    r.prompt.insert(r.prompt.end(), tail.begin(), tail.end());
    r.max_new_tokens = 4;
    requests.push_back(std::move(r));
  }

  auto run = [&](bool share) {
    SimMachine machine(setup.mesh, TpuV4());
    EngineSpec spec = setup.spec;
    spec.kv.page_size = 4;  // 8-token system prompt = 2 full shared pages
    DistributedEngine engine(weights, &machine, spec);
    ServeOptions options = GreedyOptions(/*prefill_chunk=*/3);
    options.share_prefixes = share;
    EngineServeBackend backend(&engine, /*num_slots=*/4, options);
    if (share) backend.RegisterSystemPrompt(sys);
    ServeReport report = RunContinuousServing(backend, requests, options);
    return std::make_pair(std::move(report), engine.cache().forks());
  };

  auto [base, base_forks] = run(false);
  auto [shared, shared_forks] = run(true);
  ASSERT_EQ(base.completed(), 6);
  ASSERT_EQ(shared.completed(), 6);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(base.requests[i].tokens, shared.requests[i].tokens)
        << "request " << i;
    EXPECT_EQ(base.requests[i].shared_prefix_tokens, 0);
    EXPECT_EQ(shared.requests[i].shared_prefix_tokens, 8) << "request " << i;
  }
  // 8 of 11 prompt tokens per request never entered chunked prefill.
  EXPECT_LT(shared.prefill_chunks, base.prefill_chunks);
  EXPECT_EQ(base_forks, 0);
  EXPECT_EQ(shared_forks, 6);
}

TEST(ServeRuntimeTest, MultiTurnParentForkMatchesFromScratch) {
  // Turn 2 extends turn 1's conversation (prompt repeats turn 1's prompt and
  // generated tokens). With retain_parents the retired context is kept under
  // a pseudo-slot and forked at turn 2's admission; the follow-up's tokens
  // must equal the from-scratch (no sharing) run.
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 33);
  const ServeSetup setup = HeadShardedSetup();
  const auto prompt1 = RandomTokens(5, cfg.vocab_size, 600);
  const int64_t kTurn1New = 4;

  // Learn turn 1's greedy tokens to build a consistent turn-2 prompt.
  ServeRequest turn1;
  turn1.id = 0;
  turn1.prompt = prompt1;
  turn1.max_new_tokens = kTurn1New;
  ServeReport alone =
      RunOnFreshEngine(setup, weights, /*num_slots=*/1, {turn1}, GreedyOptions(4));
  ASSERT_EQ(alone.completed(), 1);
  const std::vector<int32_t>& turn1_tokens = alone.requests[0].tokens;
  ASSERT_EQ(turn1_tokens.size(), static_cast<size_t>(kTurn1New));

  ServeRequest turn2;
  turn2.id = 1;
  turn2.parent = 0;
  turn2.prompt = prompt1;
  turn2.prompt.insert(turn2.prompt.end(), turn1_tokens.begin(),
                      turn1_tokens.end());
  const auto follow_up = RandomTokens(3, cfg.vocab_size, 601);
  turn2.prompt.insert(turn2.prompt.end(), follow_up.begin(), follow_up.end());
  turn2.max_new_tokens = 5;

  auto run = [&](bool share) {
    ServeOptions options = GreedyOptions(/*prefill_chunk=*/4);
    options.share_prefixes = share;
    options.retain_parents = share ? 1 : 0;
    ServeSetup s = setup;
    s.spec.kv.page_size = 4;
    // One slot: turn 2 admits only after turn 1 retires (and is retained).
    return RunOnFreshEngine(s, weights, /*num_slots=*/1, {turn1, turn2},
                            options);
  };

  ServeReport base = run(false);
  ServeReport shared = run(true);
  ASSERT_EQ(base.completed(), 2);
  ASSERT_EQ(shared.completed(), 2);
  EXPECT_EQ(base.requests[1].tokens, shared.requests[1].tokens);
  // The retained history is turn 1's prompt plus its fed-back tokens (the
  // final emitted token never re-entered the KV), so the fork covers
  // |prompt1| + kTurn1New - 1 of turn 2's prompt.
  EXPECT_EQ(shared.requests[1].shared_prefix_tokens,
            static_cast<int64_t>(prompt1.size()) + kTurn1New - 1);
  EXPECT_EQ(base.requests[1].shared_prefix_tokens, 0);
  EXPECT_LT(shared.prefill_chunks, base.prefill_chunks);
}

TEST(ServeRuntimeTest, LruRetentionKeepsForkedParentsHot) {
  // retain_parents now evicts LRU, not FIFO: a parent that keeps spawning
  // follow-up turns is refreshed by each fork, so page pressure evicts a
  // colder conversation instead. Sequence (1 slot, cap 3 retained):
  //   A retires, B retires, turn-2-of-A (touches A), C retires -> the cap
  //   evicts B (FIFO would have evicted A); later probes prove A still
  //   forks and B no longer does.
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 35);
  const ServeSetup setup = HeadShardedSetup();

  std::vector<ServeRequest> requests;
  auto add = [&](int64_t id, int64_t parent, uint64_t seed) {
    ServeRequest r;
    r.id = id;
    r.parent = parent;
    r.prompt = RandomTokens(5, cfg.vocab_size, seed);
    r.max_new_tokens = 2;
    requests.push_back(std::move(r));
  };
  add(0, -1, 900);  // A
  add(1, -1, 901);  // B
  // Turn 2 of A: prompt extends A's prompt, so the fork adopts >= |A.prompt|.
  ServeRequest turn2;
  turn2.id = 2;
  turn2.parent = 0;
  turn2.prompt = requests[0].prompt;
  const auto tail2 = RandomTokens(3, cfg.vocab_size, 902);
  turn2.prompt.insert(turn2.prompt.end(), tail2.begin(), tail2.end());
  turn2.max_new_tokens = 2;
  requests.push_back(std::move(turn2));
  add(3, -1, 903);  // C -- its retirement forces the eviction
  ServeRequest probe_a = requests[2];
  probe_a.id = 4;
  ServeRequest probe_b;
  probe_b.id = 5;
  probe_b.parent = 1;
  probe_b.prompt = requests[1].prompt;
  probe_b.prompt.insert(probe_b.prompt.end(), tail2.begin(), tail2.end());
  probe_b.max_new_tokens = 2;
  requests.push_back(std::move(probe_a));
  requests.push_back(std::move(probe_b));

  SimMachine machine(setup.mesh, TpuV4());
  EngineSpec spec = setup.spec;
  spec.kv.page_size = 4;
  DistributedEngine engine(weights, &machine, spec);
  obs::MetricsRegistry metrics;
  ServeOptions options = GreedyOptions(/*prefill_chunk=*/8);
  options.share_prefixes = true;
  options.retain_parents = 3;
  options.metrics = &metrics;
  EngineServeBackend backend(&engine, /*num_slots=*/1, options);
  ServeReport report = RunContinuousServing(backend, requests, options);

  ASSERT_EQ(report.completed(), 6);
  EXPECT_GT(report.requests[2].shared_prefix_tokens, 0) << "turn 2 of A";
  EXPECT_GT(report.requests[4].shared_prefix_tokens, 0)
      << "A was evicted despite being the hottest parent";
  EXPECT_EQ(report.requests[5].shared_prefix_tokens, 0)
      << "B survived although it was the LRU victim";
  EXPECT_GT(metrics.GetCounter("serve/evicted_parents")->value(), 0);
}

TEST(ServeRuntimeTest, RetainPageBudgetEvictsUnderPagePressure) {
  // retain_page_budget bounds the retained conversations' summed KV pages.
  // Each conversation here caches 5 tokens = 2 pages of 4; a 2-page budget
  // holds exactly one, so retiring B evicts A. The later B-probe still
  // forks, the A-probe re-prefills from scratch.
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 36);
  const ServeSetup setup = HeadShardedSetup();

  std::vector<ServeRequest> requests;
  auto add = [&](int64_t id, int64_t parent, std::vector<int32_t> prompt) {
    ServeRequest r;
    r.id = id;
    r.parent = parent;
    r.prompt = std::move(prompt);
    r.max_new_tokens = 2;
    requests.push_back(std::move(r));
  };
  const auto prompt_a = RandomTokens(4, cfg.vocab_size, 910);
  const auto prompt_b = RandomTokens(4, cfg.vocab_size, 911);
  const auto tail = RandomTokens(2, cfg.vocab_size, 912);
  add(0, -1, prompt_a);  // A: retained as 5 tokens (prompt + 1 fed back)
  add(1, -1, prompt_b);  // B: its retention overflows the budget, evicts A
  auto probe_b = prompt_b;
  probe_b.insert(probe_b.end(), tail.begin(), tail.end());
  add(2, 1, probe_b);
  auto probe_a = prompt_a;
  probe_a.insert(probe_a.end(), tail.begin(), tail.end());
  add(3, 0, probe_a);

  SimMachine machine(setup.mesh, TpuV4());
  EngineSpec spec = setup.spec;
  spec.kv.page_size = 4;
  DistributedEngine engine(weights, &machine, spec);
  obs::MetricsRegistry metrics;
  ServeOptions options = GreedyOptions(/*prefill_chunk=*/8);
  options.share_prefixes = true;
  options.retain_parents = 10;     // the count cap never binds...
  options.retain_page_budget = 2;  // ...page pressure does
  options.metrics = &metrics;
  EngineServeBackend backend(&engine, /*num_slots=*/1, options);
  ServeReport report = RunContinuousServing(backend, requests, options);

  ASSERT_EQ(report.completed(), 4);
  EXPECT_GT(report.requests[2].shared_prefix_tokens, 0) << "B probe";
  EXPECT_EQ(report.requests[3].shared_prefix_tokens, 0)
      << "A should have been evicted by page pressure";
  EXPECT_GE(metrics.GetCounter("serve/evicted_parents")->value(), 1);
}

TEST(ServeQueueTest, OrdersByArrivalAndAdmits) {
  std::vector<ServeRequest> rs(3);
  for (int i = 0; i < 3; ++i) {
    rs[static_cast<size_t>(i)].id = (i + 2) % 3;  // ids 2, 0, 1
    rs[static_cast<size_t>(i)].arrival = static_cast<double>((i + 2) % 3 + 1);
    rs[static_cast<size_t>(i)].prompt = {1};
    rs[static_cast<size_t>(i)].max_new_tokens = 4;
  }
  RequestQueue q(std::move(rs));
  EXPECT_EQ(q.size(), 3);
  EXPECT_FALSE(q.HasArrived(0.5));
  EXPECT_TRUE(q.HasArrived(1.0));
  EXPECT_EQ(q.NextArrival(), 1.0);
  EXPECT_EQ(q.Pop().id, 0);
  EXPECT_EQ(q.Pop().id, 1);
  EXPECT_EQ(q.Pop().id, 2);
  EXPECT_TRUE(q.empty());
}

TEST(ServeSlotsTest, LowestFreeFirstAndReuse) {
  SlotAllocator slots(3);
  EXPECT_EQ(slots.Acquire(), 0);
  EXPECT_EQ(slots.Acquire(), 1);
  EXPECT_EQ(slots.Acquire(), 2);
  EXPECT_FALSE(slots.HasFree());
  slots.Release(1);
  EXPECT_TRUE(slots.HasFree());
  EXPECT_FALSE(slots.InUse(1));
  EXPECT_EQ(slots.Acquire(), 1);  // lowest free id, deterministically
  EXPECT_DEATH(slots.Acquire(), "");  // none free
  slots.Release(0);
  EXPECT_DEATH(slots.Release(0), "");  // double release
  EXPECT_EQ(slots.num_free(), 1);
}

TEST(ServeRequestsTest, PoissonRequestsAreDeterministic) {
  auto a = PoissonRequests(10.0, 5, 7, 4, 64, 99);
  auto b = PoissonRequests(10.0, 5, 7, 4, 64, 99);
  ASSERT_EQ(a.size(), 5u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].prompt, b[i].prompt);
    ASSERT_EQ(a[i].prompt.size(), 7u);
    for (int32_t t : a[i].prompt) {
      EXPECT_GE(t, 0);
      EXPECT_LT(t, 64);
    }
  }
  for (size_t i = 1; i < a.size(); ++i)
    EXPECT_GE(a[i].arrival, a[i - 1].arrival);
}

TEST(PoissonArrivalsTest, SortedDeterministicAndRateRoughlyRight) {
  auto a = PoissonArrivals(10.0, 2000, 42);
  auto b = PoissonArrivals(10.0, 2000, 42);
  EXPECT_EQ(a, b);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
  // Mean inter-arrival ~ 1/rate.
  double mean = a.back() / static_cast<double>(a.size());
  EXPECT_NEAR(mean, 0.1, 0.02);
}

}  // namespace
}  // namespace tsi
