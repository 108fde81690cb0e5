// Replication is a schedule change only: two engines on the same weights,
// one on a machine with hop latency 0 (nothing replicated, the paper's
// layouts) and one at 1 us (the q/k/v columns whole on every yz chip, the
// logit head whole, where the yz axis is one 2-chip axis wo's rows and the
// FFN whole on both yz chips, and where X > 1 every layer weight whole
// over x, core/replication.h), produce
// bit-identical logits and leave bit-identical KV caches behind, through a
// ragged step sequence: lone chunks, a chunk riding a decode frame, and
// decode frames with idle slots. A wide-FFN variant keeps the FFN sharded
// over yz, so both sides of the site-5 choice are checked.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "hw/chip.h"
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

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

struct IdentityCase {
  int x, y, z;
  bool weight_gathered_prefill;  // WG-XYZ prefill, else weight-stationary
  bool multihead;
  bool int8_;
  bool fused;
  bool parallel;
  bool wide_ffn;  // an FFN too wide to stream whole over yz (no site 5)
};

// A d_ff and a hop latency at which streaming the other yz rank's FFN
// costs more than the yz all-reduce it would remove, while sites 1-4 still
// fire: the yz all-reduce, with site 3's wo side terms, stays in every
// block. (The rule compares stream time against hops, so a 64x wider FFN
// at 1 us flips it the same way; this keeps the matmuls small.)
constexpr int64_t kWideFfn = 4096;
constexpr double kWideFfnHopLatency = 40e-9;

class ReplicationIdentityTest
    : public ::testing::TestWithParam<IdentityCase> {
 protected:
  ReplicationIdentityTest()
      : cfg_(Config(GetParam())), weights_(ModelWeights::Random(cfg_, 61)) {}

  static ModelConfig Config(const IdentityCase& p) {
    ModelConfig cfg = p.multihead ? TinyTestModelMultihead() : TinyTestModel();
    cfg.parallel_block = p.parallel;
    if (p.wide_ffn) cfg.d_ff = kWideFfn;
    return cfg;
  }

  EngineSpec Spec() const {
    const IdentityCase& p = GetParam();
    // x == 1 is the 1D weight-stationary layout.
    const FfnLayout ws = p.x == 1 ? FfnLayout::kWS1D : FfnLayout::kWS2D;
    EngineSpec spec;
    spec.attn = AttnSharding::kBatch;
    spec.prefill_ffn = p.weight_gathered_prefill ? FfnLayout::kWGXYZ : ws;
    spec.decode_ffn = ws;
    spec.fuse_collectives = p.fused;
    if (p.int8_) spec.fastpath.precision = FastPathPrecision::kInt8;
    return spec;
  }

  void SetUp() override {
    const IdentityCase& p = GetParam();
    for (int i = 0; i < 2; ++i) {
      machines_[i] =
          std::make_unique<SimMachine>(Torus3D(p.x, p.y, p.z), TpuV4());
      machines_[i]->set_hop_latency(
          i == 0 ? 0 : (p.wide_ffn ? kWideFfnHopLatency : 1e-6));
      engines_[i] = std::make_unique<DistributedEngine>(
          weights_, machines_[i].get(), Spec());
    }
    ASSERT_EQ(paper().replication(), Replication{});
    ASSERT_EQ(replicated().replication(),
              (Replication{true, true, /*wo=*/p.y * p.z == 2, /*x=*/p.x > 1,
                           /*ffn=*/p.y * p.z == 2 && !p.wide_ffn}));
  }

  DistributedEngine& paper() { return *engines_[0]; }
  DistributedEngine& replicated() { return *engines_[1]; }
  int chips() const { return machines_[0]->num_chips(); }

  // Runs `lanes` on both engines; the logits must agree bit for bit.
  void ExpectIdentical(const std::vector<StepLane>& lanes, StepPhase phase,
                       const std::string& what) {
    Tensor a = paper().Step(lanes, phase);
    Tensor b = replicated().Step(lanes, phase);
    EXPECT_TRUE(BitIdentical(a, b)) << what;
  }

  // Slot s lives on owner group s % chips.
  StepLane Lane(int64_t slot, int64_t width, uint64_t seed) const {
    return {slot, RandomTokens(width, cfg_.vocab_size, seed),
            slot % machines_[0]->num_chips()};
  }

  ModelConfig cfg_;
  ModelWeights weights_;
  std::unique_ptr<SimMachine> machines_[2];
  std::unique_ptr<DistributedEngine> engines_[2];
};

TEST_P(ReplicationIdentityTest, RaggedStepsAreBitIdentical) {
  const int n = chips();
  // A lone chunk, then chunks in every group but one.
  ExpectIdentical({Lane(0, 5, 100)}, StepPhase::kPrefill, "lone chunk");
  std::vector<StepLane> chunks;
  for (int64_t s = 1; s < n; ++s)
    chunks.push_back(Lane(s, 2 + s, 110 + static_cast<uint64_t>(s)));
  ExpectIdentical(chunks, StepPhase::kPrefill, "chunks");
  // A decode frame carrying a chunk for a fresh slot.
  std::vector<StepLane> mixed;
  for (int64_t s = 0; s < n; ++s)
    mixed.push_back(Lane(s, 1, 120 + static_cast<uint64_t>(s)));
  mixed.push_back(Lane(n, 9, 130));
  ExpectIdentical(mixed, StepPhase::kDecode, "chunk riding a decode frame");
  // Decode frames with idle slots: slot 1 idles (a scratch lane in its
  // group), every other resident slot decodes.
  for (uint64_t step = 0; step < 2; ++step) {
    std::vector<StepLane> frame;
    for (int64_t s = 0; s <= n; ++s) {
      if (s == 1) {
        frame.push_back({ShardedKvCache::kScratchSlot, {0}, 1});
      } else {
        frame.push_back(Lane(s, 1, 140 + 10 * step + static_cast<uint64_t>(s)));
      }
    }
    ExpectIdentical(frame, StepPhase::kDecode, "decode frame with an idle slot");
  }

  // The caches agree: every slot's length, and (fp32 caches, the format
  // ExportSlot reads) every cached K/V element. An int8 cache's contents
  // show in the logits of the frames above.
  for (int64_t s = 0; s <= n; ++s) {
    ASSERT_EQ(paper().slot_length(s), replicated().slot_length(s))
        << "slot " << s;
    if (GetParam().int8_) continue;
    const SlotPages a = paper().ExportSlot(s);
    const SlotPages b = replicated().ExportSlot(s);
    ASSERT_EQ(a.k.size(), b.k.size());
    for (size_t l = 0; l < a.k.size(); ++l) {
      EXPECT_TRUE(BitIdentical(a.k[l], b.k[l])) << "slot " << s << " k" << l;
      EXPECT_TRUE(BitIdentical(a.v[l], b.v[l])) << "slot " << s << " v" << l;
    }
  }
}

std::vector<IdentityCase> Cases() {
  std::vector<IdentityCase> cases;
  // 2x2x1, 1x2x1 and 2x1x2 replicate wo and the FFN too (1x2x1 with no x
  // axis, 2x1x2 on the z axis), so they run purely data parallel; 2x2x2
  // and 1x2x2 do not. 2x2x1, 2x2x2 and 2x1x2 keep the layers whole over x.
  // The same three meshes with a wide FFN keep the FFN sharded over yz and
  // run the yz all-reduce (collective fusion only changes x collectives,
  // which none of them runs).
  for (bool wide : {false, true})
    for (auto mesh : {std::vector<int>{2, 2, 1}, std::vector<int>{2, 2, 2},
                      std::vector<int>{1, 2, 2}, std::vector<int>{1, 2, 1},
                      std::vector<int>{2, 1, 2}}) {
      if (wide && mesh[1] * mesh[2] != 2) continue;
      for (bool wg : {false, true})
        for (bool mha : {false, true})
          for (bool int8 : {false, true})
            for (bool fused : {false, true})
              for (bool parallel : {true, false}) {
                if (wide && fused) continue;
                cases.push_back({mesh[0], mesh[1], mesh[2], wg, mha, int8,
                                 fused, parallel, wide});
              }
    }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, ReplicationIdentityTest, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<IdentityCase>& info) {
      const IdentityCase& p = info.param;
      return std::to_string(p.x) + "x" + std::to_string(p.y) + "x" +
             std::to_string(p.z) + (p.weight_gathered_prefill ? "_wg" : "_ws") +
             (p.multihead ? "_mha" : "_mqa") + (p.int8_ ? "_int8" : "_fp32") +
             (p.fused ? "_fused" : "") +
             (p.parallel ? "_parallel" : "_serial") +
             (p.wide_ffn ? "_wideffn" : "");
    });

}  // namespace
}  // namespace tsi
