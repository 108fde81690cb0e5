// Golden values for the distributed engine's numerics: a hash of the prefill
// and decode logits (FNV-1a over the float bits) plus the greedy tokens, for
// every layout x precision x block style x mesh the engine executes. The
// values were recorded from the per-tensor collective schedule; any change
// to the schedule (which collectives run, how members are packed) must
// leave every tensor bit-identical, so these hashes must never move.
//
// On a mismatch the failure message prints the row as it should read, so a
// deliberate numerics change can re-record the table.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "hw/chip.h"
#include "util/rng.h"

namespace tsi {
namespace {

enum class Layout { kWs2dBatch, kWs2dHeads, kWs1d, kWgXyz };
enum class Precision { kFp32, kInt8 };

struct GoldenCase {
  Layout layout;
  Precision precision;
  bool parallel;      // parallel block (MQA, gated FFN) vs serial (MHA, plain)
  bool big_mesh;      // 8 chips instead of 4
  bool fuse_collectives;
  int64_t batch;
  // Recorded values.
  uint64_t prefill_hash;
  uint64_t decode_hash;
  const char* tokens;
};

uint64_t Fnv1a(uint64_t h, const Tensor& t) {
  for (int64_t i = 0; i < t.numel(); ++i) {
    uint32_t bits;
    float f = t[i];
    std::memcpy(&bits, &f, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}
constexpr uint64_t kFnvBasis = 14695981039346656037ull;

std::vector<int32_t> Greedy(const Tensor& logits) {
  const int64_t B = logits.dim(0), T = logits.dim(1), V = logits.dim(2);
  std::vector<int32_t> out(static_cast<size_t>(B));
  for (int64_t b = 0; b < B; ++b) {
    const float* row = logits.data() + (b * T + T - 1) * V;
    int64_t best = 0;
    for (int64_t v = 1; v < V; ++v)
      if (row[v] > row[best]) best = v;
    out[static_cast<size_t>(b)] = static_cast<int32_t>(best);
  }
  return out;
}

Torus3D MeshFor(const GoldenCase& p) {
  // WS-1D needs mesh.x == 1: it runs on the same chip counts laid out
  // along y and z.
  if (p.layout == Layout::kWs1d)
    return p.big_mesh ? Torus3D(1, 4, 2) : Torus3D(1, 2, 2);
  return p.big_mesh ? Torus3D(2, 2, 2) : Torus3D(2, 2, 1);
}

std::string Name(const GoldenCase& p) {
  static const char* kLayout[] = {"ws2d_batch", "ws2d_heads", "ws1d", "wgxyz"};
  static const char* kPrec[] = {"fp32", "int8"};
  std::string s = kLayout[static_cast<int>(p.layout)];
  s += std::string("_") + kPrec[static_cast<int>(p.precision)];
  s += p.parallel ? "_parallel" : "_serial";
  s += p.big_mesh ? "_8chips" : "_4chips";
  if (p.fuse_collectives) s += "_looped";
  s += "_b" + std::to_string(p.batch);
  return s;
}

struct Observed {
  uint64_t prefill_hash = kFnvBasis;
  uint64_t decode_hash = kFnvBasis;
  std::string tokens;
};

// Prefill `batch` prompts of 4 tokens, then three greedy decode steps.
Observed RunEngine(const ModelConfig& cfg, const Torus3D& mesh,
                   const EngineSpec& spec, int64_t batch) {
  ModelWeights weights = ModelWeights::Random(cfg, 42);
  SimMachine machine(mesh, TpuV4());
  DistributedEngine engine(weights, &machine, spec);
  engine.spmd().set_slots(4);

  const int64_t B = batch, L = 4;
  Rng rng(7);
  std::vector<int32_t> prompt(static_cast<size_t>(B * L));
  for (auto& t : prompt)
    t = static_cast<int32_t>(rng.NextBelow(static_cast<uint64_t>(cfg.vocab_size)));

  Observed o;
  Tensor logits = engine.Prefill(prompt, B);
  o.prefill_hash = Fnv1a(o.prefill_hash, logits);
  std::vector<int32_t> next = Greedy(logits);
  for (int step = 0; step < 3; ++step) {
    for (int32_t t : next) o.tokens += std::to_string(t) + ",";
    logits = engine.DecodeStep(next);
    o.decode_hash = Fnv1a(o.decode_hash, logits);
    next = Greedy(logits);
  }
  for (int32_t t : next) o.tokens += std::to_string(t) + ",";
  o.tokens.pop_back();
  return o;
}

// The row as it should read, for a failure message.
std::string Row(const Observed& o) {
  std::ostringstream row;
  row << "0x" << std::hex << o.prefill_hash << "ull, 0x" << o.decode_hash
      << "ull, \"" << o.tokens << "\"";
  return row.str();
}

Observed RunCase(const GoldenCase& p) {
  ModelConfig cfg = p.parallel ? TinyTestModel() : TinyTestModelMultihead();
  EngineSpec spec;
  switch (p.layout) {
    case Layout::kWs2dBatch:
      spec.prefill_ffn = spec.decode_ffn = FfnLayout::kWS2D;
      spec.attn = AttnSharding::kBatch;
      break;
    case Layout::kWs2dHeads:
      spec.prefill_ffn = spec.decode_ffn = FfnLayout::kWS2D;
      spec.attn = AttnSharding::kHeads;
      break;
    case Layout::kWs1d:
      spec.prefill_ffn = spec.decode_ffn = FfnLayout::kWS1D;
      spec.attn = AttnSharding::kBatch;
      break;
    case Layout::kWgXyz:
      spec.prefill_ffn = spec.decode_ffn = FfnLayout::kWGXYZ;
      spec.attn = AttnSharding::kBatch;
      break;
  }
  spec.fuse_collectives = p.fuse_collectives;
  if (p.precision == Precision::kInt8)
    spec.fastpath.precision = FastPathPrecision::kInt8;
  return RunEngine(cfg, MeshFor(p), spec, p.batch);
}

class EngineGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(EngineGoldenTest, LogitsAndTokensMatchRecordedValues) {
  const GoldenCase& p = GetParam();
  Observed o = RunCase(p);
  EXPECT_EQ(o.prefill_hash, p.prefill_hash) << Name(p) << ": " << Row(o);
  EXPECT_EQ(o.decode_hash, p.decode_hash) << Name(p) << ": " << Row(o);
  EXPECT_EQ(o.tokens, p.tokens) << Name(p) << ": " << Row(o);
}

constexpr auto kB = Layout::kWs2dBatch;
constexpr auto kH = Layout::kWs2dHeads;
constexpr auto k1 = Layout::kWs1d;
constexpr auto kG = Layout::kWgXyz;
constexpr auto kF = Precision::kFp32;
constexpr auto kI = Precision::kInt8;

// {layout, precision, parallel, 8 chips, looped, batch, prefill, decode, tokens}
INSTANTIATE_TEST_SUITE_P(
    Recorded, EngineGoldenTest,
    ::testing::Values(
        GoldenCase{kB, kF, true, false, false, 8, 0x3e28957bc2317c60ull, 0xe2473d441e99e5d4ull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        GoldenCase{kB, kF, true, true, false, 8, 0xd3ede5a49a5eaf7cull, 0x36f4db9d3ef873f7ull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        GoldenCase{kB, kF, false, false, false, 8, 0x5d6af85e58d59873ull, 0xf35c30c54fdf7b7eull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,41,53,36,17,15,36"},
        GoldenCase{kB, kF, false, true, false, 8, 0xa861d28fd3d4993dull, 0x3d4718b915a4c59eull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,41,53,36,17,15,36"},
        GoldenCase{kB, kI, true, false, false, 8, 0x26c50a234ebb8431ull, 0x4e211b1caafe5547ull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        GoldenCase{kB, kI, true, true, false, 8, 0xe813b3510e4b929bull, 0xa653374341f58d41ull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        GoldenCase{kB, kI, false, false, false, 8, 0xd177d3c59d69635eull, 0x22ac5b3268118901ull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,34,53,36,17,15,36"},
        GoldenCase{kB, kI, false, true, false, 8, 0x97a3b4110d368f7aull, 0x3a8a73d9a5dff896ull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,41,53,36,17,15,36"},
        GoldenCase{kH, kF, true, false, false, 8, 0x3e28957bc2317c60ull, 0xe2473d441e99e5d4ull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        GoldenCase{kH, kF, true, true, false, 8, 0xd3ede5a49a5eaf7cull, 0x36f4db9d3ef873f7ull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        GoldenCase{kH, kF, false, false, false, 8, 0x5d6af85e58d59873ull, 0xf35c30c54fdf7b7eull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,41,53,36,17,15,36"},
        GoldenCase{kH, kF, false, true, false, 8, 0xa861d28fd3d4993dull, 0x3d4718b915a4c59eull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,41,53,36,17,15,36"},
        GoldenCase{kH, kI, true, false, false, 8, 0x26c50a234ebb8431ull, 0x4e211b1caafe5547ull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        GoldenCase{kH, kI, true, true, false, 8, 0xe813b3510e4b929bull, 0xa653374341f58d41ull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        GoldenCase{kH, kI, false, false, false, 8, 0xd177d3c59d69635eull, 0x22ac5b3268118901ull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,34,53,36,17,15,36"},
        GoldenCase{kH, kI, false, true, false, 8, 0x97a3b4110d368f7aull, 0x3a8a73d9a5dff896ull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,41,53,36,17,15,36"},
        GoldenCase{k1, kF, true, false, false, 8, 0xd299d6c869faeb38ull, 0x6b5ffeb8675e05f0ull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        GoldenCase{k1, kF, true, true, false, 8, 0x8f7c2cc5e6d58f33ull, 0x8842e0114e144adcull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        GoldenCase{k1, kF, false, false, false, 8, 0x6d881317697cda32ull, 0xa9916eb8580677fdull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,41,53,36,17,15,36"},
        GoldenCase{k1, kF, false, true, false, 8, 0xefd9aee9fe2f9d1dull, 0x2e714f4b86f3bee1ull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,41,53,36,17,15,36"},
        GoldenCase{k1, kI, true, false, false, 8, 0x6d192c9a1dcc38bdull, 0x818baa0373290f7dull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        GoldenCase{k1, kI, true, true, false, 8, 0xf3b8455e740b0b16ull, 0x3e26912b312227f7ull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        GoldenCase{k1, kI, false, false, false, 8, 0xb649cf605a34f05bull, 0x86ad11b9573553full,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,34,53,36,17,15,36"},
        GoldenCase{k1, kI, false, true, false, 8, 0x9ffda4ffa5ea446cull, 0x4c66e88a95aae1cbull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,34,53,36,17,15,36"},
        GoldenCase{kG, kF, true, false, false, 8, 0xa90014d47e0c78feull, 0x36316a74834b1dceull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        GoldenCase{kG, kF, true, true, false, 8, 0xa90014d47e0c78feull, 0x36316a74834b1dceull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        GoldenCase{kG, kF, false, false, false, 8, 0x9dbbd2e2bda412b2ull, 0x807e39cf9b85c5b7ull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,41,53,36,17,15,36"},
        GoldenCase{kG, kF, false, true, false, 8, 0x9dbbd2e2bda412b2ull, 0x807e39cf9b85c5b7ull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,41,53,36,17,15,36"},
        GoldenCase{kG, kI, true, false, false, 8, 0xbd0db64f14c692e1ull, 0x3a427c62d2dfd0edull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,0,50,55,57,57,50,0,10,62,43,49,61,57,1,23,14,55,52"},
        GoldenCase{kG, kI, true, true, false, 8, 0xbd0db64f14c692e1ull, 0x3a427c62d2dfd0edull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,0,50,55,57,57,50,0,10,62,43,49,61,57,1,23,14,55,52"},
        GoldenCase{kG, kI, false, false, false, 8, 0x4a3ace62a3c9b90dull, 0x7212a63e9500b79ull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,41,53,36,17,15,36"},
        GoldenCase{kG, kI, false, true, false, 8, 0x4a3ace62a3c9b90dull, 0x7212a63e9500b79ull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,41,53,36,17,15,36"},
        GoldenCase{kB, kF, true, false, true, 8, 0x3e28957bc2317c60ull, 0xe2473d441e99e5d4ull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        GoldenCase{kB, kF, true, true, true, 8, 0xd3ede5a49a5eaf7cull, 0x36f4db9d3ef873f7ull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        GoldenCase{kB, kF, false, false, true, 8, 0x5d6af85e58d59873ull, 0xf35c30c54fdf7b7eull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,41,53,36,17,15,36"},
        GoldenCase{kB, kF, false, true, true, 8, 0xa861d28fd3d4993dull, 0x3d4718b915a4c59eull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,41,53,36,17,15,36"},
        GoldenCase{kH, kF, true, false, true, 8, 0x3e28957bc2317c60ull, 0xe2473d441e99e5d4ull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        GoldenCase{kH, kF, true, true, true, 8, 0xd3ede5a49a5eaf7cull, 0x36f4db9d3ef873f7ull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        GoldenCase{kH, kF, false, false, true, 8, 0x5d6af85e58d59873ull, 0xf35c30c54fdf7b7eull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,41,53,36,17,15,36"},
        GoldenCase{kH, kF, false, true, true, 8, 0xa861d28fd3d4993dull, 0x3d4718b915a4c59eull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,41,53,36,17,15,36"},
        GoldenCase{kH, kF, true, false, false, 1, 0x32887143e2a12b8full, 0x1354141eccd7c045ull,
            "55,49,55,49"},
        GoldenCase{kH, kF, false, false, false, 1, 0x18251409a0c7d43eull, 0x4b916340e79a6caeull,
            "2,2,2,2"},
        GoldenCase{kH, kI, true, false, false, 1, 0x67baae3a35fbb8a2ull, 0x34edda2bbfb52751ull,
            "55,49,55,49"},
        GoldenCase{kH, kI, false, false, false, 1, 0x2c22097496fc9f44ull, 0xb7408b17b6acc53bull,
            "2,2,2,2"}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return Name(info.param);
    });

// Meshes and phase mixes outside the grid above: a single chip,
// head-sharded attention on yz only, x = 4 with the looped FFN input
// projections, grouped-query heads, and weight-gathered prefill ahead of
// weight-stationary decode. Every row runs the whole model (prefill_ffn for
// Prefill, decode_ffn for DecodeStep).
struct MeshCase {
  int x, y, z;
  FfnLayout prefill_ffn, decode_ffn;
  AttnSharding attn;
  int variant;  // 0: MQA parallel, 1: MHA serial, 2: GQA parallel
  bool fuse_collectives;
  bool int8;
  uint64_t prefill_hash;
  uint64_t decode_hash;
  const char* tokens;
};

std::string MeshName(const MeshCase& p) {
  std::string s = std::to_string(p.x) + "x" + std::to_string(p.y) + "x" +
                  std::to_string(p.z) + "_v" + std::to_string(p.variant);
  if (p.prefill_ffn == FfnLayout::kWGXYZ) s += "_wg";
  if (p.attn == AttnSharding::kBatch) s += "_batch";
  if (p.fuse_collectives) s += "_looped";
  s += p.int8 ? "_int8" : "_fp32";
  return s;
}

class EngineGoldenMeshTest : public ::testing::TestWithParam<MeshCase> {};

TEST_P(EngineGoldenMeshTest, LogitsAndTokensMatchRecordedValues) {
  const MeshCase& p = GetParam();
  static const ModelConfig kVariant[] = {
      TinyTestModel(), TinyTestModelMultihead(), TinyTestModelGrouped()};
  EngineSpec spec;
  spec.prefill_ffn = p.prefill_ffn;
  spec.decode_ffn = p.decode_ffn;
  spec.attn = p.attn;
  spec.fuse_collectives = p.fuse_collectives;
  if (p.int8) spec.fastpath.precision = FastPathPrecision::kInt8;
  Observed o = RunEngine(kVariant[p.variant], Torus3D(p.x, p.y, p.z), spec, 8);
  EXPECT_EQ(o.prefill_hash, p.prefill_hash) << MeshName(p) << ": " << Row(o);
  EXPECT_EQ(o.decode_hash, p.decode_hash) << MeshName(p) << ": " << Row(o);
  EXPECT_EQ(o.tokens, p.tokens) << MeshName(p) << ": " << Row(o);
}

constexpr auto kWS1D = FfnLayout::kWS1D;
constexpr auto kWS2D = FfnLayout::kWS2D;
constexpr auto kWG = FfnLayout::kWGXYZ;
constexpr auto kHeads = AttnSharding::kHeads;
constexpr auto kBatch = AttnSharding::kBatch;

// {x, y, z, prefill, decode, attn, variant, looped, int8, prefill, decode,
//  tokens}
INSTANTIATE_TEST_SUITE_P(
    Recorded, EngineGoldenMeshTest,
    ::testing::Values(
        MeshCase{1, 1, 1, kWS1D, kWS1D, kHeads, 0, false, false, 0x422c70acec9d27d8ull, 0x51c71360ab1b16c7ull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        MeshCase{1, 1, 1, kWS1D, kWS1D, kHeads, 0, false, true, 0x5774c1a2923132d1ull, 0xc6161a5545f0554dull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,42,14,62,52"},
        MeshCase{1, 1, 1, kWS1D, kWS1D, kHeads, 1, false, false, 0x9dbbd2e2bda412b2ull, 0x807e39cf9b85c5b7ull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,41,53,36,17,15,36"},
        MeshCase{1, 1, 1, kWS1D, kWS1D, kHeads, 1, false, true, 0x32efd8007ed8afe0ull, 0x46c158ca8802eab4ull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,34,53,36,17,15,36"},
        MeshCase{1, 2, 2, kWS1D, kWS1D, kHeads, 0, false, false, 0xd299d6c869faeb38ull, 0x6b5ffeb8675e05f0ull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        MeshCase{1, 2, 2, kWS1D, kWS1D, kHeads, 0, false, true, 0x6d192c9a1dcc38bdull, 0x818baa0373290f7dull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        MeshCase{1, 2, 2, kWS1D, kWS1D, kHeads, 1, false, false, 0x6d881317697cda32ull, 0xa9916eb8580677fdull,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,41,53,36,17,15,36"},
        MeshCase{1, 2, 2, kWS1D, kWS1D, kHeads, 1, false, true, 0xb649cf605a34f05bull, 0x86ad11b9573553full,
            "2,36,15,34,36,48,9,7,2,36,18,53,36,17,15,36,2,36,34,34,36,17,15,36,2,36,34,53,36,17,15,36"},
        MeshCase{2, 2, 2, kWS2D, kWS2D, kHeads, 2, false, false, 0xe2544452bf2f7e34ull, 0xf921baffb7fb7717ull,
            "22,44,4,13,19,23,61,37,22,14,10,19,53,19,61,48,35,17,44,53,25,25,61,48,3,8,4,53,25,7,61,35"},
        MeshCase{2, 2, 2, kWS2D, kWS2D, kHeads, 2, false, true, 0xcd8c265c41a3f77eull, 0xcf702a3eef2aab79ull,
            "22,44,4,13,19,23,61,37,22,14,10,19,53,19,61,48,35,17,44,53,25,25,61,48,3,8,4,53,25,7,61,35"},
        MeshCase{4, 2, 1, kWS2D, kWS2D, kBatch, 0, true, false, 0xc82eef539860265ull, 0x229f56cb2c5564f1ull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        MeshCase{4, 2, 1, kWS2D, kWS2D, kBatch, 0, true, true, 0x825574c97db8e0f2ull, 0x8b39276d11b298aull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        MeshCase{2, 2, 2, kWG, kWS2D, kBatch, 0, false, false, 0xa90014d47e0c78feull, 0xc73b57717c3a7088ull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,23,14,62,52"},
        MeshCase{2, 2, 2, kWG, kWS2D, kBatch, 0, false, true, 0xbd0db64f14c692e1ull, 0xe3e3db0860ae5859ull,
            "55,29,61,32,42,37,48,23,49,56,57,63,49,48,48,50,55,57,57,50,0,10,0,43,49,61,57,1,42,14,62,52"}),
    [](const ::testing::TestParamInfo<MeshCase>& info) {
      return MeshName(info.param);
    });

}  // namespace
}  // namespace tsi
