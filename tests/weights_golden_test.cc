// Golden values for the random weights every functional test and benchmark
// builds on: an FNV-1a hash of the float bits of each tensor of
// ModelWeights::Random, for the host-clock benchmark's model shape, the tiny
// test model at the seeds the suites use most, and a multihead config, plus
// one Tensor::Gaussian drawn from a generator that holds a cached half-pair.
//
// The values pin the Gaussian stream itself: a change to the generator's
// arithmetic (its Box-Muller kernel, how it jumps through the SplitMix64
// state, its compile flags) must leave every float as it was. They must not
// move with or without TSI_MARCH_NATIVE. On a mismatch the failure message
// prints the row as it reads now.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "model/config.h"
#include "model/weights.h"
#include "util/rng.h"

namespace tsi {
namespace {

uint64_t Fnv1a(const Tensor& t) {
  uint64_t h = 14695981039346656037ull;
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

// Every non-empty tensor of `w` in a fixed order, with its name.
using NamedTensors = std::vector<std::pair<std::string, const Tensor*>>;

NamedTensors Tensors(const ModelWeights& w) {
  NamedTensors out = {
      {"embedding", &w.embedding}, {"final_ln_gain", &w.final_ln_gain}};
  for (size_t l = 0; l < w.layers.size(); ++l) {
    const LayerWeights& lw = w.layers[l];
    const std::pair<const char*, const Tensor*> named[] = {
        {"ln_gain", &lw.ln_gain}, {"ln2_gain", &lw.ln2_gain},
        {"wq", &lw.wq},           {"wk", &lw.wk},
        {"wv", &lw.wv},           {"wo", &lw.wo},
        {"win", &lw.win},         {"win_gate", &lw.win_gate},
        {"wout", &lw.wout}};
    for (const auto& [name, t] : named)
      if (!t->empty())
        out.emplace_back("layer" + std::to_string(l) + "." + name, t);
  }
  return out;
}

// Compares every tensor's hash against `want` (same order as Tensors()) and
// prints the row as it reads now if anything differs.
void ExpectWeights(const char* label, const ModelWeights& w,
                   const std::vector<uint64_t>& want) {
  const auto tensors = Tensors(w);
  std::vector<uint64_t> got;
  for (const auto& [name, t] : tensors) got.push_back(Fnv1a(*t));
  if (got == want) return;
  std::string row;
  for (size_t i = 0; i < got.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llxull,%s",
                  static_cast<unsigned long long>(got[i]),
                  i % 3 == 2 ? "\n" : " ");
    row += buf;
  }
  ADD_FAILURE() << label << " reads now:\n" << row;
  ASSERT_EQ(got.size(), want.size()) << label << ": tensor count";
  for (size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << label << " " << tensors[i].first;
}

// perfbench/serve_bench.cc's BenchModel() at its weight seed.
ModelConfig BenchModel() {
  ModelConfig c = TinyTestModel();
  c.name = "perfbench";
  c.num_layers = 2;
  c.d_model = 256;
  c.d_ff = 1024;
  c.n_heads = 16;
  c.d_head = 16;
  c.vocab_size = 512;
  return c;
}

TEST(WeightsGoldenTest, BenchModelSeed2023) {
  ExpectWeights("bench@2023", ModelWeights::Random(BenchModel(), 2023),
      {
        0x18cd13a9128b3171ull, 0x2fc2e430a6d21090ull, 0x73585565186b8ec3ull,
        0xc0a060c17e88f8f1ull, 0x4aaefcbf8c58d888ull, 0x556038a0ae9f5fc3ull,
        0x9c8e538873a9e903ull, 0x424734b28cc224a3ull, 0xadb2bc55b6a304b0ull,
        0xa71715a81b0beebdull, 0x2e68b877c8d57cf5ull, 0xf828ebcc4018cfa4ull,
        0xbc46536e33b20ee0ull, 0x2af94a80f76c9ce5ull, 0x138d4912b9073261ull,
        0x4895ae35cdedc950ull, 0xd8ad71158ddd0071ull, 0xe5847b8dd53cdba7ull,
        0x3fb9502c58ff0a5dull, 0x9c652fcb69591571ull,
      });
}

TEST(WeightsGoldenTest, TinyModelSeeds) {
  struct Case {
    uint64_t seed;
    std::vector<uint64_t> want;
  };
  const Case cases[] = {
      {21,
       {
           0xa65058b771411b27ull, 0x460893d2baa9ca1full, 0x68fac553f0f1c3cfull,
           0xf73b7beb8d45c4a3ull, 0x18e72bfa9e9865a4ull, 0x4d15f009d3c0fddbull,
           0x8dc9e6a944291c39ull, 0x99ec7bb069bf98a5ull, 0x4128ae60831c891full,
           0xa20c3481415a37bdull, 0x5adfdffeffea6387ull, 0x44e562ce543b9325ull,
           0xda2cfe358ae6d54cull, 0xab77a624e6e7e01aull, 0xd8a9624da7c2665eull,
           0x7a81f28a5c8cf5bbull, 0x3f15dcbcb6dcd0ccull, 0xa208090599a39d18ull,
           0x289dd7e7074d81a7ull, 0x5ac5414f36e7e999ull,
       }},
      {8,
       {
           0xfc5296d2d7d67858ull, 0xf55f5e2e35aa9271ull, 0xdae9b747aacc3c30ull,
           0x6f14b8a2189e94dfull, 0x7227465ea326feacull, 0x4a4db2aa6c4ee37dull,
           0x11e7388e6b29b666ull, 0x290df73f8a89a942ull, 0x9317960bfb8fe868ull,
           0x2bd04726de0e9cd8ull, 0x82891232845ab163ull, 0x5b4b7851cd4e265cull,
           0x52ef9af2f165e602ull, 0x8c9ca58620d41877ull, 0xec3a9926c5ef5948ull,
           0xa7d8e3660e562625ull, 0x015f0cdadc09a5d9ull, 0xc9add4218a4fb3f1ull,
           0xc32b064a3d88fae3ull, 0xf843576bb2a3f7aeull,
       }},
      {7,
       {
           0x35e0165cccc3051dull, 0xc0b7f87a7f6e5ddcull, 0x910bd790a275bf9cull,
           0xc41e77835b1ffaa3ull, 0x161a4bd75a2babffull, 0x6235d2298700288full,
           0x550e396244bdbbcfull, 0x65a80e915fe3b5b2ull, 0x5d689357b2a1d220ull,
           0xf64e5ad93e2f26bdull, 0xea1b328293f2c225ull, 0x17681feaf0315fd4ull,
           0xfbba0e1b9145f53full, 0xdead615a8bba0791ull, 0x19d3d362de5db1ebull,
           0x1ab767d23f59a568ull, 0x40e34737b28d1920ull, 0x1a506cd8824019fdull,
           0x8d71fe39edb5ede7ull, 0x5234a9567c1062ddull,
       }},
      {5,
       {
           0xfaadc306b030e6d6ull, 0xbcb7339d359e3ea0ull, 0x3434a03a509d4de3ull,
           0xa1b2ed8da82edcc3ull, 0xa9d14f4353e3eeafull, 0x66d5f71c28744257ull,
           0xde0ae8b676697518ull, 0x90acc363fb0168e6ull, 0x80bccec2a8c457abull,
           0xe2452a0c7b8811c7ull, 0xc6d5d2134e07564aull, 0xeb66c12a3e9f6deaull,
           0xe18cbd9b6fabaa19ull, 0x7914e761d55b3511ull, 0x8a0165398eea15e2ull,
           0xaf630fbf6edb660cull, 0xd2ae6232417d5920ull, 0x6359c5a857bd0a09ull,
           0xb790b8e595686a6bull, 0x0b2ab7ec310685e5ull,
       }},
      {11,
       {
           0x4101beb01a5b2857ull, 0x8bac3dce98d1d7eeull, 0x90e355c78aed09afull,
           0xc9f5ccea2ac5d99eull, 0x3efa138dac08091cull, 0x0a561c853362eaddull,
           0xde55d5786485e5cbull, 0xf06bc686e0ca78daull, 0x2c3f594fd4475620ull,
           0x2bcf9db52da57689ull, 0x27666adab880a333ull, 0xb149e8fd93d8057eull,
           0x70063376bbfcb909ull, 0x48ae48a009af4773ull, 0x6b3a7a28705c3e0aull,
           0x3bde927e50d012cfull, 0xe568efba1f0687eaull, 0x91dd160d1a24e6a1ull,
           0x53f8079a6308d4deull, 0xac46370db9581441ull,
       }},
  };
  for (const Case& c : cases) {
    const std::string label = "tiny@" + std::to_string(c.seed);
    ExpectWeights(label.c_str(), ModelWeights::Random(TinyTestModel(), c.seed),
                  c.want);
  }
}

TEST(WeightsGoldenTest, MultiheadModel) {
  ExpectWeights("tiny-mha@3",
                ModelWeights::Random(TinyTestModelMultihead(), 3),
      {
        0x2c1aea9d773bd10full, 0x35be0c89d40f20e6ull, 0x0f343952015eec08ull,
        0x7c9cd9426eab9901ull, 0x46a6ffc58758a818ull, 0x632b50ae9702f3f1ull,
        0x1b42bfe0b617b27eull, 0xd9c06da38f025361ull, 0x665356e443aac23full,
        0x89b0a0767e9a6e2aull, 0x285e7f5db6b27ddcull, 0x36c5706054c0f20full,
        0xebdd1c7000e5ee1bull, 0x054261f677bd82c2ull, 0x7cb583778b53795full,
        0xc8c232897e2472c7ull, 0x0b5e5778c0c3de89ull, 0xfb330f75aabdb7aeull,
      });
}

// An odd element count drawn after one NextGaussian: the tensor starts on the
// cached half of a pair and ends on a fresh pair whose second half stays
// cached. The next NextU64 pins how far the state advanced.
TEST(WeightsGoldenTest, GaussianFromHalfPair) {
  Rng rng(99);
  const float first = static_cast<float>(rng.NextGaussian());
  const Tensor t = Tensor::Gaussian({7, 37}, rng, 0.5f);
  uint32_t first_bits;
  std::memcpy(&first_bits, &first, sizeof(first_bits));
  EXPECT_EQ(first_bits, 0x3f4369b0u);
  EXPECT_EQ(Fnv1a(t), 0x62026b0a3cd9051bull);
  EXPECT_EQ(rng.NextU64(), 0x8085908887d098adull);
}

}  // namespace
}  // namespace tsi
