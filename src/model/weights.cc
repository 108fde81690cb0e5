#include "model/weights.h"

#include <cmath>

#include "quant/int8.h"
#include "util/logging.h"
#include "util/rng.h"

namespace tsi {
namespace {

// Stable tags for seed derivation; values are part of the determinism
// contract with tests (changing them changes all generated weights).
enum TensorTag : uint64_t {
  kTagEmbedding = 1,
  kTagFinalLn = 2,
  kTagLnGain = 10,
  kTagLn2Gain = 11,
  kTagWq = 12,
  kTagWk = 13,
  kTagWv = 14,
  kTagWo = 15,
  kTagWin = 16,
  kTagWinGate = 17,
  kTagWout = 18,
};

Tensor RandomMatrix(uint64_t seed, uint64_t layer, uint64_t tag, int64_t rows,
                    int64_t cols) {
  Rng rng(Rng::DeriveSeed(seed, layer * 1000 + tag));
  float stddev = 1.0f / std::sqrt(static_cast<float>(rows));
  return Tensor::Gaussian({rows, cols}, rng, stddev);
}

Tensor RandomGain(uint64_t seed, uint64_t layer, uint64_t tag, int64_t n) {
  Rng rng(Rng::DeriveSeed(seed, layer * 1000 + tag));
  // Gains near 1 with small jitter so the norm actually does something.
  // One rounding (explicit fma), as the FMA-contracted build always did.
  Tensor g = Tensor::Gaussian({n}, rng);
  for (int64_t i = 0; i < n; ++i) g[i] = std::fma(0.1f, g[i], 1.0f);
  return g;
}

}  // namespace

ModelWeights ModelWeights::Random(const ModelConfig& config, uint64_t seed) {
  ModelWeights w;
  w.config = config;
  const int64_t E = config.d_model, F = config.d_ff;
  const int64_t H = config.n_heads, KV = config.n_kv_heads(), dh = config.d_head;

  w.embedding = RandomMatrix(seed, /*layer=*/0, kTagEmbedding, config.vocab_size, E);
  w.final_ln_gain = RandomGain(seed, /*layer=*/0, kTagFinalLn, E);

  w.layers.reserve(static_cast<size_t>(config.num_layers));
  for (int64_t l = 0; l < config.num_layers; ++l) {
    LayerWeights lw;
    uint64_t tag_layer = static_cast<uint64_t>(l) + 1;
    lw.ln_gain = RandomGain(seed, tag_layer, kTagLnGain, E);
    lw.ln2_gain = RandomGain(seed, tag_layer, kTagLn2Gain, E);
    lw.wq = RandomMatrix(seed, tag_layer, kTagWq, E, H * dh);
    lw.wk = RandomMatrix(seed, tag_layer, kTagWk, E, KV * dh);
    lw.wv = RandomMatrix(seed, tag_layer, kTagWv, E, KV * dh);
    lw.wo = RandomMatrix(seed, tag_layer, kTagWo, H * dh, E);
    lw.win = RandomMatrix(seed, tag_layer, kTagWin, E, F);
    if (config.gated_ffn)
      lw.win_gate = RandomMatrix(seed, tag_layer, kTagWinGate, E, F);
    lw.wout = RandomMatrix(seed, tag_layer, kTagWout, F, E);
    w.layers.push_back(std::move(lw));
  }
  return w;
}

void ModelWeights::SimulateInt8Roundtrip() {
  auto roundtrip = [](Tensor& t) {
    if (t.empty()) return;
    t = Dequantize(QuantizeInt8(t));
  };
  for (auto& l : layers) {
    roundtrip(l.wq);
    roundtrip(l.wk);
    roundtrip(l.wv);
    roundtrip(l.wo);
    roundtrip(l.win);
    roundtrip(l.win_gate);
    roundtrip(l.wout);
  }
}

}  // namespace tsi
