// Transformer model configurations.
//
// Presets cover the models evaluated in the paper (Table D.1 and the PaLM
// family) plus small synthetic configs used by the functional tests. The
// parameter-count accounting here feeds the 2N FLOPs/token rule (§2) and the
// per-chip weight-memory model, so it matches the real architectures:
// PaLM uses a gated (SwiGLU) FFN (3 E*F matrices), multiquery attention and
// parallel blocks; Megatron-Turing NLG uses a plain FFN (2 E*F), multihead
// attention and serial blocks.
#pragma once

#include <cstdint>
#include <string>

namespace tsi {

enum class AttentionKind {
  kMultiHead,     // one K/V head per query head
  kMultiQuery,    // single shared K/V head (Shazeer 2019; PaLM)
  kGroupedQuery,  // n_kv_heads shared K/V heads, 1 < kv < heads (an
                  // extension the paper's framework covers naturally: KV
                  // memory and sharding interpolate between MHA and MQA)
};

struct ModelConfig {
  std::string name;
  int64_t num_layers = 0;
  int64_t d_model = 0;  // E
  int64_t d_ff = 0;     // F
  int64_t n_heads = 0;  // H (query heads)
  int64_t d_head = 0;
  int64_t vocab_size = 0;
  AttentionKind attention = AttentionKind::kMultiHead;
  // K/V head count for kGroupedQuery; ignored otherwise.
  int64_t grouped_kv_heads = 0;
  // Gated FFN (SwiGLU): two input projections E*F plus one output F*E.
  bool gated_ffn = false;
  // Parallel attention/FFN formulation (§3.4) vs. serial.
  bool parallel_block = true;

  int64_t n_kv_heads() const {
    switch (attention) {
      case AttentionKind::kMultiQuery: return 1;
      case AttentionKind::kGroupedQuery: return grouped_kv_heads;
      case AttentionKind::kMultiHead: return n_heads;
    }
    return n_heads;
  }

  // Parameters in one transformer layer (FFN + attention projections;
  // norm gains are negligible and excluded).
  int64_t ParamsPerLayer() const;
  // Total parameters; embedding table included when `include_embedding`.
  int64_t ParamCount(bool include_embedding = true) const;

  // KV-cache bytes for one sequence of `context` tokens across all layers.
  int64_t KvCacheBytesPerSequence(int64_t context, int64_t bytes_per_value = 2) const;

  std::string ToString() const;
};

// --- Paper presets ---------------------------------------------------------

ModelConfig Palm8B();
ModelConfig Palm62B();
ModelConfig Palm540B();
// PaLM 540B with attention heads padded 48 -> 64 for better partitioning on
// 64+ chips (paper §4 methodology; costs ~18B params / ~3% MFU).
ModelConfig Palm540BPadded();
// Megatron-Turing NLG 530B (Table D.1).
ModelConfig MtNlg530B();
// PaLM 540B variant with multihead attention, d_head shrunk 256 -> 128 to
// keep attention parameter count constant (§4.2).
ModelConfig Palm540BMultihead();

// PaLM 540B with grouped-query attention at `kv_heads` K/V heads: the
// MHA<->MQA interpolation the framework covers (ablated in
// bench_ablation_gqa).
ModelConfig Palm540BGrouped(int64_t kv_heads);

// Small configs for functional tests / examples: dims chosen divisible by
// the torus shapes used in tests.
ModelConfig TinyTestModel();            // MQA, gated, parallel
ModelConfig TinyTestModelMultihead();   // MHA, plain FFN, serial
ModelConfig TinyTestModelGrouped();     // GQA (2 kv heads), gated, parallel

// The host-clock serving benchmark's model: TinyTestModel's MQA, gated,
// parallel block at 2 layers, E = 256, F = 1024, 16 heads of 16, vocab 512.
// perfbench/serve_bench.cc spells the same shape in its own BenchModel();
// keep the two in step (weights_golden_test pins this one's weights).
ModelConfig PerfbenchModel();

}  // namespace tsi
