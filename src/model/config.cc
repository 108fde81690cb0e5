#include "model/config.h"

#include <sstream>

#include "util/logging.h"

namespace tsi {

int64_t ModelConfig::ParamsPerLayer() const {
  int64_t ffn = (gated_ffn ? 3 : 2) * d_model * d_ff;
  int64_t q = d_model * n_heads * d_head;
  int64_t kv = 2 * d_model * n_kv_heads() * d_head;
  int64_t o = n_heads * d_head * d_model;
  return ffn + q + kv + o;
}

int64_t ModelConfig::ParamCount(bool include_embedding) const {
  int64_t p = num_layers * ParamsPerLayer();
  if (include_embedding) p += vocab_size * d_model;
  return p;
}

int64_t ModelConfig::KvCacheBytesPerSequence(int64_t context,
                                             int64_t bytes_per_value) const {
  // K and V, per layer, per token, per kv head.
  return 2 * num_layers * context * n_kv_heads() * d_head * bytes_per_value;
}

std::string ModelConfig::ToString() const {
  std::ostringstream os;
  os << name << " (L=" << num_layers << ", E=" << d_model << ", F=" << d_ff
     << ", H=" << n_heads << ", dh=" << d_head << ", kv=" << n_kv_heads()
     << ", " << (parallel_block ? "parallel" : "serial") << ")";
  return os.str();
}

ModelConfig Palm8B() {
  ModelConfig c;
  c.name = "PaLM-8B";
  c.num_layers = 32;
  c.d_model = 4096;
  c.d_ff = 4 * c.d_model;
  c.n_heads = 16;
  c.d_head = 256;
  c.vocab_size = 256000;
  c.attention = AttentionKind::kMultiQuery;
  c.gated_ffn = true;
  c.parallel_block = true;
  return c;
}

ModelConfig Palm62B() {
  ModelConfig c = Palm8B();
  c.name = "PaLM-62B";
  c.num_layers = 64;
  c.d_model = 8192;
  c.d_ff = 4 * c.d_model;
  c.n_heads = 32;
  return c;
}

ModelConfig Palm540B() {
  ModelConfig c = Palm8B();
  c.name = "PaLM-540B";
  c.num_layers = 118;
  c.d_model = 18432;
  c.d_ff = 4 * c.d_model;
  c.n_heads = 48;
  return c;
}

ModelConfig Palm540BPadded() {
  ModelConfig c = Palm540B();
  c.name = "PaLM-540B-h64";
  c.n_heads = 64;
  return c;
}

ModelConfig MtNlg530B() {
  ModelConfig c;
  c.name = "MT-NLG-530B";
  c.num_layers = 105;
  c.d_model = 20480;
  c.d_ff = 81920;
  c.n_heads = 128;
  c.d_head = 160;
  c.vocab_size = 51200;
  c.attention = AttentionKind::kMultiHead;
  c.gated_ffn = false;
  c.parallel_block = false;
  return c;
}

ModelConfig Palm540BMultihead() {
  ModelConfig c = Palm540B();
  c.name = "PaLM-540B-MHA";
  c.attention = AttentionKind::kMultiHead;
  c.d_head = 128;  // keeps attention params constant vs. multiquery (§4.2)
  return c;
}

ModelConfig Palm540BGrouped(int64_t kv_heads) {
  ModelConfig c = Palm540B();
  c.name = "PaLM-540B-gqa" + std::to_string(kv_heads);
  c.attention = AttentionKind::kGroupedQuery;
  c.grouped_kv_heads = kv_heads;
  return c;
}

ModelConfig TinyTestModel() {
  ModelConfig c;
  c.name = "tiny-mqa";
  c.num_layers = 2;
  c.d_model = 32;
  c.d_ff = 64;
  c.n_heads = 8;
  c.d_head = 8;
  c.vocab_size = 64;
  c.attention = AttentionKind::kMultiQuery;
  c.gated_ffn = true;
  c.parallel_block = true;
  return c;
}

ModelConfig PerfbenchModel() {
  ModelConfig c = TinyTestModel();
  c.name = "perfbench";
  c.d_model = 256;
  c.d_ff = 1024;
  c.n_heads = 16;
  c.d_head = 16;
  c.vocab_size = 512;
  return c;
}

ModelConfig TinyTestModelMultihead() {
  ModelConfig c = TinyTestModel();
  c.name = "tiny-mha";
  c.attention = AttentionKind::kMultiHead;
  c.gated_ffn = false;
  c.parallel_block = false;
  return c;
}

ModelConfig TinyTestModelGrouped() {
  ModelConfig c = TinyTestModel();
  c.name = "tiny-gqa";
  c.attention = AttentionKind::kGroupedQuery;
  c.grouped_kv_heads = 2;
  return c;
}

}  // namespace tsi
