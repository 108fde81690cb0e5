// Int8 symmetric per-output-channel weight quantization, in the style of the
// AQT library the paper uses (§3.6). Only *weights* are quantized; matmul
// arithmetic stays in fp32 (paper: "the matmuls still use bfloat16
// arithmetic"), so the runtime benefit modelled elsewhere is halved weight
// bytes for memory time and weight-gathered communication volume.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace tsi {

// Quantized 2-D weight [rows, cols]; one scale per column (output channel),
// value = int8 * scale.
struct QuantizedTensor {
  Shape shape;                 // logical fp shape, rank 2
  std::vector<int8_t> values;  // row-major, shape.numel() entries
  std::vector<float> scales;   // one per column

  int64_t rows() const { return shape[0]; }
  int64_t cols() const { return shape[1]; }
  // Bytes this tensor occupies on-chip (int8 payload + fp32 scales).
  int64_t ByteSize() const {
    return static_cast<int64_t>(values.size()) +
           static_cast<int64_t>(scales.size()) * 4;
  }
};

// Symmetric per-column quantization: scale_c = max_r |w[r,c]| / 127.
QuantizedTensor QuantizeInt8(const Tensor& w);

// Exact inverse transform of the stored representation.
Tensor Dequantize(const QuantizedTensor& q);

// x [.., k] @ dequant(w) [k, n]. Dequantizes on the fly column-block by
// column-block; numerically identical to MatMul(x, Dequantize(w)).
Tensor MatMulDequant(const Tensor& x, const QuantizedTensor& w);

// Max elementwise |w - dequant(quant(w))| relative to per-column max.
// Always <= 0.5/127 by construction; tests assert this bound.
float QuantizationRelError(const Tensor& w);

// --- Activation quantization (§3.6 future work) ----------------------------
// The paper quantizes only weights and notes that *activation* quantization
// "could reduce compute time in large-batch configurations and reduce
// communication volume of activations in weight-stationary layouts". This is
// the kernel-level piece: dynamic symmetric per-row int8 activations and a
// fully-int8 matmul with fp32 accumulation (LLM.int8-style without
// outlier decomposition). The projected system-level gains are modelled in
// core/ (PartitionSpec::act_format) and ablated in bench_ablation_act_quant.

// Per-row symmetric quantization of activations [rows, cols]:
// scale_r = max_c |x[r,c]| / 127.
struct QuantizedActivations {
  Shape shape;                 // rank 2
  std::vector<int8_t> values;  // row-major
  std::vector<float> scales;   // one per row

  int64_t rows() const { return shape[0]; }
  int64_t cols() const { return shape[1]; }
};

QuantizedActivations QuantizeActivationsInt8(const Tensor& x);
Tensor Dequantize(const QuantizedActivations& q);

// int8 x int8 -> fp32: result[i,j] = scale_x[i] * scale_w[j] *
// sum_k xq[i,k] * wq[k,j], with int32 accumulation of the integer dot.
// Blocked over column panels and pool-parallel; the integer dot is exact,
// so results are independent of blocking and thread count. Safe for
// k < ~130,000 (127*127*k must fit int32).
Tensor MatMulInt8(const QuantizedActivations& x, const QuantizedTensor& w);

// c += MatMulInt8(x, w), bit-identical to c->AddInPlace(MatMulInt8(x, w))
// without materializing the product (residual fusion on the int8 path).
void MatMulInt8Accumulate(const QuantizedActivations& x,
                          const QuantizedTensor& w, Tensor* c);

// --- Fused activation + quantization (decode fast path) --------------------
// Each computes the fp32 op into a per-row scratch with the same scalar
// kernels the unfused path uses, then quantizes that row -- bit-identical to
// QuantizeActivationsInt8(<op>(...)) without materializing the fp32 tensor.

// == QuantizeActivationsInt8(LayerNorm/NormalizeWithMoments output); the
// transform (tensor/ops.h builders) selects which site is reproduced.
QuantizedActivations QuantizeNormedInt8(const Tensor& x,
                                        const RowNormTransform& norm);
// == QuantizeActivationsInt8(Gelu(h))
QuantizedActivations QuantizeGeluInt8(const Tensor& h);
// == QuantizeActivationsInt8(Swish2(h).Mul(gate)): the gated-FFN activation.
QuantizedActivations QuantizeSwishGateInt8(const Tensor& h,
                                           const Tensor& gate);

// --- Int8 KV cache payload (§3.6 / D.3) ------------------------------------
// One slot's (or step's) K or V block [rows, t, kv_heads, d_head] with a
// symmetric scale per (row, position, head): scale = max over d_head |v|/127
// (1.0 for all-zero vectors). Dequant is folded into the attention kernel
// (RaggedPagedAttention reads int8 pages and their scales); these accessors
// exist for tests and for cache bookkeeping.
struct QuantizedKv {
  Shape shape;                 // rank 4, [rows, t, kv_heads, d_head]
  std::vector<int8_t> values;  // row-major
  std::vector<float> scales;   // rows * t * kv_heads

  int64_t rows() const { return shape[0]; }
  int64_t t() const { return shape[1]; }
  int64_t kv_heads() const { return shape[2]; }
  int64_t d_head() const { return shape[3]; }
  int64_t numel() const { return static_cast<int64_t>(values.size()); }
  bool empty() const { return values.empty(); }
  int64_t ByteSize() const {
    return static_cast<int64_t>(values.size()) +
           static_cast<int64_t>(scales.size()) * 4;
  }
};

QuantizedKv QuantizeKvInt8(const Tensor& kv);
Tensor Dequantize(const QuantizedKv& q);
// Positions [p0, p0 + count) of q's rows laid end to end (row r's position
// t is p = r * t() + t), as a [1, count, kv_heads, d_head] block.
QuantizedKv SliceKvPositions(const QuantizedKv& q, int64_t p0, int64_t count);

}  // namespace tsi
