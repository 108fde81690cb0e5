#include "quant/int8.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/scalar_ops.h"
#include "util/logging.h"
#include "util/threadpool.h"

namespace tsi {
namespace {

// Shared row quantizer: scale = rowmax/127 (1.0 for all-zero rows), then
// round-to-nearest with clamp to [-127, 127]. Every quantization entry point
// funnels through this so fused and unfused paths are bit-identical.
inline float QuantizeRow(const float* row, int64_t cols, int8_t* out) {
  float mx = 0.0f;
  for (int64_t c = 0; c < cols; ++c) mx = std::max(mx, std::fabs(row[c]));
  float s = mx > 0.0f ? mx / 127.0f : 1.0f;
  for (int64_t c = 0; c < cols; ++c) {
    int iv = static_cast<int>(std::lround(row[c] / s));
    out[c] = static_cast<int8_t>(std::min(127, std::max(-127, iv)));
  }
  return s;
}

// Forces `v` to a rounded float value so the compiler cannot contract the
// producing multiply with a following add into one fma. The accumulate
// writeback (c += float(acc)*sx*sw) must round the product exactly like the
// materialize-then-AddInPlace composition it replaces; a contracted fma
// would skip that rounding and break the bit-identity contract.
inline float RoundedFloat(float v) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : "+m"(v));
#endif
  return v;
}

}  // namespace

QuantizedTensor QuantizeInt8(const Tensor& w) {
  TSI_CHECK_EQ(w.rank(), 2);
  int64_t rows = w.dim(0), cols = w.dim(1);
  QuantizedTensor q;
  q.shape = w.shape();
  q.values.resize(static_cast<size_t>(rows * cols));
  q.scales.assign(static_cast<size_t>(cols), 0.0f);

  for (int64_t c = 0; c < cols; ++c) {
    float mx = 0.0f;
    for (int64_t r = 0; r < rows; ++r)
      mx = std::max(mx, std::fabs(w[r * cols + c]));
    q.scales[static_cast<size_t>(c)] = mx > 0.0f ? mx / 127.0f : 1.0f;
  }
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      float s = q.scales[static_cast<size_t>(c)];
      float v = w[r * cols + c] / s;
      int iv = static_cast<int>(std::lround(v));
      iv = std::min(127, std::max(-127, iv));
      q.values[static_cast<size_t>(r * cols + c)] = static_cast<int8_t>(iv);
    }
  }
  return q;
}

Tensor Dequantize(const QuantizedTensor& q) {
  Tensor out(q.shape);
  int64_t rows = q.rows(), cols = q.cols();
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c)
      out[r * cols + c] = static_cast<float>(q.values[static_cast<size_t>(r * cols + c)]) *
                          q.scales[static_cast<size_t>(c)];
  return out;
}

Tensor MatMulDequant(const Tensor& x, const QuantizedTensor& w) {
  int64_t k = x.dim(-1);
  TSI_CHECK_EQ(k, w.rows());
  int64_t n = w.cols();
  int64_t m = x.numel() / k;

  Shape out_shape(x.shape().begin(), x.shape().end() - 1);
  out_shape.push_back(n);
  Tensor out(out_shape);
  const float* X = x.data();
  float* C = out.data();
  std::vector<double> acc(static_cast<size_t>(n));
  for (int64_t i = 0; i < m; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (int64_t kk = 0; kk < k; ++kk) {
      double xv = X[i * k + kk];
      if (xv == 0.0) continue;
      const int8_t* wrow = w.values.data() + kk * n;
      for (int64_t j = 0; j < n; ++j)
        acc[static_cast<size_t>(j)] += xv * static_cast<double>(wrow[j]) *
                                       w.scales[static_cast<size_t>(j)];
    }
    for (int64_t j = 0; j < n; ++j) C[i * n + j] = static_cast<float>(acc[static_cast<size_t>(j)]);
  }
  return out;
}

QuantizedActivations QuantizeActivationsInt8(const Tensor& x) {
  TSI_CHECK_EQ(x.rank(), 2);
  int64_t rows = x.dim(0), cols = x.dim(1);
  QuantizedActivations q;
  q.shape = x.shape();
  q.values.resize(static_cast<size_t>(rows * cols));
  q.scales.assign(static_cast<size_t>(rows), 0.0f);
  for (int64_t r = 0; r < rows; ++r) {
    q.scales[static_cast<size_t>(r)] =
        QuantizeRow(x.data() + r * cols, cols, q.values.data() + r * cols);
  }
  return q;
}

Tensor Dequantize(const QuantizedActivations& q) {
  Tensor out(q.shape);
  int64_t rows = q.rows(), cols = q.cols();
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c)
      out[r * cols + c] = static_cast<float>(q.values[static_cast<size_t>(r * cols + c)]) *
                          q.scales[static_cast<size_t>(r)];
  return out;
}

namespace {

// Shared int8 matmul body. The integer dot is exact (order-independent), so
// blocking and thread count never change results; the float writeback uses
// the single expression float(acc) * sx * sw in all paths. W panels stream
// through cache once per row block; with decode-sized m (<= kMB) the weight
// matrix is read exactly once per call -- that is the memory-bound win.
template <bool kAccumulateC>
void MatMulInt8Body(const QuantizedActivations& x, const QuantizedTensor& w,
                    float* C) {
  TSI_CHECK_EQ(x.cols(), w.rows());
  const int64_t m = x.rows(), k = x.cols(), n = w.cols();
  TSI_CHECK_LT(127 * 127 * k, int64_t{1} << 31) << "int8 matmul k overflow";
  constexpr int64_t kJP = 512;  // column panel width
  constexpr int64_t kMB = 64;   // row block height
  const int64_t np = (n + kJP - 1) / kJP;
  ThreadPool::Global().ParallelFor(np, 1, [&](int64_t p0, int64_t p1) {
    std::vector<int32_t> acc(static_cast<size_t>(kMB * kJP));
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t j0 = p * kJP, jw = std::min(kJP, n - j0);
      for (int64_t i0 = 0; i0 < m; i0 += kMB) {
        const int64_t mb = std::min(kMB, m - i0);
        std::fill(acc.begin(), acc.begin() + mb * jw, 0);
        for (int64_t kk = 0; kk < k; ++kk) {
          const int8_t* wrow = w.values.data() + kk * n + j0;
          for (int64_t r = 0; r < mb; ++r) {
            const int32_t xv = x.values[static_cast<size_t>((i0 + r) * k + kk)];
            if (xv == 0) continue;
            int32_t* arow = acc.data() + r * jw;
            for (int64_t j = 0; j < jw; ++j) arow[j] += xv * wrow[j];
          }
        }
        for (int64_t r = 0; r < mb; ++r) {
          const float sx = x.scales[static_cast<size_t>(i0 + r)];
          float* crow = C + (i0 + r) * n + j0;
          const int32_t* arow = acc.data() + r * jw;
          for (int64_t j = 0; j < jw; ++j) {
            float v = RoundedFloat(static_cast<float>(arow[j]) * sx *
                                   w.scales[static_cast<size_t>(j0 + j)]);
            crow[j] = kAccumulateC ? crow[j] + v : v;
          }
        }
      }
    }
  });
}

}  // namespace

Tensor MatMulInt8(const QuantizedActivations& x, const QuantizedTensor& w) {
  Tensor out(Shape{x.rows(), w.cols()});
  MatMulInt8Body<false>(x, w, out.data());
  return out;
}

void MatMulInt8Accumulate(const QuantizedActivations& x,
                          const QuantizedTensor& w, Tensor* c) {
  TSI_CHECK(c != nullptr);
  TSI_CHECK_EQ(c->numel(), x.rows() * w.cols())
      << "accumulate target must have the matmul output shape";
  TSI_CHECK_EQ(c->dim(-1), w.cols());
  MatMulInt8Body<true>(x, w, c->data());
}

QuantizedActivations QuantizeNormedInt8(const Tensor& x,
                                        const RowNormTransform& norm) {
  const int64_t cols = x.dim(-1);
  const int64_t rows = x.numel() / cols;
  TSI_CHECK_EQ(static_cast<int64_t>(norm.mean.size()), rows);
  TSI_CHECK_EQ(static_cast<int64_t>(norm.inv.size()), rows);
  TSI_CHECK(norm.gain != nullptr && norm.gain->numel() == cols)
      << "norm gain length must match the normalized dim";
  QuantizedActivations q;
  q.shape = {rows, cols};
  q.values.resize(static_cast<size_t>(rows * cols));
  q.scales.assign(static_cast<size_t>(rows), 0.0f);
  const float* g = norm.gain->data();
  std::vector<float> scratch(static_cast<size_t>(cols));
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x.data() + r * cols;
    const double mean = norm.mean[static_cast<size_t>(r)];
    const double inv = norm.inv[static_cast<size_t>(r)];
    // Same scalar sequence as LayerNorm / NormalizeWithMoments.
    for (int64_t c = 0; c < cols; ++c)
      scratch[static_cast<size_t>(c)] =
          static_cast<float>((row[c] - mean) * inv) * g[c];
    q.scales[static_cast<size_t>(r)] =
        QuantizeRow(scratch.data(), cols, q.values.data() + r * cols);
  }
  return q;
}

QuantizedActivations QuantizeGeluInt8(const Tensor& h) {
  const int64_t cols = h.dim(-1);
  const int64_t rows = h.numel() / cols;
  QuantizedActivations q;
  q.shape = {rows, cols};
  q.values.resize(static_cast<size_t>(rows * cols));
  q.scales.assign(static_cast<size_t>(rows), 0.0f);
  std::vector<float> scratch(static_cast<size_t>(cols));
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = h.data() + r * cols;
    for (int64_t c = 0; c < cols; ++c)
      scratch[static_cast<size_t>(c)] = GeluScalar(row[c]);
    q.scales[static_cast<size_t>(r)] =
        QuantizeRow(scratch.data(), cols, q.values.data() + r * cols);
  }
  return q;
}

QuantizedActivations QuantizeSwishGateInt8(const Tensor& h,
                                           const Tensor& gate) {
  TSI_CHECK(h.SameShape(gate));
  const int64_t cols = h.dim(-1);
  const int64_t rows = h.numel() / cols;
  QuantizedActivations q;
  q.shape = {rows, cols};
  q.values.resize(static_cast<size_t>(rows * cols));
  q.scales.assign(static_cast<size_t>(rows), 0.0f);
  std::vector<float> scratch(static_cast<size_t>(cols));
  for (int64_t r = 0; r < rows; ++r) {
    const float* hrow = h.data() + r * cols;
    const float* grow = gate.data() + r * cols;
    for (int64_t c = 0; c < cols; ++c)
      scratch[static_cast<size_t>(c)] = Swish2Scalar(hrow[c]) * grow[c];
    q.scales[static_cast<size_t>(r)] =
        QuantizeRow(scratch.data(), cols, q.values.data() + r * cols);
  }
  return q;
}

QuantizedKv QuantizeKvInt8(const Tensor& kv) {
  TSI_CHECK_EQ(kv.rank(), 4) << "KV blocks are [rows, t, kv_heads, d_head]";
  const int64_t vecs = kv.numel() / kv.dim(3);
  const int64_t dh = kv.dim(3);
  QuantizedKv q;
  q.shape = kv.shape();
  q.values.resize(static_cast<size_t>(kv.numel()));
  q.scales.assign(static_cast<size_t>(vecs), 0.0f);
  for (int64_t v = 0; v < vecs; ++v) {
    q.scales[static_cast<size_t>(v)] =
        QuantizeRow(kv.data() + v * dh, dh, q.values.data() + v * dh);
  }
  return q;
}

Tensor Dequantize(const QuantizedKv& q) {
  Tensor out(q.shape);
  const int64_t dh = q.d_head();
  const int64_t vecs = q.numel() / dh;
  for (int64_t v = 0; v < vecs; ++v) {
    const float s = q.scales[static_cast<size_t>(v)];
    for (int64_t d = 0; d < dh; ++d)
      out[v * dh + d] =
          static_cast<float>(q.values[static_cast<size_t>(v * dh + d)]) * s;
  }
  return out;
}

QuantizedKv SliceKvPositions(const QuantizedKv& q, int64_t p0,
                             int64_t count) {
  TSI_CHECK(p0 >= 0 && count >= 0 && p0 + count <= q.rows() * q.t())
      << "kv position slice out of range";
  QuantizedKv out;
  out.shape = {1, count, q.kv_heads(), q.d_head()};
  const int64_t vec = q.kv_heads() * q.d_head();  // values per position
  out.values.assign(q.values.begin() + p0 * vec,
                    q.values.begin() + (p0 + count) * vec);
  out.scales.assign(q.scales.begin() + p0 * q.kv_heads(),
                    q.scales.begin() + (p0 + count) * q.kv_heads());
  return out;
}

float QuantizationRelError(const Tensor& w) {
  QuantizedTensor q = QuantizeInt8(w);
  Tensor back = Dequantize(q);
  int64_t rows = w.dim(0), cols = w.dim(1);
  float worst = 0.0f;
  for (int64_t c = 0; c < cols; ++c) {
    float mx = 0.0f;
    for (int64_t r = 0; r < rows; ++r) mx = std::max(mx, std::fabs(w[r * cols + c]));
    if (mx == 0.0f) continue;
    for (int64_t r = 0; r < rows; ++r) {
      float err = std::fabs(w[r * cols + c] - back[r * cols + c]) / mx;
      worst = std::max(worst, err);
    }
  }
  return worst;
}

}  // namespace tsi
