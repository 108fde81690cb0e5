#include "model/attention.h"

#include <cmath>
#include <vector>

#include "tensor/ops.h"
#include "tensor/scalar_ops.h"
#include "util/logging.h"
#include "util/threadpool.h"

namespace tsi {

// Streaming attention: for each (batch, query-head) pair the score matrix is
// processed one query row at a time -- QK^T row, base-2 softmax, then the
// weighted sum over V -- so the scratch is one Tkv-row plus one dh-row
// regardless of sequence length. Causal masking is folded into the j-loop
// bounds: a masked score contributed exactly exp2(-huge) == +0.0 to the
// softmax sum and 0*v to the output, so skipping it is value-identical to
// the mask-then-softmax formulation. (batch, head) pairs are independent and
// distributed over the pool; the arithmetic inside each pair is sequential,
// so results do not depend on the worker count.
Tensor ScaledDotProductAttention(const Tensor& q, const Tensor& k,
                                 const Tensor& v, bool causal) {
  TSI_CHECK_EQ(q.rank(), 4);
  TSI_CHECK_EQ(k.rank(), 4);
  TSI_CHECK_EQ(v.rank(), 4);
  const int64_t B = q.dim(0), Tq = q.dim(1), H = q.dim(2), dh = q.dim(3);
  const int64_t Tkv = k.dim(1), KV = k.dim(2);
  TSI_CHECK_EQ(k.dim(0), B);
  TSI_CHECK_EQ(v.dim(0), B);
  TSI_CHECK_EQ(v.dim(1), Tkv);
  TSI_CHECK_EQ(v.dim(2), KV);
  TSI_CHECK_EQ(k.dim(3), dh);
  TSI_CHECK_EQ(v.dim(3), dh);
  TSI_CHECK_EQ(H % KV, 0) << "query heads must be a multiple of kv heads";
  if (causal) {
    TSI_CHECK_LE(Tq, Tkv) << "queries cannot outnumber kv positions in causal mask";
  }

  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  const int64_t offset = Tkv - Tq;  // query i attends to kv <= i + offset
  Tensor out({B, Tq, H, dh});

  const float* Q = q.data();
  const float* K = k.data();
  const float* V = v.data();
  float* O = out.data();

  ThreadPool::Global().ParallelFor(B * H, 1, [&](int64_t begin, int64_t end) {
    thread_local std::vector<float> srow;   // one row of scores
    thread_local std::vector<double> orow;  // one row of output accumulators
    srow.resize(static_cast<size_t>(Tkv));
    orow.resize(static_cast<size_t>(dh));
    for (int64_t bh = begin; bh < end; ++bh) {
      const int64_t b = bh / H, h = bh % H;
      const int64_t g = h * KV / H;  // kv head for this query head
      for (int64_t i = 0; i < Tq; ++i) {
        const int64_t jmax = causal ? i + offset + 1 : Tkv;
        const float* qrow = Q + ((b * Tq + i) * H + h) * dh;
        for (int64_t j = 0; j < jmax; ++j) {
          const float* krow = K + ((b * Tkv + j) * KV + g) * dh;
          double acc = 0.0;
          for (int64_t d = 0; d < dh; ++d)
            acc += static_cast<double>(qrow[d]) * krow[d];
          srow[static_cast<size_t>(j)] = static_cast<float>(acc) * scale;
        }
        float mx = srow[0];
        for (int64_t j = 1; j < jmax; ++j) mx = std::max(mx, srow[static_cast<size_t>(j)]);
        double sum = 0.0;
        for (int64_t j = 0; j < jmax; ++j) {
          float e = std::exp2((srow[static_cast<size_t>(j)] - mx) * kLog2Ef);
          srow[static_cast<size_t>(j)] = e;
          sum += static_cast<double>(e);
        }
        const double inv = 1.0 / sum;
        for (int64_t d = 0; d < dh; ++d) orow[static_cast<size_t>(d)] = 0.0;
        for (int64_t j = 0; j < jmax; ++j) {
          const double w = static_cast<float>(srow[static_cast<size_t>(j)] * inv);
          const float* vrow = V + ((b * Tkv + j) * KV + g) * dh;
          for (int64_t d = 0; d < dh; ++d)
            orow[static_cast<size_t>(d)] += w * vrow[d];
        }
        float* outrow = O + ((b * Tq + i) * H + h) * dh;
        for (int64_t d = 0; d < dh; ++d)
          outrow[d] = static_cast<float>(orow[static_cast<size_t>(d)]);
      }
    }
  });
  return out;
}

// Int8-KV variant: the same streaming loop, with each K/V element expanded
// to float(int8 * scale) at read time. That is exactly the value Dequantize
// produces, so this is bit-identical to running the fp32 kernel on the
// dequantized cache -- the fusion saves the fp32 materialization and the 4x
// KV bytes, not arithmetic.
Tensor ScaledDotProductAttentionInt8Kv(const Tensor& q, const QuantizedKv& k,
                                       const QuantizedKv& v, bool causal) {
  TSI_CHECK_EQ(q.rank(), 4);
  const int64_t B = q.dim(0), Tq = q.dim(1), H = q.dim(2), dh = q.dim(3);
  const int64_t Tkv = k.t(), KV = k.kv_heads();
  TSI_CHECK_EQ(k.rows(), B);
  TSI_CHECK_EQ(v.rows(), B);
  TSI_CHECK_EQ(v.t(), Tkv);
  TSI_CHECK_EQ(v.kv_heads(), KV);
  TSI_CHECK_EQ(k.d_head(), dh);
  TSI_CHECK_EQ(v.d_head(), dh);
  TSI_CHECK_EQ(H % KV, 0) << "query heads must be a multiple of kv heads";
  if (causal) {
    TSI_CHECK_LE(Tq, Tkv) << "queries cannot outnumber kv positions in causal mask";
  }

  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  const int64_t offset = Tkv - Tq;
  Tensor out({B, Tq, H, dh});

  const float* Q = q.data();
  const int8_t* K8 = k.values.data();
  const int8_t* V8 = v.values.data();
  const float* Ks = k.scales.data();
  const float* Vs = v.scales.data();
  float* O = out.data();

  ThreadPool::Global().ParallelFor(B * H, 1, [&](int64_t begin, int64_t end) {
    thread_local std::vector<float> srow;
    thread_local std::vector<double> orow;
    srow.resize(static_cast<size_t>(Tkv));
    orow.resize(static_cast<size_t>(dh));
    for (int64_t bh = begin; bh < end; ++bh) {
      const int64_t b = bh / H, h = bh % H;
      const int64_t g = h * KV / H;
      for (int64_t i = 0; i < Tq; ++i) {
        const int64_t jmax = causal ? i + offset + 1 : Tkv;
        const float* qrow = Q + ((b * Tq + i) * H + h) * dh;
        for (int64_t j = 0; j < jmax; ++j) {
          const int64_t vec = (b * Tkv + j) * KV + g;
          const int8_t* krow = K8 + vec * dh;
          const float ks = Ks[vec];
          double acc = 0.0;
          for (int64_t d = 0; d < dh; ++d)
            acc += static_cast<double>(qrow[d]) *
                   static_cast<float>(krow[d] * ks);
          srow[static_cast<size_t>(j)] = static_cast<float>(acc) * scale;
        }
        float mx = srow[0];
        for (int64_t j = 1; j < jmax; ++j) mx = std::max(mx, srow[static_cast<size_t>(j)]);
        double sum = 0.0;
        for (int64_t j = 0; j < jmax; ++j) {
          float e = std::exp2((srow[static_cast<size_t>(j)] - mx) * kLog2Ef);
          srow[static_cast<size_t>(j)] = e;
          sum += static_cast<double>(e);
        }
        const double inv = 1.0 / sum;
        for (int64_t d = 0; d < dh; ++d) orow[static_cast<size_t>(d)] = 0.0;
        for (int64_t j = 0; j < jmax; ++j) {
          const double w = static_cast<float>(srow[static_cast<size_t>(j)] * inv);
          const int64_t vec = (b * Tkv + j) * KV + g;
          const int8_t* vrow = V8 + vec * dh;
          const float vs = Vs[vec];
          for (int64_t d = 0; d < dh; ++d)
            orow[static_cast<size_t>(d)] +=
                w * static_cast<double>(static_cast<float>(vrow[d] * vs));
        }
        float* outrow = O + ((b * Tq + i) * H + h) * dh;
        for (int64_t d = 0; d < dh; ++d)
          outrow[d] = static_cast<float>(orow[static_cast<size_t>(d)]);
      }
    }
  });
  return out;
}

namespace {

void CheckSpanGeometry(int64_t len, int64_t page_size, int64_t pages,
                       int64_t kv_stride, int64_t head_offset,
                       int64_t kv_heads) {
  TSI_CHECK_GT(page_size, 0);
  TSI_CHECK_GE(len, 0);
  TSI_CHECK_EQ(pages, (len + page_size - 1) / page_size)
      << "page table must cover exactly the span's length";
  TSI_CHECK(head_offset >= 0 && kv_heads > 0 &&
            head_offset + kv_heads <= kv_stride)
      << "kv head slice outside the page row";
}

}  // namespace

// Paged fp32 kernel: identical streaming loop, with each kv position's row
// pointer resolved through the page table (page j/ps, offset j%ps). The
// j-order, the score row, and the softmax/weighted-sum passes are exactly
// the contiguous kernel's, so paged == gathered bit-for-bit.
Tensor ScaledDotProductAttentionPaged(const Tensor& q, const PagedKvSpan& k,
                                      const PagedKvSpan& v, bool causal) {
  TSI_CHECK_EQ(q.rank(), 4);
  TSI_CHECK_EQ(q.dim(0), 1) << "paged spans describe one sequence";
  const int64_t Tq = q.dim(1), H = q.dim(2), dh = q.dim(3);
  const int64_t Tkv = k.len, KV = k.kv_heads, ps = k.page_size;
  CheckSpanGeometry(k.len, k.page_size, static_cast<int64_t>(k.pages.size()),
                    k.kv_stride, k.head_offset, k.kv_heads);
  CheckSpanGeometry(v.len, v.page_size, static_cast<int64_t>(v.pages.size()),
                    v.kv_stride, v.head_offset, v.kv_heads);
  TSI_CHECK(v.len == Tkv && v.kv_heads == KV && v.page_size == ps);
  TSI_CHECK_EQ(k.d_head, dh);
  TSI_CHECK_EQ(v.d_head, dh);
  TSI_CHECK_EQ(H % KV, 0) << "query heads must be a multiple of kv heads";
  if (causal) {
    TSI_CHECK_LE(Tq, Tkv) << "queries cannot outnumber kv positions in causal mask";
  }

  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  const int64_t offset = Tkv - Tq;
  Tensor out({1, Tq, H, dh});

  const float* Q = q.data();
  float* O = out.data();

  ThreadPool::Global().ParallelFor(H, 1, [&](int64_t begin, int64_t end) {
    thread_local std::vector<float> srow;
    thread_local std::vector<double> orow;
    srow.resize(static_cast<size_t>(Tkv));
    orow.resize(static_cast<size_t>(dh));
    for (int64_t h = begin; h < end; ++h) {
      const int64_t g = h * KV / H;
      for (int64_t i = 0; i < Tq; ++i) {
        const int64_t jmax = causal ? i + offset + 1 : Tkv;
        const float* qrow = Q + (i * H + h) * dh;
        for (int64_t j = 0; j < jmax; ++j) {
          const float* krow =
              k.pages[static_cast<size_t>(j / ps)] +
              ((j % ps) * k.kv_stride + k.head_offset + g) * dh;
          double acc = 0.0;
          for (int64_t d = 0; d < dh; ++d)
            acc += static_cast<double>(qrow[d]) * krow[d];
          srow[static_cast<size_t>(j)] = static_cast<float>(acc) * scale;
        }
        float mx = srow[0];
        for (int64_t j = 1; j < jmax; ++j) mx = std::max(mx, srow[static_cast<size_t>(j)]);
        double sum = 0.0;
        for (int64_t j = 0; j < jmax; ++j) {
          float e = std::exp2((srow[static_cast<size_t>(j)] - mx) * kLog2Ef);
          srow[static_cast<size_t>(j)] = e;
          sum += static_cast<double>(e);
        }
        const double inv = 1.0 / sum;
        for (int64_t d = 0; d < dh; ++d) orow[static_cast<size_t>(d)] = 0.0;
        for (int64_t j = 0; j < jmax; ++j) {
          const double w = static_cast<float>(srow[static_cast<size_t>(j)] * inv);
          const float* vrow =
              v.pages[static_cast<size_t>(j / ps)] +
              ((j % ps) * v.kv_stride + v.head_offset + g) * dh;
          for (int64_t d = 0; d < dh; ++d)
            orow[static_cast<size_t>(d)] += w * vrow[d];
        }
        float* outrow = O + (i * H + h) * dh;
        for (int64_t d = 0; d < dh; ++d)
          outrow[d] = static_cast<float>(orow[static_cast<size_t>(d)]);
      }
    }
  });
  return out;
}

// Paged int8 kernel: page-table pointer resolution + the int8 kernel's
// read-time dequant, in the same j-order -- bit-identical to gathering the
// int8 pages and calling ScaledDotProductAttentionInt8Kv.
Tensor ScaledDotProductAttentionPagedInt8Kv(const Tensor& q,
                                            const PagedKvSpanInt8& k,
                                            const PagedKvSpanInt8& v,
                                            bool causal) {
  TSI_CHECK_EQ(q.rank(), 4);
  TSI_CHECK_EQ(q.dim(0), 1) << "paged spans describe one sequence";
  const int64_t Tq = q.dim(1), H = q.dim(2), dh = q.dim(3);
  const int64_t Tkv = k.len, KV = k.kv_heads, ps = k.page_size;
  CheckSpanGeometry(k.len, k.page_size, static_cast<int64_t>(k.pages.size()),
                    k.kv_stride, k.head_offset, k.kv_heads);
  CheckSpanGeometry(v.len, v.page_size, static_cast<int64_t>(v.pages.size()),
                    v.kv_stride, v.head_offset, v.kv_heads);
  TSI_CHECK_EQ(k.pages.size(), k.scale_pages.size());
  TSI_CHECK_EQ(v.pages.size(), v.scale_pages.size());
  TSI_CHECK(v.len == Tkv && v.kv_heads == KV && v.page_size == ps);
  TSI_CHECK_EQ(k.d_head, dh);
  TSI_CHECK_EQ(v.d_head, dh);
  TSI_CHECK_EQ(H % KV, 0) << "query heads must be a multiple of kv heads";
  if (causal) {
    TSI_CHECK_LE(Tq, Tkv) << "queries cannot outnumber kv positions in causal mask";
  }

  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  const int64_t offset = Tkv - Tq;
  Tensor out({1, Tq, H, dh});

  const float* Q = q.data();
  float* O = out.data();

  ThreadPool::Global().ParallelFor(H, 1, [&](int64_t begin, int64_t end) {
    thread_local std::vector<float> srow;
    thread_local std::vector<double> orow;
    srow.resize(static_cast<size_t>(Tkv));
    orow.resize(static_cast<size_t>(dh));
    for (int64_t h = begin; h < end; ++h) {
      const int64_t g = h * KV / H;
      for (int64_t i = 0; i < Tq; ++i) {
        const int64_t jmax = causal ? i + offset + 1 : Tkv;
        const float* qrow = Q + (i * H + h) * dh;
        for (int64_t j = 0; j < jmax; ++j) {
          const auto page = static_cast<size_t>(j / ps);
          const int64_t vec = (j % ps) * k.kv_stride + k.head_offset + g;
          const int8_t* krow = k.pages[page] + vec * dh;
          const float ks = k.scale_pages[page][vec];
          double acc = 0.0;
          for (int64_t d = 0; d < dh; ++d)
            acc += static_cast<double>(qrow[d]) *
                   static_cast<float>(krow[d] * ks);
          srow[static_cast<size_t>(j)] = static_cast<float>(acc) * scale;
        }
        float mx = srow[0];
        for (int64_t j = 1; j < jmax; ++j) mx = std::max(mx, srow[static_cast<size_t>(j)]);
        double sum = 0.0;
        for (int64_t j = 0; j < jmax; ++j) {
          float e = std::exp2((srow[static_cast<size_t>(j)] - mx) * kLog2Ef);
          srow[static_cast<size_t>(j)] = e;
          sum += static_cast<double>(e);
        }
        const double inv = 1.0 / sum;
        for (int64_t d = 0; d < dh; ++d) orow[static_cast<size_t>(d)] = 0.0;
        for (int64_t j = 0; j < jmax; ++j) {
          const double w = static_cast<float>(srow[static_cast<size_t>(j)] * inv);
          const auto page = static_cast<size_t>(j / ps);
          const int64_t vec = (j % ps) * v.kv_stride + v.head_offset + g;
          const int8_t* vrow = v.pages[page] + vec * dh;
          const float vs = v.scale_pages[page][vec];
          for (int64_t d = 0; d < dh; ++d)
            orow[static_cast<size_t>(d)] +=
                w * static_cast<double>(static_cast<float>(vrow[d] * vs));
        }
        float* outrow = O + (i * H + h) * dh;
        for (int64_t d = 0; d < dh; ++d)
          outrow[d] = static_cast<float>(orow[static_cast<size_t>(d)]);
      }
    }
  });
  return out;
}

}  // namespace tsi
