#include "model/attention.h"

#include <algorithm>
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

namespace {

void CheckSpanGeometry(const PagedKvSpan& s) {
  TSI_CHECK_GT(s.page_size, 0);
  TSI_CHECK_GE(s.len, 0);
  const auto pages =
      static_cast<int64_t>(s.int8() ? s.pages8.size() : s.pages.size());
  TSI_CHECK_EQ(pages, (s.len + s.page_size - 1) / s.page_size)
      << "page table must cover exactly the span's length";
  if (s.int8()) {
    TSI_CHECK(s.pages.empty() && s.scales.size() == s.pages8.size())
        << "an int8 span carries one scale page per value page";
  }
  TSI_CHECK(s.head_offset >= 0 && s.kv_heads > 0 &&
            s.head_offset + s.kv_heads <= s.kv_stride)
      << "kv head slice outside the page row";
}

// Row reads of one span, as the kernel's body sees them: Rows(j, g) is kv
// position j's row of visible head g, and row[d] its d-th element.
struct Fp32Rows {
  struct Row {
    const float* p;
    float operator[](int64_t d) const { return p[d]; }
  };
  const PagedKvSpan& s;
  Row operator()(int64_t j, int64_t g) const {
    return {s.pages[static_cast<size_t>(j / s.page_size)] +
            ((j % s.page_size) * s.kv_stride + s.head_offset + g) * s.d_head};
  }
};

struct Int8Rows {
  struct Row {
    const int8_t* p;
    float scale;
    float operator[](int64_t d) const {
      return static_cast<float>(p[d] * scale);
    }
  };
  const PagedKvSpan& s;
  Row operator()(int64_t j, int64_t g) const {
    const auto page = static_cast<size_t>(j / s.page_size);
    const int64_t vec = (j % s.page_size) * s.kv_stride + s.head_offset + g;
    return {s.pages8[page] + vec * s.d_head, s.scales[page][vec]};
  }
};

// One (lane, query head) pair of RaggedPagedAttention: `width` query rows
// at Q (row stride H*dh) over `len` kv positions, into O. srow holds len
// scores, orow dh accumulators.
template <typename Rows>
void AttendHead(const Rows& K, const Rows& V, const float* Q, float* O,
                int64_t width, int64_t len, int64_t H, int64_t dh, int64_t h,
                int64_t g, float* srow, double* orow) {
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  const int64_t offset = len - width;  // query i attends to kv <= i + offset
  for (int64_t i = 0; i < width; ++i) {
    const int64_t jmax = i + offset + 1;
    const float* qrow = Q + (i * H + h) * dh;
    for (int64_t j = 0; j < jmax; ++j) {
      const auto krow = K(j, g);
      double acc = 0.0;
      for (int64_t d = 0; d < dh; ++d)
        acc += static_cast<double>(qrow[d]) * krow[d];
      srow[j] = static_cast<float>(acc) * scale;
    }
    float mx = srow[0];
    for (int64_t j = 1; j < jmax; ++j) mx = std::max(mx, srow[j]);
    double sum = 0.0;
    for (int64_t j = 0; j < jmax; ++j) {
      float e = std::exp2((srow[j] - mx) * kLog2Ef);
      srow[j] = e;
      sum += static_cast<double>(e);
    }
    const double inv = 1.0 / sum;
    for (int64_t d = 0; d < dh; ++d) orow[d] = 0.0;
    for (int64_t j = 0; j < jmax; ++j) {
      const double w = static_cast<float>(srow[j] * inv);
      const auto vrow = V(j, g);
      for (int64_t d = 0; d < dh; ++d) orow[d] += w * vrow[d];
    }
    float* outrow = O + (i * H + h) * dh;
    for (int64_t d = 0; d < dh; ++d) outrow[d] = static_cast<float>(orow[d]);
  }
}

}  // namespace

// Every (lane, head) pair is independent and sequential inside, so the pool
// only decides which thread runs a pair: results do not depend on the
// worker count.
Tensor RaggedPagedAttention(const Tensor& q,
                            const std::vector<RaggedLane>& lanes) {
  TSI_CHECK_EQ(q.rank(), 3);
  const int64_t rows = q.dim(0), H = q.dim(1), dh = q.dim(2);
  std::vector<int64_t> first(lanes.size());  // each lane's first q row
  int64_t total = 0, max_len = 0;
  for (size_t l = 0; l < lanes.size(); ++l) {
    const RaggedLane& lane = lanes[l];
    const PagedKvSpan &k = lane.k, &v = lane.v;
    CheckSpanGeometry(k);
    CheckSpanGeometry(v);
    TSI_CHECK(v.len == k.len && v.kv_heads == k.kv_heads &&
              v.page_size == k.page_size && v.int8() == k.int8())
        << "a lane's K and V spans disagree";
    TSI_CHECK_EQ(k.d_head, dh);
    TSI_CHECK_EQ(v.d_head, dh);
    TSI_CHECK_EQ(H % k.kv_heads, 0)
        << "query heads must be a multiple of kv heads";
    TSI_CHECK(lane.width > 0 && lane.width <= k.len)
        << "queries cannot outnumber kv positions in causal mask";
    first[l] = total;
    total += lane.width;
    max_len = std::max(max_len, k.len);
  }
  TSI_CHECK_EQ(total, rows) << "q rows must be the lanes' widths back to back";
  Tensor out({rows, H, dh});
  const float* Q = q.data();
  float* O = out.data();

  const auto pairs = static_cast<int64_t>(lanes.size()) * H;
  ThreadPool::Global().ParallelFor(pairs, 1, [&](int64_t begin, int64_t end) {
    thread_local std::vector<float> srow;   // one row of scores
    thread_local std::vector<double> orow;  // one row of output accumulators
    srow.resize(static_cast<size_t>(max_len));
    orow.resize(static_cast<size_t>(dh));
    for (int64_t p = begin; p < end; ++p) {
      const auto l = static_cast<size_t>(p / H);
      const int64_t h = p % H;
      const RaggedLane& lane = lanes[l];
      const int64_t g = h * lane.k.kv_heads / H;  // kv head for this query head
      const float* Ql = Q + first[l] * H * dh;
      float* Ol = O + first[l] * H * dh;
      if (lane.k.int8()) {
        AttendHead(Int8Rows{lane.k}, Int8Rows{lane.v}, Ql, Ol, lane.width,
                   lane.k.len, H, dh, h, g, srow.data(), orow.data());
      } else {
        AttendHead(Fp32Rows{lane.k}, Fp32Rows{lane.v}, Ql, Ol, lane.width,
                   lane.k.len, H, dh, h, g, srow.data(), orow.data());
      }
    }
  });
  return out;
}

Tensor GatherSpan(const PagedKvSpan& span) {
  CheckSpanGeometry(span);
  const int64_t dh = span.d_head;
  Tensor out({1, span.len, span.kv_heads, dh});
  float* dst = out.data();
  auto gather = [&](const auto& rows) {
    for (int64_t j = 0; j < span.len; ++j)
      for (int64_t g = 0; g < span.kv_heads; ++g) {
        const auto row = rows(j, g);
        for (int64_t d = 0; d < dh; ++d) *dst++ = row[d];
      }
  };
  if (span.int8()) {
    gather(Int8Rows{span});
  } else {
    gather(Fp32Rows{span});
  }
  return out;
}

}  // namespace tsi
