#include "sim/transfer.h"

#include <cstring>

#include "util/logging.h"

namespace tsi {

void TransferBox(const Tensor& src, const Shape& src_off, Tensor* dst,
                 const Shape& dst_off, const Shape& box, bool add) {
  TransferBox(src.data(), src.shape(), src_off, dst, dst_off, box, add);
}

void TransferBox(const float* sp, const Shape& src_shape,
                 const Shape& src_off, Tensor* dst, const Shape& dst_off,
                 const Shape& box, bool add) {
  const int64_t rank = static_cast<int64_t>(box.size());
  TSI_CHECK_EQ(static_cast<int64_t>(src_shape.size()), rank);
  TSI_CHECK_EQ(dst->rank(), rank);
  // Row-major strides.
  Shape sstr(static_cast<size_t>(rank)), dstr(static_cast<size_t>(rank));
  int64_t ss = 1, ds = 1;
  for (int64_t d = rank - 1; d >= 0; --d) {
    sstr[static_cast<size_t>(d)] = ss;
    dstr[static_cast<size_t>(d)] = ds;
    ss *= src_shape[static_cast<size_t>(d)];
    ds *= dst->dim(d);
  }
  int64_t src_base = 0, dst_base = 0;
  for (int64_t d = 0; d < rank; ++d) {
    TSI_CHECK(src_off[static_cast<size_t>(d)] + box[static_cast<size_t>(d)] <=
              src_shape[static_cast<size_t>(d)]);
    TSI_CHECK(dst_off[static_cast<size_t>(d)] + box[static_cast<size_t>(d)] <=
              dst->dim(d));
    src_base += src_off[static_cast<size_t>(d)] * sstr[static_cast<size_t>(d)];
    dst_base += dst_off[static_cast<size_t>(d)] * dstr[static_cast<size_t>(d)];
  }
  const int64_t run = box[static_cast<size_t>(rank - 1)];
  const int64_t rows = NumElements(box) / (run == 0 ? 1 : run);
  if (run == 0) return;
  float* dp = dst->data();
  // Odometer over all dims but the last.
  Shape idx(static_cast<size_t>(rank - 1), 0);
  for (int64_t r = 0; r < rows; ++r) {
    int64_t so = src_base, doff = dst_base;
    for (int64_t d = 0; d < rank - 1; ++d) {
      so += idx[static_cast<size_t>(d)] * sstr[static_cast<size_t>(d)];
      doff += idx[static_cast<size_t>(d)] * dstr[static_cast<size_t>(d)];
    }
    if (add) {
      for (int64_t j = 0; j < run; ++j) dp[doff + j] += sp[so + j];
    } else {
      std::memcpy(dp + doff, sp + so, static_cast<size_t>(run) * sizeof(float));
    }
    for (int64_t d = rank - 2; d >= 0; --d) {
      if (++idx[static_cast<size_t>(d)] < box[static_cast<size_t>(d)]) break;
      idx[static_cast<size_t>(d)] = 0;
    }
  }
}

}  // namespace tsi
