// Fused kernels of the engine's block bodies (docs/fastpath.md): every fused
// fp32 kernel is bit-identical to the composition it replaces, the int8
// pipeline's fused quantizers reproduce their two-step counterparts exactly,
// and the ragged paged attention kernel reproduces contiguous SDPA on every
// lane, fp32 or int8 KV.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "model/attention.h"
#include "quant/int8.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace tsi {
namespace {

// --- Fused fp32 kernels: bit-identical to the unfused composition ----------

struct FusedKernelFixture {
  Rng rng{123};
  Tensor x = Tensor::Gaussian({6, 16}, rng);
  Tensor gain = Tensor::Gaussian({16}, rng);
  Tensor w = Tensor::Gaussian({16, 12}, rng);
  Tensor wg = Tensor::Gaussian({16, 12}, rng);
};

TEST(FusedKernelTest, MatMulNormAMatchesLayerNormThenMatMul) {
  FusedKernelFixture f;
  Tensor want = MatMul(LayerNorm(f.x, f.gain), f.w);
  RowNormTransform nt = NormTransformFromRows(f.x, f.gain);
  Tensor got = MatMulNormA(f.x, nt, f.w);
  EXPECT_EQ(MaxAbsDiff(got, want), 0.0f) << "norm-on-pack must be exact";
}

TEST(FusedKernelTest, MatMulNormAMatchesMomentsPath) {
  // The distributed-norm site: the transform built from reduced moments must
  // reproduce NormalizeWithMoments reads exactly.
  FusedKernelFixture f;
  Tensor moments = RowMoments(f.x);
  Tensor want = MatMul(NormalizeWithMoments(f.x, moments, f.gain, 16.0), f.w);
  RowNormTransform nt = NormTransformFromMoments(moments, f.gain, 16.0);
  EXPECT_EQ(MaxAbsDiff(MatMulNormA(f.x, nt, f.w), want), 0.0f);
}

TEST(FusedKernelTest, MatMulNormAGeluMatchesComposition) {
  FusedKernelFixture f;
  Tensor want = Gelu(MatMul(LayerNorm(f.x, f.gain), f.w));
  RowNormTransform nt = NormTransformFromRows(f.x, f.gain);
  EXPECT_EQ(MaxAbsDiff(MatMulNormAGelu(f.x, nt, f.w), want), 0.0f);
}

TEST(FusedKernelTest, MatMulNormASwishMulGateMatchesComposition) {
  FusedKernelFixture f;
  Tensor y = LayerNorm(f.x, f.gain);
  Tensor want = Swish2(MatMul(y, f.w)).Mul(MatMul(y, f.wg));
  RowNormTransform nt = NormTransformFromRows(f.x, f.gain);
  EXPECT_EQ(MaxAbsDiff(MatMulNormASwishMulGate(f.x, nt, f.w, f.wg), want),
            0.0f);
}

TEST(FusedKernelTest, MatMulAccumulateMatchesAddInPlace) {
  FusedKernelFixture f;
  Tensor c = Tensor::Gaussian({6, 12}, f.rng);
  Tensor want = c;
  want.AddInPlace(MatMul(f.x, f.w));
  MatMulAccumulate(f.x, f.w, &c);
  EXPECT_EQ(MaxAbsDiff(c, want), 0.0f) << "accumulate epilogue must be exact";
}

// --- Fused int8 quantizers: bit-identical to quantize(composition) ---------

void ExpectSameQuantized(const QuantizedActivations& got,
                         const QuantizedActivations& want) {
  ASSERT_EQ(got.shape, want.shape);
  EXPECT_EQ(got.values, want.values);
  EXPECT_EQ(got.scales, want.scales);
}

TEST(FusedQuantTest, QuantizeNormedMatchesTwoStep) {
  FusedKernelFixture f;
  ExpectSameQuantized(
      QuantizeNormedInt8(f.x, NormTransformFromRows(f.x, f.gain)),
      QuantizeActivationsInt8(LayerNorm(f.x, f.gain)));
}

TEST(FusedQuantTest, QuantizeNormedMatchesMomentsSite) {
  FusedKernelFixture f;
  Tensor moments = RowMoments(f.x);
  ExpectSameQuantized(
      QuantizeNormedInt8(f.x, NormTransformFromMoments(moments, f.gain, 16.0)),
      QuantizeActivationsInt8(NormalizeWithMoments(f.x, moments, f.gain, 16.0)));
}

TEST(FusedQuantTest, QuantizeGeluAndSwishGateMatchTwoStep) {
  Rng rng(7);
  Tensor h = Tensor::Gaussian({5, 24}, rng);
  Tensor g = Tensor::Gaussian({5, 24}, rng);
  ExpectSameQuantized(QuantizeGeluInt8(h), QuantizeActivationsInt8(Gelu(h)));
  ExpectSameQuantized(QuantizeSwishGateInt8(h, g),
                      QuantizeActivationsInt8(Swish2(h).Mul(g)));
}

TEST(FusedQuantTest, MatMulInt8AccumulateMatchesAddInPlace) {
  Rng rng(11);
  QuantizedActivations xq = QuantizeActivationsInt8(Tensor::Gaussian({4, 16}, rng));
  QuantizedTensor wq = QuantizeInt8(Tensor::Gaussian({16, 8}, rng));
  Tensor c = Tensor::Gaussian({4, 8}, rng);
  Tensor want = c;
  want.AddInPlace(MatMulInt8(xq, wq));
  MatMulInt8Accumulate(xq, wq, &c);
  EXPECT_EQ(MaxAbsDiff(c, want), 0.0f);
}

// --- Int8 KV cache payload and SDPA ----------------------------------------

TEST(QuantizedKvTest, RoundTripErrorBoundedByHalfScale) {
  Rng rng(21);
  Tensor kv = Tensor::Gaussian({3, 4, 2, 8}, rng);
  QuantizedKv q = QuantizeKvInt8(kv);
  ASSERT_EQ(q.shape, kv.shape());
  ASSERT_EQ(static_cast<int64_t>(q.scales.size()), 3 * 4 * 2);
  Tensor back = Dequantize(q);
  for (int64_t i = 0; i < kv.numel(); ++i) {
    const float scale = q.scales[static_cast<size_t>(i / 8)];
    EXPECT_LE(std::abs(kv[i] - back[i]), 0.5f * scale + 1e-7f) << "elem " << i;
  }
  // Bytes: int8 payload plus one fp32 scale per (row, position, head).
  EXPECT_EQ(q.ByteSize(), kv.numel() + 4 * 3 * 4 * 2);
}

TEST(QuantizedKvTest, AllZeroVectorUsesUnitScaleAndStaysZero) {
  Tensor kv = Tensor::Zeros({1, 2, 1, 4});
  QuantizedKv q = QuantizeKvInt8(kv);
  for (float s : q.scales) EXPECT_EQ(s, 1.0f);
  EXPECT_EQ(MaxAbsDiff(Dequantize(q), kv), 0.0f);
}

TEST(QuantizedKvTest, PositionSliceMatchesFp32Counterpart) {
  Rng rng(31);
  Tensor a = Tensor::Gaussian({2, 3, 4, 8}, rng);
  QuantizedKv qa = QuantizeKvInt8(a);
  // Positions 2..3 of the rows laid end to end: row 0's last, row 1's first.
  EXPECT_EQ(MaxAbsDiff(Dequantize(SliceKvPositions(qa, 2, 2)),
                       Dequantize(qa).Reshape({1, 6, 4, 8}).Slice(1, 2, 2)),
            0.0f);
}

// --- Ragged paged attention ------------------------------------------------
// Every lane of one RaggedPagedAttention call must equal
// ScaledDotProductAttention on the lane's gathered K/V (the Dequantized
// block for int8), for any page size, head slice and mix of lane shapes.

struct RaggedCase {
  const char* heads;  // test-name tag
  int64_t H, kv_heads, kv_stride, head_offset;
  bool int8_;
  int64_t page_size;
  // (width, len) per lane; empty: 6 lanes drawn from the case's seed with
  // widths 1..9 and contexts width..40.
  std::vector<std::pair<int64_t, int64_t>> lanes;
};

std::string RaggedCaseName(const ::testing::TestParamInfo<RaggedCase>& info) {
  const RaggedCase& c = info.param;
  std::string s = c.heads;
  s += c.int8_ ? "_int8" : "_fp32";
  s += "_ps" + std::to_string(c.page_size);
  if (!c.lanes.empty()) s += "_fixed";
  return s;
}

void PrintTo(const RaggedCase& c, std::ostream* os) {
  *os << c.heads << " H=" << c.H << " kv=" << c.head_offset << "+"
      << c.kv_heads << "/" << c.kv_stride << (c.int8_ ? " int8" : " fp32")
      << " page_size=" << c.page_size;
}

std::vector<RaggedCase> RaggedCases() {
  // MQA, GQA and MHA, each whole and as a head slice of a wider page row.
  const RaggedCase heads[] = {
      {"mqa", 4, 1, 1, 0, false, 0, {}},  {"mqa_slice", 2, 1, 3, 2, false, 0, {}},
      {"gqa", 4, 2, 2, 0, false, 0, {}},  {"gqa_slice", 4, 2, 4, 1, false, 0, {}},
      {"mha", 4, 4, 4, 0, false, 0, {}},  {"mha_slice", 2, 2, 5, 3, false, 0, {}},
  };
  std::vector<RaggedCase> cases;
  for (int64_t ps : {1, 3, 16, 64}) {  // 64 >= every context: one page
    for (bool int8 : {false, true}) {
      for (RaggedCase c : heads) {
        c.int8_ = int8;
        c.page_size = ps;
        cases.push_back(c);
      }
    }
  }
  // Decode-style GQA over contiguous int8 blocks: 3 sequences of 6
  // positions, 4 query heads reading 2 kv heads.
  cases.push_back({"gqa", 4, 2, 2, 0, true, 6, {{1, 6}, {1, 6}, {1, 6}}});
  return cases;
}

// Owns the page buffers of the spans it builds. Pages are whole pages; the
// positions past a span's length hold NaN (fp32 values, int8 scales), so a
// read outside the page table's valid range poisons the output.
struct PageStore {
  std::vector<std::vector<float>> fp32, scales;
  std::vector<std::vector<int8_t>> int8;

  // `block` [1, len, kv_stride, dh] through pages of `c.page_size`, with
  // c's head slice visible. The moved-in buffers keep their addresses.
  PagedKvSpan Page(const RaggedCase& c, const Tensor& block) {
    const int64_t len = block.dim(1), dh = block.dim(3);
    const int64_t ps = c.page_size, row = c.kv_stride * dh;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const QuantizedKv q = QuantizeKvInt8(block);
    PagedKvSpan span;
    span.len = len;
    span.page_size = ps;
    span.kv_stride = c.kv_stride;
    span.head_offset = c.head_offset;
    span.kv_heads = c.kv_heads;
    span.d_head = dh;
    for (int64_t p0 = 0; p0 < len; p0 += ps) {
      const int64_t n = std::min(ps, len - p0);
      if (c.int8_) {
        std::vector<int8_t> values(static_cast<size_t>(ps * row), 0);
        std::vector<float> sc(static_cast<size_t>(ps * c.kv_stride), nan);
        std::copy_n(q.values.begin() + p0 * row, n * row, values.begin());
        std::copy_n(q.scales.begin() + p0 * c.kv_stride, n * c.kv_stride,
                    sc.begin());
        span.pages8.push_back(values.data());
        span.scales.push_back(sc.data());
        int8.push_back(std::move(values));
        scales.push_back(std::move(sc));
      } else {
        std::vector<float> values(static_cast<size_t>(ps * row), nan);
        std::copy_n(block.data() + p0 * row, n * row, values.begin());
        span.pages.push_back(values.data());
        fp32.push_back(std::move(values));
      }
    }
    return span;
  }
};

// Bitwise equality: unlike MaxAbsDiff, a NaN anywhere fails it.
bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

class RaggedPagedAttentionTest : public ::testing::TestWithParam<RaggedCase> {
};

TEST_P(RaggedPagedAttentionTest, EveryLaneMatchesContiguousSdpa) {
  const RaggedCase& c = GetParam();
  constexpr int64_t dh = 8;
  Rng rng(Rng::DeriveSeed(
      61, static_cast<uint64_t>(c.page_size * 1000 + c.kv_stride * 100 +
                                c.H * 10 + c.head_offset + c.int8_)));
  std::vector<std::pair<int64_t, int64_t>> shapes = c.lanes;
  if (shapes.empty()) {
    for (int l = 0; l < 6; ++l) {
      const auto width = static_cast<int64_t>(1 + rng.NextBelow(9));
      const auto extra = static_cast<int64_t>(
          rng.NextBelow(static_cast<uint64_t>(41 - width)));
      shapes.emplace_back(width, width + extra);
    }
  }
  int64_t rows = 0;
  for (const auto& shape : shapes) rows += shape.first;
  const Tensor q = Tensor::Gaussian({rows, c.H, dh}, rng);

  PageStore store;
  std::vector<RaggedLane> lanes;
  std::vector<Tensor> want;
  int64_t first = 0;
  for (const auto& [width, len] : shapes) {
    const Tensor k = Tensor::Gaussian({1, len, c.kv_stride, dh}, rng);
    const Tensor v = Tensor::Gaussian({1, len, c.kv_stride, dh}, rng);
    RaggedLane lane{width, store.Page(c, k), store.Page(c, v)};
    // The oracle's K/V: the visible heads, as the kernel reads them.
    auto visible = [&](const Tensor& t) {
      const Tensor whole = c.int8_ ? Dequantize(QuantizeKvInt8(t)) : t;
      return whole.Slice(2, c.head_offset, c.kv_heads);
    };
    const Tensor kg = visible(k), vg = visible(v);
    EXPECT_TRUE(SameBits(GatherSpan(lane.k), kg));
    EXPECT_TRUE(SameBits(GatherSpan(lane.v), vg));
    const Tensor ql = q.Slice(0, first, width).Reshape({1, width, c.H, dh});
    want.push_back(ScaledDotProductAttention(ql, kg, vg, /*causal=*/true));
    lanes.push_back(std::move(lane));
    first += width;
  }

  const Tensor got = RaggedPagedAttention(q, lanes);
  ASSERT_EQ(got.shape(), q.shape());
  first = 0;
  for (size_t l = 0; l < lanes.size(); ++l) {
    const int64_t width = lanes[l].width;
    const Tensor lane_out =
        got.Slice(0, first, width).Reshape({1, width, c.H, dh});
    EXPECT_TRUE(SameBits(lane_out, want[l]))
        << "lane " << l << " (width " << width << ", len " << lanes[l].k.len
        << ")";
    first += width;
  }
}

INSTANTIATE_TEST_SUITE_P(Table, RaggedPagedAttentionTest,
                         ::testing::ValuesIn(RaggedCases()), RaggedCaseName);

}  // namespace
}  // namespace tsi
