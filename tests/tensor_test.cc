#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace tsi {
namespace {

TEST(TensorTest, ZerosHasShapeAndZeroData) {
  Tensor t(Shape{2, 3, 4});
  EXPECT_EQ(t.rank(), 3);
  EXPECT_EQ(t.numel(), 24);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FullFillsValue) {
  Tensor t = Tensor::Full({2, 2}, 3.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 3.5f);
}

TEST(TensorTest, IotaIdentifiesPositions) {
  Tensor t = Tensor::Iota({2, 3});
  EXPECT_EQ(t.at({0, 0}), 0.0f);
  EXPECT_EQ(t.at({0, 2}), 2.0f);
  EXPECT_EQ(t.at({1, 0}), 3.0f);
  EXPECT_EQ(t.at({1, 2}), 5.0f);
}

TEST(TensorTest, AtIsRowMajor) {
  Tensor t = Tensor::Iota({2, 3, 4});
  EXPECT_EQ(t.at({1, 2, 3}), 23.0f);
  EXPECT_EQ(t.at({0, 1, 0}), 4.0f);
}

TEST(TensorTest, DimSupportsNegativeIndex) {
  Tensor t(Shape{2, 3, 4});
  EXPECT_EQ(t.dim(-1), 4);
  EXPECT_EQ(t.dim(-2), 3);
  EXPECT_EQ(t.dim(0), 2);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t = Tensor::Iota({2, 6});
  Tensor r = t.Reshape({3, 4});
  EXPECT_EQ(r.dim(0), 3);
  EXPECT_EQ(r.at({2, 3}), 11.0f);
}

// SharedRows: the view's offset and extent, views of views, and a rank-1
// source.
TEST(TensorViewTest, SharedRowsReadsTheSourceRowsInPlace) {
  const Tensor t = Tensor::Iota({5, 3});
  const Tensor v = t.SharedRows(1, 3);
  EXPECT_EQ(v.shape(), (Shape{3, 3}));
  EXPECT_TRUE(v.SharesBufferWith(t));
  EXPECT_EQ(v.data(), t.data() + 3);
  EXPECT_EQ(v.at({2, 2}), 11.0f);
  const Tensor vv = v.SharedRows(2, 1);
  EXPECT_EQ(vv.data(), t.data() + 9);
  EXPECT_EQ(vv.at({0, 0}), 9.0f);
  const Tensor g = Tensor::Iota({8}).SharedRows(6, 2);
  EXPECT_EQ(g.shape(), (Shape{2}));
  EXPECT_EQ(g[0], 6.0f);
  EXPECT_EQ(g[1], 7.0f);
  const Tensor none = t.SharedRows(5, 0);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.shape(), (Shape{0, 3}));
  EXPECT_DEATH(t.SharedRows(4, 2), "rows");
}

TEST(TensorViewTest, WritingToAViewDetachesIt) {
  const Tensor t = Tensor::Iota({4, 3});
  Tensor v = t.SharedRows(1, 2);
  v[0] = -1.0f;  // non-const access takes a private copy first
  EXPECT_FALSE(v.SharesBufferWith(t));
  EXPECT_EQ(t[3], 3.0f);
  const Tensor& cv = v;
  EXPECT_EQ(cv[0], -1.0f);
  for (int64_t i = 1; i < 6; ++i) EXPECT_EQ(cv[i], static_cast<float>(3 + i));
  // A view left as the buffer's only holder writes in place.
  Tensor sole = Tensor::Iota({4, 3}).SharedRows(2, 2);
  const float* before = static_cast<const Tensor&>(sole).data();
  sole.at({1, 2}) = 0.5f;
  EXPECT_EQ(sole.data(), before);
  EXPECT_EQ(sole[5], 0.5f);
}

TEST(TensorViewTest, WritingToASourceLeavesItsViewsUnchanged) {
  Tensor t = Tensor::Iota({4, 3});
  const Tensor v = t.SharedRows(2, 2);
  const Tensor r = t.SharedRows(0, 4);
  t.AddInPlace(Tensor::Full({4, 3}, 100.0f));
  EXPECT_FALSE(t.SharesBufferWith(v));
  EXPECT_FALSE(t.SharesBufferWith(r));
  EXPECT_TRUE(v.SharesBufferWith(r));  // the old buffer, now theirs
  EXPECT_EQ(t[6], 106.0f);
  EXPECT_EQ(v[0], 6.0f);
  EXPECT_EQ(r[6], 6.0f);
}

TEST(TensorViewTest, AViewOutlivesItsSource) {
  Tensor v;
  {
    const Tensor t = Tensor::Iota({3, 4});
    v = t.SharedRows(1, 2);
  }
  const Tensor& cv = v;
  for (int64_t i = 0; i < 8; ++i) EXPECT_EQ(cv[i], static_cast<float>(4 + i));
}

TEST(TensorViewTest, ACopyOfAViewIsDeep) {
  const Tensor t = Tensor::Iota({4, 2});
  const Tensor v = t.SharedRows(1, 2);
  const Tensor copy = v;
  EXPECT_FALSE(copy.SharesBufferWith(t));
  EXPECT_EQ(MaxAbsDiff(copy, v), 0.0f);
  Tensor assigned = Tensor::Zeros({1});
  assigned = v;
  EXPECT_FALSE(assigned.SharesBufferWith(t));
  EXPECT_EQ(assigned.shape(), (Shape{2, 2}));
  EXPECT_EQ(MaxAbsDiff(assigned, v), 0.0f);
  // Assigning a view of one's own buffer keeps the values.
  Tensor self = Tensor::Iota({4, 2});
  self = self.SharedRows(2, 2);
  EXPECT_EQ(self.shape(), (Shape{2, 2}));
  EXPECT_EQ(self[0], 4.0f);
  EXPECT_EQ(self[3], 7.0f);
}

TEST(TensorTest, SliceMiddleDim) {
  Tensor t = Tensor::Iota({2, 4, 3});
  Tensor s = t.Slice(1, 1, 2);
  EXPECT_EQ(s.shape(), (Shape{2, 2, 3}));
  EXPECT_EQ(s.at({0, 0, 0}), t.at({0, 1, 0}));
  EXPECT_EQ(s.at({1, 1, 2}), t.at({1, 2, 2}));
}

TEST(TensorTest, ChunkConcatRoundtrip) {
  Rng rng(7);
  Tensor t = Tensor::Gaussian({4, 6, 8}, rng);
  for (int64_t dim = 0; dim < 3; ++dim) {
    int64_t parts = t.dim(dim) / 2;
    std::vector<Tensor> chunks;
    for (int64_t i = 0; i < parts; ++i) chunks.push_back(t.Chunk(dim, parts, i));
    Tensor back = Tensor::Concat(dim, chunks);
    EXPECT_EQ(MaxAbsDiff(t, back), 0.0f) << "dim " << dim;
  }
}

TEST(TensorTest, ConcatMismatchedOtherDimsWouldBeCaught) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{2, 3});
  Tensor c = Tensor::Concat(0, {a, b});
  EXPECT_EQ(c.shape(), (Shape{4, 3}));
}

TEST(TensorTest, Transpose2DInverts) {
  Rng rng(11);
  Tensor t = Tensor::Gaussian({3, 5}, rng);
  Tensor tt = t.Transpose2D().Transpose2D();
  EXPECT_EQ(MaxAbsDiff(t, tt), 0.0f);
  EXPECT_EQ(t.Transpose2D().at({4, 2}), t.at({2, 4}));
}

TEST(TensorTest, Transpose2DBatched) {
  Tensor t = Tensor::Iota({2, 3, 4});
  Tensor tt = t.Transpose2D();
  EXPECT_EQ(tt.shape(), (Shape{2, 4, 3}));
  EXPECT_EQ(tt.at({1, 3, 2}), t.at({1, 2, 3}));
}

TEST(TensorTest, ElementwiseArithmetic) {
  Tensor a = Tensor::Full({2, 2}, 2.0f);
  Tensor b = Tensor::Full({2, 2}, 3.0f);
  EXPECT_EQ(a.Add(b)[0], 5.0f);
  EXPECT_EQ(a.Sub(b)[0], -1.0f);
  EXPECT_EQ(a.Mul(b)[0], 6.0f);
  EXPECT_EQ(a.Scale(0.5f)[0], 1.0f);
  Tensor c = a;
  c.AddInPlace(b);
  EXPECT_EQ(c[3], 5.0f);
}

TEST(TensorTest, MaxAbsAndSum) {
  Tensor t({3});
  t[0] = -4.0f;
  t[1] = 2.0f;
  t[2] = 1.0f;
  EXPECT_EQ(t.MaxAbs(), 4.0f);
  EXPECT_DOUBLE_EQ(t.SumDouble(), -1.0);
}

TEST(TensorTest, AllCloseRespectsTolerance) {
  Tensor a = Tensor::Full({4}, 1.0f);
  Tensor b = Tensor::Full({4}, 1.0f + 1e-6f);
  EXPECT_TRUE(AllClose(a, b));
  Tensor c = Tensor::Full({4}, 1.1f);
  EXPECT_FALSE(AllClose(a, c));
  EXPECT_FALSE(AllClose(a, Tensor::Full({5}, 1.0f)));
}

// Reference O(n^3) matmul for validation.
Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c(Shape{m, n});
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (int64_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(a.at({i, kk})) * b.at({kk, j});
      c.at({i, j}) = static_cast<float>(acc);
    }
  return c;
}

struct MatMulShape {
  int64_t m, k, n;
};

class MatMulParamTest : public ::testing::TestWithParam<MatMulShape> {};

TEST_P(MatMulParamTest, MatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 10007 + k * 101 + n));
  Tensor a = Tensor::Gaussian({m, k}, rng);
  Tensor b = Tensor::Gaussian({k, n}, rng);
  Tensor got = MatMul(a, b);
  Tensor want = NaiveMatMul(a, b);
  EXPECT_LT(MaxAbsDiff(got, want), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulParamTest,
                         ::testing::Values(MatMulShape{1, 1, 1},
                                           MatMulShape{1, 8, 5},
                                           MatMulShape{4, 4, 4},
                                           MatMulShape{7, 3, 9},
                                           MatMulShape{16, 32, 8},
                                           MatMulShape{33, 17, 29}));

TEST(MatMulTest, HigherRankLhsTreatsLeadingAsBatch) {
  Rng rng(3);
  Tensor a = Tensor::Gaussian({2, 3, 4}, rng);
  Tensor b = Tensor::Gaussian({4, 5}, rng);
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 3, 5}));
  Tensor flat = MatMul(a.Reshape({6, 4}), b);
  EXPECT_EQ(MaxAbsDiff(c.Reshape({6, 5}), flat), 0.0f);
}

TEST(MatMulTest, IdentityIsNoop) {
  Rng rng(5);
  Tensor a = Tensor::Gaussian({6, 6}, rng);
  Tensor eye(Shape{6, 6});
  for (int64_t i = 0; i < 6; ++i) eye.at({i, i}) = 1.0f;
  EXPECT_LT(MaxAbsDiff(MatMul(a, eye), a), 1e-6f);
}

TEST(MatMulTest, DistributesOverAddition) {
  Rng rng(9);
  Tensor a = Tensor::Gaussian({4, 8}, rng);
  Tensor b1 = Tensor::Gaussian({8, 4}, rng);
  Tensor b2 = Tensor::Gaussian({8, 4}, rng);
  Tensor lhs = MatMul(a, b1.Add(b2));
  Tensor rhs = MatMul(a, b1).Add(MatMul(a, b2));
  EXPECT_LT(MaxAbsDiff(lhs, rhs), 1e-4f);
}

// Sharded-contraction property: summing partial products over K-chunks
// equals the full matmul. This is the numerical foundation of every
// weight-stationary layout in the engine.
TEST(MatMulTest, ChunkedContractionSumsToWhole) {
  Rng rng(13);
  Tensor a = Tensor::Gaussian({5, 12}, rng);
  Tensor b = Tensor::Gaussian({12, 7}, rng);
  Tensor whole = MatMul(a, b);
  for (int64_t parts : {2, 3, 4}) {
    Tensor acc(Shape{5, 7});
    for (int64_t p = 0; p < parts; ++p) {
      acc.AddInPlace(MatMul(a.Chunk(1, parts, p), b.Chunk(0, parts, p)));
    }
    EXPECT_LT(MaxAbsDiff(acc, whole), 1e-4f) << parts << " chunks";
  }
}

// Output-sharding property: concatenating column-shard products equals the
// full matmul (the basis of F-sharded input projections).
TEST(MatMulTest, ColumnShardsConcatToWhole) {
  Rng rng(17);
  Tensor a = Tensor::Gaussian({5, 6}, rng);
  Tensor b = Tensor::Gaussian({6, 12}, rng);
  Tensor whole = MatMul(a, b);
  for (int64_t parts : {2, 3, 4}) {
    std::vector<Tensor> cols;
    for (int64_t p = 0; p < parts; ++p) cols.push_back(MatMul(a, b.Chunk(1, parts, p)));
    EXPECT_LT(MaxAbsDiff(Tensor::Concat(1, cols), whole), 1e-5f);
  }
}

TEST(BatchMatMulTest, MatchesPerBatchMatMul) {
  Rng rng(21);
  Tensor a = Tensor::Gaussian({3, 4, 5}, rng);
  Tensor b = Tensor::Gaussian({3, 5, 6}, rng);
  Tensor c = BatchMatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{3, 4, 6}));
  for (int64_t i = 0; i < 3; ++i) {
    Tensor ai = a.Chunk(0, 3, i).Reshape({4, 5});
    Tensor bi = b.Chunk(0, 3, i).Reshape({5, 6});
    Tensor ci = c.Chunk(0, 3, i).Reshape({4, 6});
    EXPECT_LT(MaxAbsDiff(ci, MatMul(ai, bi)), 1e-5f);
  }
}

TEST(RngTest, DeterministicStreams) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DeriveSeedSeparatesStreams) {
  uint64_t s1 = Rng::DeriveSeed(1, 10);
  uint64_t s2 = Rng::DeriveSeed(1, 11);
  EXPECT_NE(s1, s2);
  EXPECT_NE(Rng::DeriveSeed(2, 10), s1);
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextUniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(123);
  double sum = 0, sumsq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

// FillGaussian is the batched form of NextGaussian: from a fresh state or
// one holding a cached half-pair, n values equal n calls (cast to float and
// scaled), across the kernel's 256-pair block edges, and the generator is
// left where those calls leave it -- state and cached half alike.
TEST(RngTest, FillGaussianMatchesNextGaussian) {
  for (bool half_pair : {false, true}) {
    for (int64_t n : {0, 1, 2, 3, 255, 256, 257, 513}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " half_pair=" << half_pair);
      Rng fill(31), step(31);
      if (half_pair) {
        EXPECT_EQ(fill.NextGaussian(), step.NextGaussian());
      }
      std::vector<float> got(static_cast<size_t>(n));
      fill.FillGaussian(got.data(), n, 0.5f);
      for (int64_t i = 0; i < n; ++i)
        ASSERT_EQ(got[static_cast<size_t>(i)],
                  static_cast<float>(step.NextGaussian()) * 0.5f)
            << "i=" << i;
      EXPECT_EQ(fill.NextU64(), step.NextU64());
      EXPECT_EQ(fill.NextGaussian(), step.NextGaussian());
      EXPECT_EQ(fill.NextGaussian(), step.NextGaussian());
    }
  }
}

}  // namespace
}  // namespace tsi
