#include "tensor/tensor.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "util/logging.h"

namespace tsi {

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    TSI_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) os << (i ? "," : "") << shape[i];
  os << "]";
  return os.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(NumElements(shape_)), 0.0f) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  TSI_CHECK_EQ(NumElements(shape_), static_cast<int64_t>(data_.size()));
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = value;
  return t;
}

Tensor Tensor::Gaussian(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  rng.FillGaussian(t.data(), t.numel(), stddev);
  return t;
}

Tensor Tensor::Iota(Shape shape) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) t.data_[static_cast<size_t>(i)] = static_cast<float>(i);
  return t;
}

int64_t Tensor::dim(int64_t i) const {
  if (i < 0) i += rank();
  TSI_CHECK(i >= 0 && i < rank()) << "dim " << i << " of " << ShapeToString(shape_);
  return shape_[static_cast<size_t>(i)];
}

int64_t Tensor::FlattenIndex(std::initializer_list<int64_t> idx) const {
  TSI_CHECK_EQ(static_cast<int64_t>(idx.size()), rank());
  int64_t flat = 0;
  size_t d = 0;
  for (int64_t i : idx) {
    TSI_CHECK(i >= 0 && i < shape_[d]) << "index " << i << " out of bounds for dim " << d;
    flat = flat * shape_[d] + i;
    ++d;
  }
  return flat;
}

float& Tensor::at(std::initializer_list<int64_t> idx) {
  return data_[static_cast<size_t>(FlattenIndex(idx))];
}

float Tensor::at(std::initializer_list<int64_t> idx) const {
  return data_[static_cast<size_t>(FlattenIndex(idx))];
}

Tensor Tensor::Reshape(Shape new_shape) const {
  TSI_CHECK_EQ(NumElements(new_shape), numel())
      << ShapeToString(shape_) << " -> " << ShapeToString(new_shape);
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.data_ = data_;
  return t;
}

Tensor Tensor::Slice(int64_t dim, int64_t start, int64_t len) const {
  if (dim < 0) dim += rank();
  TSI_CHECK(dim >= 0 && dim < rank());
  TSI_CHECK(start >= 0 && len >= 0 && start + len <= shape_[static_cast<size_t>(dim)])
      << "slice [" << start << "," << start + len << ") of dim size "
      << shape_[static_cast<size_t>(dim)];

  // View the tensor as [outer, D, inner] and copy the middle band.
  int64_t outer = 1, inner = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= shape_[static_cast<size_t>(i)];
  for (int64_t i = dim + 1; i < rank(); ++i) inner *= shape_[static_cast<size_t>(i)];
  int64_t d = shape_[static_cast<size_t>(dim)];

  Shape out_shape = shape_;
  out_shape[static_cast<size_t>(dim)] = len;
  Tensor out(out_shape);
  for (int64_t o = 0; o < outer; ++o) {
    const float* src = data_.data() + (o * d + start) * inner;
    float* dst = out.data_.data() + o * len * inner;
    std::memcpy(dst, src, static_cast<size_t>(len * inner) * sizeof(float));
  }
  return out;
}

Tensor Tensor::Chunk(int64_t dim, int64_t num, int64_t index) const {
  if (dim < 0) dim += rank();
  TSI_CHECK(num > 0 && index >= 0 && index < num);
  int64_t d = shape_[static_cast<size_t>(dim)];
  TSI_CHECK_EQ(d % num, 0) << "dim " << d << " not divisible into " << num << " chunks";
  int64_t len = d / num;
  return Slice(dim, index * len, len);
}

Tensor Tensor::Concat(int64_t dim, const std::vector<Tensor>& parts) {
  TSI_CHECK(!parts.empty());
  int64_t rank = parts[0].rank();
  if (dim < 0) dim += rank;
  TSI_CHECK(dim >= 0 && dim < rank);

  Shape out_shape = parts[0].shape_;
  int64_t total = 0;
  for (const auto& p : parts) {
    TSI_CHECK_EQ(p.rank(), rank);
    for (int64_t i = 0; i < rank; ++i) {
      if (i != dim) {
        TSI_CHECK_EQ(p.shape_[static_cast<size_t>(i)], out_shape[static_cast<size_t>(i)])
            << "concat shape mismatch on dim " << i;
      }
    }
    total += p.shape_[static_cast<size_t>(dim)];
  }
  out_shape[static_cast<size_t>(dim)] = total;

  int64_t outer = 1, inner = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= out_shape[static_cast<size_t>(i)];
  for (int64_t i = dim + 1; i < rank; ++i) inner *= out_shape[static_cast<size_t>(i)];

  Tensor out(out_shape);
  int64_t offset = 0;  // running offset along `dim`
  for (const auto& p : parts) {
    int64_t d = p.shape_[static_cast<size_t>(dim)];
    for (int64_t o = 0; o < outer; ++o) {
      const float* src = p.data_.data() + o * d * inner;
      float* dst = out.data_.data() + (o * total + offset) * inner;
      std::memcpy(dst, src, static_cast<size_t>(d * inner) * sizeof(float));
    }
    offset += d;
  }
  return out;
}

Tensor Tensor::Transpose2D() const {
  TSI_CHECK_GE(rank(), 2);
  int64_t m = dim(-2), n = dim(-1);
  int64_t batch = numel() / (m * n);
  Shape out_shape = shape_;
  std::swap(out_shape[static_cast<size_t>(rank() - 2)], out_shape[static_cast<size_t>(rank() - 1)]);
  Tensor out(out_shape);
  for (int64_t b = 0; b < batch; ++b) {
    const float* src = data_.data() + b * m * n;
    float* dst = out.data_.data() + b * m * n;
    for (int64_t i = 0; i < m; ++i)
      for (int64_t j = 0; j < n; ++j) dst[j * m + i] = src[i * n + j];
  }
  return out;
}

Tensor Tensor::Add(const Tensor& other) const {
  TSI_CHECK(SameShape(other)) << ShapeToString(shape_) << " vs " << ShapeToString(other.shape_);
  Tensor out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] += other.data_[i];
  return out;
}

Tensor Tensor::Sub(const Tensor& other) const {
  TSI_CHECK(SameShape(other));
  Tensor out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] -= other.data_[i];
  return out;
}

Tensor Tensor::Mul(const Tensor& other) const {
  TSI_CHECK(SameShape(other));
  Tensor out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] *= other.data_[i];
  return out;
}

Tensor Tensor::Scale(float s) const {
  Tensor out = *this;
  for (auto& v : out.data_) v *= s;
  return out;
}

void Tensor::AddInPlace(const Tensor& other) {
  TSI_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

float Tensor::MaxAbs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

double Tensor::SumDouble() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return s;
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  TSI_CHECK(a.SameShape(b)) << ShapeToString(a.shape()) << " vs " << ShapeToString(b.shape());
  float m = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

bool AllClose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (!a.SameShape(b)) return false;
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (std::fabs(a[i] - b[i]) > atol + rtol * std::fabs(b[i])) return false;
  }
  return true;
}

// MatMul / BatchMatMul and the fused epilogues live in matmul.cc (the
// blocked, pool-parallel kernel layer).

}  // namespace tsi
