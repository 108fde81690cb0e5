#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <new>
#include <sstream>
#include <utility>

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

Tensor::Buffer* Tensor::Allocate(int64_t n) {
  void* mem = ::operator new(sizeof(Buffer) +
                             static_cast<size_t>(n) * sizeof(float));
  Buffer* b = new (mem) Buffer;
  b->refs.store(1, std::memory_order_relaxed);
  b->capacity = n;
  return b;
}

void Tensor::Release() {
  if (buf_ == nullptr) return;
  // A sole holder frees without the atomic decrement: no other tensor can
  // take a reference to a buffer only this one reaches.
  if (buf_->refs.load(std::memory_order_acquire) == 1 ||
      buf_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    buf_->~Buffer();
    ::operator delete(buf_);
  }
  buf_ = nullptr;
}

void Tensor::Unshare() {
  Buffer* own = Allocate(numel_);
  std::copy_n(elements(), numel_, own->floats());
  Release();
  buf_ = own;
  offset_ = 0;
}

void Tensor::ShareFrom(const Tensor& other, int64_t offset, int64_t numel) {
  numel_ = numel;
  if (numel == 0) return;
  buf_ = other.buf_;
  buf_->refs.fetch_add(1, std::memory_order_relaxed);
  offset_ = other.offset_ + offset;
}

Tensor Tensor::Uninitialized(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.numel_ = NumElements(t.shape_);
  if (t.numel_ > 0) t.buf_ = Allocate(t.numel_);
  return t;
}

Tensor::Tensor(Shape shape) : Tensor(Uninitialized(std::move(shape))) {
  std::fill_n(elements(), numel_, 0.0f);
}

Tensor::Tensor(Shape shape, const std::vector<float>& data)
    : Tensor(Uninitialized(std::move(shape))) {
  TSI_CHECK_EQ(numel_, static_cast<int64_t>(data.size()));
  std::copy_n(data.data(), numel_, elements());
}

// A default-constructed tensor has shape {} and no elements, so the copy
// sizes by numel_, not by the shape.
Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_), numel_(other.numel_) {
  if (numel_ > 0) buf_ = Allocate(numel_);
  std::copy_n(other.elements(), numel_, elements());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  shape_ = other.shape_;
  // Reuse a buffer of our own that is large enough, as a vector would. A
  // buffer only this tensor holds cannot hold `other`'s elements too: a
  // view of it would be a second holder.
  if (buf_ == nullptr || buf_->refs.load(std::memory_order_acquire) != 1 ||
      buf_->capacity < other.numel_) {
    Release();
    if (other.numel_ > 0) buf_ = Allocate(other.numel_);
  }
  offset_ = 0;
  numel_ = other.numel_;
  if (numel_ > 0) std::copy_n(other.elements(), numel_, buf_->floats());
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(std::move(other.shape_)),
      buf_(std::exchange(other.buf_, nullptr)),
      offset_(std::exchange(other.offset_, 0)),
      numel_(std::exchange(other.numel_, 0)) {}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  Release();
  shape_ = std::move(other.shape_);
  buf_ = std::exchange(other.buf_, nullptr);
  offset_ = std::exchange(other.offset_, 0);
  numel_ = std::exchange(other.numel_, 0);
  return *this;
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t = Uninitialized(std::move(shape));
  std::fill_n(t.elements(), t.numel_, value);
  return t;
}

Tensor Tensor::Gaussian(Shape shape, Rng& rng, float stddev) {
  Tensor t = Uninitialized(std::move(shape));
  rng.FillGaussian(t.data(), t.numel(), stddev);
  return t;
}

Tensor Tensor::Iota(Shape shape) {
  Tensor t = Uninitialized(std::move(shape));
  float* d = t.elements();
  for (int64_t i = 0; i < t.numel(); ++i) d[i] = static_cast<float>(i);
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
  return data()[FlattenIndex(idx)];
}

float Tensor::at(std::initializer_list<int64_t> idx) const {
  return elements()[FlattenIndex(idx)];
}

Tensor Tensor::Reshape(Shape new_shape) const {
  TSI_CHECK_EQ(NumElements(new_shape), numel())
      << ShapeToString(shape_) << " -> " << ShapeToString(new_shape);
  Tensor t = *this;
  t.shape_ = std::move(new_shape);
  return t;
}

Tensor Tensor::SharedRows(int64_t r0, int64_t n) const {
  TSI_CHECK_GE(rank(), 1);
  TSI_CHECK(r0 >= 0 && n >= 0 && r0 + n <= shape_[0])
      << "rows [" << r0 << "," << r0 + n << ") of " << ShapeToString(shape_);
  const int64_t row = shape_[0] == 0 ? 0 : numel_ / shape_[0];
  Tensor t;
  t.shape_ = shape_;
  t.shape_[0] = n;
  t.ShareFrom(*this, r0 * row, n * row);
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
  Tensor out = Uninitialized(out_shape);
  for (int64_t o = 0; o < outer; ++o) {
    const float* src = elements() + (o * d + start) * inner;
    float* dst = out.elements() + o * len * inner;
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

  Tensor out = Uninitialized(out_shape);
  int64_t offset = 0;  // running offset along `dim`
  for (const auto& p : parts) {
    int64_t d = p.shape_[static_cast<size_t>(dim)];
    for (int64_t o = 0; o < outer; ++o) {
      const float* src = p.elements() + o * d * inner;
      float* dst = out.elements() + (o * total + offset) * inner;
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
  Tensor out = Uninitialized(out_shape);
  for (int64_t b = 0; b < batch; ++b) {
    const float* src = elements() + b * m * n;
    float* dst = out.elements() + b * m * n;
    for (int64_t i = 0; i < m; ++i)
      for (int64_t j = 0; j < n; ++j) dst[j * m + i] = src[i * n + j];
  }
  return out;
}

namespace {

// out[i] = op(out[i], b[i]) over numel elements.
template <typename Op>
void Zip(float* out, const float* b, int64_t numel, Op op) {
  for (int64_t i = 0; i < numel; ++i) out[i] = op(out[i], b[i]);
}

}  // namespace

Tensor Tensor::Add(const Tensor& other) const {
  TSI_CHECK(SameShape(other)) << ShapeToString(shape_) << " vs " << ShapeToString(other.shape_);
  Tensor out = *this;
  Zip(out.elements(), other.elements(), numel_, [](float a, float b) { return a + b; });
  return out;
}

Tensor Tensor::Sub(const Tensor& other) const {
  TSI_CHECK(SameShape(other));
  Tensor out = *this;
  Zip(out.elements(), other.elements(), numel_, [](float a, float b) { return a - b; });
  return out;
}

Tensor Tensor::Mul(const Tensor& other) const {
  TSI_CHECK(SameShape(other));
  Tensor out = *this;
  Zip(out.elements(), other.elements(), numel_, [](float a, float b) { return a * b; });
  return out;
}

Tensor Tensor::Scale(float s) const {
  Tensor out = *this;
  float* d = out.elements();
  for (int64_t i = 0; i < numel_; ++i) d[i] *= s;
  return out;
}

void Tensor::AddInPlace(const Tensor& other) {
  TSI_CHECK(SameShape(other));
  Zip(data(), other.elements(), numel_, [](float a, float b) { return a + b; });
}

float Tensor::MaxAbs() const {
  float m = 0.0f;
  const float* d = elements();
  for (int64_t i = 0; i < numel_; ++i) m = std::max(m, std::fabs(d[i]));
  return m;
}

double Tensor::SumDouble() const {
  double s = 0.0;
  const float* d = elements();
  for (int64_t i = 0; i < numel_; ++i) s += d[i];
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
