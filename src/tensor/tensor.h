// Dense row-major fp32 tensor.
//
// This is the numeric substrate for the functional multi-chip simulator.
// A tensor is a shape over a run of floats in a reference-counted buffer.
// A plain copy is a deep copy, and Slice/Chunk/Concat/Transpose2D copy, so
// chip-local state stays isolated (no accidental aliasing between "chips").
// Sharing is explicit and copy-on-write: SharedRows returns a tensor over
// the same buffer, and non-const access (data(), operator[], at()) to a
// buffer that another tensor still holds first takes a private copy.
// Writing to a view therefore never changes its source, nor the source its
// views, and a view keeps its buffer alive after its source is gone. A
// pointer taken from non-const access before a view was made still writes
// into the shared buffer, so take views only of tensors nobody is writing.
// Const access never touches the reference count, so threads may read one
// shared buffer through const tensors concurrently. The engine's
// weight shards use this to hold whole-row cuts of the model's weights
// without copying them (engine/sharding.h, docs/kernels.md "Weight
// storage").
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace tsi {

using Shape = std::vector<int64_t>;

int64_t NumElements(const Shape& shape);
std::string ShapeToString(const Shape& shape);

class Tensor {
 public:
  Tensor() = default;
  // Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);
  Tensor(Shape shape, const std::vector<float>& data);
  // Deep copy: the copy owns a buffer of its own.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor() { Release(); }

  static Tensor Zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor Full(Shape shape, float value);
  // I.i.d. N(0, stddev) entries drawn from `rng`.
  static Tensor Gaussian(Shape shape, Rng& rng, float stddev = 1.0f);
  // Entries 0,1,2,... (useful in layout tests: value identifies position).
  static Tensor Iota(Shape shape);

  const Shape& shape() const { return shape_; }
  int64_t rank() const { return static_cast<int64_t>(shape_.size()); }
  int64_t dim(int64_t i) const;
  int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }

  // Non-const access first detaches a shared buffer (see the file comment).
  float* data() {
    Detach();
    return elements();
  }
  const float* data() const { return elements(); }
  float& operator[](int64_t i) { return data()[i]; }
  float operator[](int64_t i) const { return elements()[i]; }

  // Multi-index access (rank must match).
  float& at(std::initializer_list<int64_t> idx);
  float at(std::initializer_list<int64_t> idx) const;

  // Returns a tensor with the same data and a new shape (numel must match).
  Tensor Reshape(Shape new_shape) const;

  // Rows [r0, r0 + n) along dim 0, sharing this tensor's buffer: no
  // element is copied. Detaches on the first non-const access while the
  // buffer is still shared.
  Tensor SharedRows(int64_t r0, int64_t n) const;
  // True iff both tensors read one buffer (a view and its source, or two
  // views of one source).
  bool SharesBufferWith(const Tensor& other) const {
    return buf_ != nullptr && buf_ == other.buf_;
  }

  // Copy of elements [start, start+len) along `dim`.
  Tensor Slice(int64_t dim, int64_t start, int64_t len) const;
  // Splits dim into `num` equal chunks and returns chunk `index`.
  Tensor Chunk(int64_t dim, int64_t num, int64_t index) const;
  // Concatenates along `dim`; all parts must agree on the other dims.
  static Tensor Concat(int64_t dim, const std::vector<Tensor>& parts);

  // Swaps the last two dims.
  Tensor Transpose2D() const;

  // Elementwise ops (shapes must match exactly).
  Tensor Add(const Tensor& other) const;
  Tensor Sub(const Tensor& other) const;
  Tensor Mul(const Tensor& other) const;
  Tensor Scale(float s) const;
  void AddInPlace(const Tensor& other);

  float MaxAbs() const;
  double SumDouble() const;

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  // The reference count, then the floats, in one allocation.
  struct Buffer {
    std::atomic<int64_t> refs;
    int64_t capacity;  // floats
    float* floats() { return reinterpret_cast<float*>(this + 1); }
  };
  static Buffer* Allocate(int64_t n);
  // A tensor whose elements the caller writes before any read.
  static Tensor Uninitialized(Shape shape);

  float* elements() const {
    return buf_ == nullptr ? nullptr : buf_->floats() + offset_;
  }
  // Takes a private copy of the elements if another tensor holds the
  // buffer. The acquire pairs with the other holders' release in Release,
  // so their reads finish before this tensor writes in place.
  void Detach() {
    if (buf_ != nullptr && buf_->refs.load(std::memory_order_acquire) != 1)
      Unshare();
  }
  void Unshare();
  void Release();
  // Points this (empty) tensor at `numel` elements of `other`'s buffer
  // from `offset`, taking a reference.
  void ShareFrom(const Tensor& other, int64_t offset, int64_t numel);
  int64_t FlattenIndex(std::initializer_list<int64_t> idx) const;

  Shape shape_;
  Buffer* buf_ = nullptr;
  int64_t offset_ = 0;  // first element, in floats from buf_->floats()
  int64_t numel_ = 0;
};

// Max |a-b| over all elements; shapes must match.
float MaxAbsDiff(const Tensor& a, const Tensor& b);
// True iff |a-b| <= atol + rtol*|b| elementwise.
bool AllClose(const Tensor& a, const Tensor& b, float rtol = 1e-4f,
              float atol = 1e-5f);

class ThreadPool;

// C = A @ B for A:[m,k], B:[k,n]. Higher-rank A treats leading dims as batch
// rows (A:[..., k] viewed as [prod(...), k]).
//
// Determinism contract (see docs/kernels.md): every output element is an
// fma(double) chain over k in ascending order, cast to float once at the
// end. The chain is independent of tiling, SIMD width, and thread count, so
// results are bit-identical across pool sizes and across the blocked and
// fallback paths (asserted by determinism_test), and sharded sums across
// layouts stay comparable within the usual float tolerances.
Tensor MatMul(const Tensor& a, const Tensor& b);
// Same, on an explicit pool (the default uses ThreadPool::Global()).
Tensor MatMul(ThreadPool& pool, const Tensor& a, const Tensor& b);

// Batched matmul: A:[batch, m, k] @ B:[batch, k, n] -> [batch, m, n].
Tensor BatchMatMul(const Tensor& a, const Tensor& b);
Tensor BatchMatMul(ThreadPool& pool, const Tensor& a, const Tensor& b);

// Fused matmul epilogues. Each is bit-identical to the unfused composition
// it replaces (same scalar kernels, applied to the same float intermediate)
// but skips the extra output traversal and temporary:
//   MatMulBias(a, b, bias)       == AddBias(MatMul(a, b), bias)
//   MatMulGelu(a, b)             == Gelu(MatMul(a, b))
//   MatMulBiasGelu(a, b, bias)   == Gelu(AddBias(MatMul(a, b), bias))
//   MatMulSwishMulGate(a, b, g)  == Swish2(MatMul(a, b)).Mul(MatMul(a, g))
Tensor MatMulBias(const Tensor& a, const Tensor& b, const Tensor& bias);
Tensor MatMulGelu(const Tensor& a, const Tensor& b);
Tensor MatMulBiasGelu(const Tensor& a, const Tensor& b, const Tensor& bias);
Tensor MatMulSwishMulGate(const Tensor& a, const Tensor& b,
                          const Tensor& b_gate);

// --- Fused prologues / residual epilogues (decode fast path) ---------------
// Per-row normalization folded into the A-operand reads of a matmul: the
// kernel consumes  float((a[i,j] - mean[i]) * inv[i]) * gain[j]  instead of
// a[i,j], replicating LayerNorm / NormalizeWithMoments' exact scalar
// sequence (tensor/ops.cc), so MatMulNormA(x, nt, w) is bit-identical to
// MatMul(<norm>(x, gain), w) without materializing the normalized tensor.
// Build the params with NormTransformFromRows / NormTransformFromMoments
// (tensor/ops.h). `gain` must stay alive for the duration of the call.
struct RowNormTransform {
  std::vector<double> mean;  // one per row of A
  std::vector<double> inv;   // 1/sqrt(var + eps), one per row of A
  const Tensor* gain = nullptr;  // per-column gain, length k
};

Tensor MatMulNormA(const Tensor& a, const RowNormTransform& norm,
                   const Tensor& b);
Tensor MatMulNormAGelu(const Tensor& a, const RowNormTransform& norm,
                       const Tensor& b);
Tensor MatMulNormASwishMulGate(const Tensor& a, const RowNormTransform& norm,
                               const Tensor& b, const Tensor& b_gate);

// Residual fusion: c += a @ b, bit-identical to c->AddInPlace(MatMul(a, b))
// (IEEE float addition, same operand order) without materializing the
// matmul output. `c` must have the matmul's output shape; `a` must not
// alias `c`.
void MatMulAccumulate(const Tensor& a, const Tensor& b, Tensor* c);

}  // namespace tsi
