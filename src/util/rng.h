// Deterministic, seedable RNG used for weight generation and sampling.
//
// We deliberately avoid <random> distributions (their outputs are not
// portable across standard libraries) and libm (log/sin/cos differ in the
// last bit between libm builds and ISA variants): the Gaussians come from a
// self-contained Box-Muller kernel (fdlibm's log and sin/cos kernels, plain
// IEEE arithmetic, rng.cc's compile flags pinned), so every platform and
// every -march produces identical streams. The distributed-vs-reference
// equivalence tests and the golden values rely on that.
#pragma once

#include <cstdint>
#include <vector>

namespace tsi {

// SplitMix64: tiny, fast, passes BigCrush when used as a stream.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t NextU64();
  // Uniform in [0, 1).
  double NextDouble();
  // Uniform in [lo, hi).
  double NextUniform(double lo, double hi);
  // Standard normal via Box-Muller (cached second value).
  double NextGaussian();
  // Writes n values equal to n calls of NextGaussian(), each cast to float
  // and scaled by `stddev`, and leaves the generator where those calls would.
  // The batched form of the same kernel, vectorized over pairs.
  void FillGaussian(float* out, int64_t n, float stddev = 1.0f);
  // Uniform integer in [0, n).
  uint64_t NextBelow(uint64_t n);

  // Derives an independent stream for a named sub-object. Used so that every
  // weight tensor has a seed that depends only on (root seed, tensor tag),
  // letting per-chip shard generation match whole-tensor generation.
  static uint64_t DeriveSeed(uint64_t root, uint64_t tag);

 private:
  uint64_t state_;
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace tsi
