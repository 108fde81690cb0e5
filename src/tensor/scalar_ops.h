// Scalar activation kernels shared by the elementwise ops (tensor/ops.cc)
// and the fused matmul epilogues (tensor/matmul.cc).
//
// Everything here is single-precision and single-pass: one transcendental
// per element, computed with exp2f per §3.5's base-2 trick where a base-e
// form would otherwise be used. Keeping these in one header guarantees the
// fused epilogues are bit-identical to the unfused op compositions
// (asserted by determinism_test).
#pragma once

#include <cmath>

namespace tsi {

inline constexpr float kLog2Ef = 1.4426950408889634f;

// sigmoid(x) computed as 1 / (1 + exp2(-x * log2(e))). The float overload
// of std::exp2 keeps the whole evaluation single-precision.
inline float Sigmoid2Scalar(float x) {
  return 1.0f / (1.0f + std::exp2(-x * kLog2Ef));
}

// Swish / SiLU: x * sigmoid(x), base-2 formulation.
inline float Swish2Scalar(float x) { return x * Sigmoid2Scalar(x); }

// Base-e swish, kept for the §3.5 base-e/base-2 agreement tests.
inline float SwishScalar(float x) { return x * (1.0f / (1.0f + std::exp(-x))); }

// Gelu, tanh approximation (as used by the reference model). The cubic
// term is added with an explicit fma, the one rounding an FMA-contracting
// native build always gave it, so a portable build computes the same bits.
inline float GeluScalar(float x) {
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  float inner = kSqrt2OverPi * std::fma(0.044715f * x * x, x, x);
  return 0.5f * x * (1.0f + std::tanh(inner));
}

}  // namespace tsi
