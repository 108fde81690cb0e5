#include "util/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace tsi {
namespace {

// This file is compiled with -fno-math-errno (so std::sqrt, exact under
// IEEE 754, becomes one vectorizable instruction), -fno-trapping-math (so
// the compiler may evaluate both sides of a select and blend them instead
// of branching) and -ffp-contract=off (so no compiler fuses a multiply and
// an add into one rounding); none of them changes a value. See
// src/CMakeLists.txt and docs/kernels.md.

constexpr uint64_t kGamma = 0x9E3779B97F4A7C15ull;  // SplitMix64's increment

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// (z >> 11) * 2^-53, i.e. NextDouble() of the draw z, exactly. The 53-bit
// integer is assembled from two halves placed into double mantissas
// (2^84 + hi * 2^32 and 2^52 + lo), because an int64-to-double conversion
// does not vectorize below AVX-512.
double UnitDouble(uint64_t z) {
  const uint64_t m = z >> 11;
  const double hi =
      std::bit_cast<double>(0x4530000000000000ull | (m >> 32)) - 0x1.00000001p84;
  const double lo = std::bit_cast<double>(0x4330000000000000ull | (m & 0xffffffffull));
  return (hi + lo) * 0x1.0p-53;
}

// fdlibm's constants (e_log.c, e_rem_pio2.c, k_sin.c, k_cos.c), written as
// their exact bit patterns.
constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kLg1 = 0x1.5555555555593p-1;
constexpr double kLg2 = 0x1.999999997fa04p-2;
constexpr double kLg3 = 0x1.2492494229359p-2;
constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
constexpr double kLg5 = 0x1.7466496cb03dep-3;
constexpr double kLg6 = 0x1.39a09d078c69fp-3;
constexpr double kLg7 = 0x1.2f112df3e5244p-3;
constexpr double kInvPio2 = 0x1.45f306dc9c883p-1;
constexpr double kPio2_1 = 0x1.921fb54400000p+0;   // first 33 bits of pi/2
constexpr double kPio2_2 = 0x1.0b4611a600000p-34;  // next 33 bits
constexpr double kPio2_2t = 0x1.3198a2e037073p-69;  // pi/2 - pio2_1 - pio2_2
constexpr double kS1 = -0x1.5555555555549p-3;
constexpr double kS2 = 0x1.111111110f8a6p-7;
constexpr double kS3 = -0x1.a01a019c161d5p-13;
constexpr double kS4 = 0x1.71de357b1fe7dp-19;
constexpr double kS5 = -0x1.ae5e68a2b9cebp-26;
constexpr double kS6 = 0x1.5d93a5acfd57cp-33;
constexpr double kC1 = 0x1.555555555554cp-5;
constexpr double kC2 = -0x1.6c16c16c15177p-10;
constexpr double kC3 = 0x1.a01a019cb1590p-16;
constexpr double kC4 = -0x1.27e4f809c52adp-22;
constexpr double kC5 = 0x1.1ee9ebdb4b1c4p-29;
constexpr double kC6 = -0x1.8fae9be8838d4p-37;
constexpr double kRoundShift = 0x1.8p52;  // x + 1.5*2^52 - 1.5*2^52 = rint(x)

constexpr int64_t kBlock = 256;  // pairs per pass of GaussianPairs

// Box-Muller for `n` <= kBlock consecutive pairs starting at SplitMix64
// state `state`: pair p's u1 comes from draw 2p+1 and u2 from draw 2p+2,
// both computed directly since the state after k draws is state + k*gamma.
// Writes r*cos(theta) to zc[p] and r*sin(theta) to zs[p], with
// r = sqrt(-2 log u1), theta = 2*pi*u2 and u1 = 1 - NextDouble() in (0, 1].
// No libm call and no branch: every lane runs the same instructions.
void GaussianPairs(uint64_t state, int64_t n, double* zc, double* zs) {
  double x[kBlock], dk[kBlock], u2[kBlock];
  // u1 = 2^k * x with x in [sqrt(2)/2, sqrt(2)), fdlibm's log reduction done
  // on the bits: a mantissa at or above sqrt(2)'s is halved and k bumped.
  for (int64_t p = 0; p < n; ++p) {
    const uint64_t s = state + static_cast<uint64_t>(2 * p + 1) * kGamma;
    const auto b = std::bit_cast<uint64_t>(1.0 - UnitDouble(Mix(s)));
    u2[p] = UnitDouble(Mix(s + kGamma));
    const uint64_t hx = (b >> 32) & 0xfffff;
    const uint64_t i = (hx + 0x95f64) & 0x100000;
    x[p] = std::bit_cast<double>((b & 0x000fffffffffffffull) |
                                 ((i ^ 0x3ff00000ull) << 32));
    // k = exponent - 1023 + (i >> 20) as a double, again through a mantissa.
    dk[p] = std::bit_cast<double>(0x4330000000000000ull | ((b >> 52) + (i >> 20))) -
            (0x1p52 + 1023);
  }
  for (int64_t p = 0; p < n; ++p) {
    // fdlibm __ieee754_log(u1), its three cases evaluated and selected. The
    // case bounds are its high-word tests restated on f, which is exact.
    const double f = x[p] - 1.0;
    const double k = dk[p];
    const double s = f / (2.0 + f);
    const double z = s * s;
    const double w = z * z;
    const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
    const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
    const double R = t2 + t1;
    const double hfsq = 0.5 * f * f;
    const double r_tiny = f * f * (0.5 - 0.33333333333333333 * f);
    const double tail_tiny = (r_tiny - k * kLn2Lo) - f;
    const double tail_hfsq = (hfsq - (s * (hfsq + R) + k * kLn2Lo)) - f;
    const double tail_plain = (s * (f - R) - k * kLn2Lo) - f;
    const bool tiny = (f >= -0x1p-20) & (f < 0x1p-20);
    // hx in [0x6147a, 0x6b851]: f >= 0x6147a/2^20, or a halved mantissa
    // below (1 + 0x6b852/2^20) / 2.
    const bool use_hfsq = (f >= 0x6147ap-20) | (f < 0x16b852p-21 - 1.0);
    const double tail_wide = use_hfsq ? tail_hfsq : tail_plain;
    const double log_u1 = k * kLn2Hi - (tiny ? tail_tiny : tail_wide);
    const double r = std::sqrt(-2.0 * log_u1);

    // fdlibm __ieee754_rem_pio2(theta): theta = fn * pi/2 + (y0 + y1), with
    // fn = rint(theta * 2/pi) in {0..4} and the two-step Cody-Waite split of
    // pi/2 (33 + 33 + 53 bits) always applied.
    const double theta = 2.0 * M_PI * u2[p];
    const double fn = (theta * kInvPio2 + kRoundShift) - kRoundShift;
    const double r0 = theta - fn * kPio2_1;  // exact
    double v = fn * kPio2_2;
    const double r1 = r0 - v;
    v = fn * kPio2_2t - ((r0 - r1) - v);
    const double y0 = r1 - v;
    const double y1 = (r1 - y0) - v;

    // fdlibm __kernel_sin(y0, y1, 1) and __kernel_cos(y0, y1).
    const double yy = y0 * y0;
    const double y3 = yy * y0;
    const double sr = kS2 + yy * (kS3 + yy * (kS4 + yy * (kS5 + yy * kS6)));
    const double sn = y0 - ((yy * (0.5 * y1 - y3 * sr) - y1) - y3 * kS1);
    const double cr =
        yy * (kC1 + yy * (kC2 + yy * (kC3 + yy * (kC4 + yy * (kC5 + yy * kC6)))));
    const double hz = 0.5 * yy;
    const double one_hz = 1.0 - hz;
    const double cs = one_hz + (((1.0 - one_hz) - hz) + (yy * cr - y0 * y1));

    // Quadrant fn mod 4 (fn == 4 is quadrant 0): odd quadrants swap sin
    // and cos; quadrants 2, 3 negate sin, quadrants 1, 2 negate cos.
    const bool odd = (fn == 1.0) | (fn == 3.0);
    const double sin_y = odd ? cs : sn;
    const double cos_y = odd ? sn : cs;
    const double sin_t = (fn == 2.0) | (fn == 3.0) ? -sin_y : sin_y;
    const double cos_t = (fn == 1.0) | (fn == 2.0) ? -cos_y : cos_y;
    zc[p] = r * cos_t;
    zs[p] = r * sin_t;
  }
}

}  // namespace

uint64_t Rng::NextU64() { return Mix(state_ += kGamma); }

double Rng::NextDouble() {
  // 53 random bits into [0,1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double zc;
  GaussianPairs(state_, 1, &zc, &cached_gaussian_);
  state_ += 2 * kGamma;
  has_cached_gaussian_ = true;
  return zc;
}

void Rng::FillGaussian(float* out, int64_t n, float stddev) {
  int64_t i = 0;
  if (n > 0 && has_cached_gaussian_) {
    out[i++] = static_cast<float>(cached_gaussian_) * stddev;
    has_cached_gaussian_ = false;
  }
  double zc[kBlock], zs[kBlock];
  while (i < n) {
    const int64_t pairs = std::min(kBlock, (n - i + 1) / 2);
    GaussianPairs(state_, pairs, zc, zs);
    state_ += static_cast<uint64_t>(2 * pairs) * kGamma;
    const int64_t whole = std::min(pairs, (n - i) / 2);
    float* o = out + i;
    for (int64_t p = 0; p < whole; ++p) {
      o[2 * p] = static_cast<float>(zc[p]) * stddev;
      o[2 * p + 1] = static_cast<float>(zs[p]) * stddev;
    }
    i += 2 * whole;
    if (whole < pairs) {  // odd count: the last pair's sine stays cached
      out[i++] = static_cast<float>(zc[whole]) * stddev;
      cached_gaussian_ = zs[whole];
      has_cached_gaussian_ = true;
    }
  }
}

uint64_t Rng::NextBelow(uint64_t n) {
  // Rejection-free (slightly biased for huge n; fine for our use).
  return n == 0 ? 0 : NextU64() % n;
}

uint64_t Rng::DeriveSeed(uint64_t root, uint64_t tag) {
  // One SplitMix64 scramble of (root ^ rotated tag).
  return Mix(root ^ (tag * 0xD1B54A32D192ED03ull + 0x2545F4914F6CDD1Dull));
}

}  // namespace tsi
