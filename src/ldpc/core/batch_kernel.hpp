// Lane-batched check-node kernel: the CnUpdate scan of cn_kernel.hpp
// over L codeword frames in lockstep, mirroring the paper's hardware,
// which feeds several frames through one CNU datapath per memory word.
//
// Message storage is structure-of-arrays: position i of a check's
// inputs holds L consecutive lane values (in[i * L + l], lane l =
// frame l), so the min1/min2/argmin/sign scan runs as L independent
// per-lane recurrences over contiguous memory — the shape
// auto-vectorizers turn into SIMD min/compare/blend sequences.
//
// Everything in the per-lane state is deliberately Value-width so the
// whole scan vectorizes at one width (mixed-width lanes defeat the
// SSE/AVX vectorizer): the argmin position is carried as a Value-type
// number (exact: positions are < 64), and input signs are carried as
// full-width compare masks whose XOR accumulates the sign product —
// no per-position bit shifts. For any one lane the comparisons are
// the scalar kernel's, in the same order, so per-lane results are
// bitwise identical to CnUpdate<Datapath> on that lane's inputs; ties
// keep the first (lowest-position) argmin, like the hardware
// comparator tree.
//
// Datapaths, one per lane engine:
//   FloatDatapath   — the scalar double policy, lane-batched as is.
//   Float32Datapath — single precision, double the SIMD width of the
//                     double path; validated by BER-curve equivalence
//                     (see BatchedLayeredDecoderF32).
//   FixedI8Datapath — the fixed-point lanes: 8-bit saturating
//                     messages (int16 APP accumulator in the decoder);
//                     value-identical to the scalar int32
//                     FixedDatapath whenever the word widths fit (see
//                     the width contract on FixedI8Datapath below).
//
// This header declares the shared, portable pieces (datapath
// policies, BatchTraits, the kernel compiled at the build's baseline
// ISA). The kernel bodies themselves live in lane_kernels.inc so the
// per-ISA dispatch TUs can compile their own copies — see
// core/dispatch.hpp.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "ldpc/core/cn_kernel.hpp"

// Lane loops are trivially independent (lane l never reads lane k),
// but GCC's cost model refuses to vectorize the compare/select chains
// for narrow lane counts once it has unrolled them. `omp simd`
// overrides the cost model without changing semantics; it is active
// under -fopenmp-simd (no OpenMP runtime involved, the build adds the
// flag) and harmlessly ignored elsewhere.
#if defined(__GNUC__) || defined(__clang__)
#define CLDPC_SIMD_LOOP _Pragma("omp simd")
#else
#define CLDPC_SIMD_LOOP
#endif

namespace cldpc::ldpc::core {

/// Magnitude correction of the f32 datapath (FloatCheckRule with
/// single-precision arithmetic end to end — no double promotion in
/// the lane loops).
struct Float32CheckRule {
  float scale = 1.0f;
  float beta = 0.0f;
};

/// Single-precision floating-point datapath policy. Twice the lanes
/// per SIMD register of FloatDatapath; ~7 significand digits is ample
/// for min-sum messages (the fixed datapath gets by on 6 bits).
struct Float32Datapath {
  using Value = float;
  using Rule = Float32CheckRule;
  static constexpr float kMax = std::numeric_limits<float>::infinity();
  static float Abs(float v) { return std::fabs(v); }
  static bool IsNegative(float v) { return v < 0.0f; }
  static float Normalize(float mag, const Rule& rule) {
    const float scaled = mag * rule.scale;
    return rule.beta == 0.0f ? scaled : std::max(0.0f, scaled - rule.beta);
  }
  static float FlipSign(float v, bool negative) {
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(v) ^
                                (std::uint32_t{negative} << 31));
  }
};

/// 8-bit saturating fixed-point datapath policy: the messages of the
/// int32 FixedDatapath carried in int8 lanes, so an AVX2 register
/// holds 32 of them (AVX-512: 64). The quantization semantics are
/// FixedDatapathParams' — symmetric W-bit words, dyadic shift-add
/// normalization with round-to-nearest ties-away — and the decoder
/// accumulates APPs in int16 (see BatchedFixedI8LayeredDecoder).
///
/// Width contract (FitsI8Datapath, enforced by the i8 decoder): message_bits
/// <= 8 so every CN input fits the symmetric int8 range [-127, 127],
/// app_bits <= 14 so APP +- message fits int16 without wrapping, and
/// normalization <= 1 so normalized magnitudes fit back into int8.
/// Under that contract every i8 lane value equals the int32 fixed
/// datapath's value bit for bit: the only nominal difference is the
/// min1/min2 scan's init (kMax = 127 here vs INT32_MAX), and since
/// 127 is also the largest representable input magnitude, the scan's
/// running min values — and therefore its outputs — coincide (a
/// 127-magnitude input never displaces the 127 init, but the selected
/// value is 127 either way).
struct FixedI8Datapath {
  using Value = std::int8_t;
  using Rule = DyadicFraction;
  static constexpr std::int8_t kMax = std::numeric_limits<std::int8_t>::max();
  static std::int8_t Abs(std::int8_t v) {
    // Symmetric saturation keeps -128 out of the datapath, so the
    // negation never overflows.
    return static_cast<std::int8_t>(v < 0 ? -v : v);
  }
  static bool IsNegative(std::int8_t v) { return v < 0; }
  static std::int8_t Normalize(std::int8_t mag, const Rule& rule) {
    // The int32 rule applied to an int8 value: exact (<= 1 contract),
    // result <= mag fits int8.
    return static_cast<std::int8_t>(rule.Apply(mag));
  }
  static std::int8_t FlipSign(std::int8_t v, bool negative) {
    return static_cast<std::int8_t>(negative ? -v : v);
  }
};

/// Value-width companions of a datapath for the lane kernel: the
/// unsigned type carrying sign masks, the numeric type carrying the
/// argmin position, and the mask-based sign primitives. All
/// operations reproduce the scalar kernel's IsNegative/FlipSign
/// semantics exactly (the masks are compare results, not sign-bit
/// extractions, so e.g. -0.0 inputs behave identically).
template <class Datapath>
struct BatchTraits;

template <>
struct BatchTraits<FloatDatapath> {
  using UInt = std::uint64_t;
  using Index = double;
  static UInt SignMask(double v) { return v < 0.0 ? ~UInt{0} : UInt{0}; }
  static double ApplySign(double mag, UInt mask) {
    return std::bit_cast<double>(std::bit_cast<UInt>(mag) ^
                                 (mask & (UInt{1} << 63)));
  }
  /// Branch-free Datapath::Normalize, valid for mag >= 0 (every
  /// exclusive min is): with beta == 0, max(mag * scale - 0, 0) ==
  /// mag * scale bit for bit, so the beta test leaves the loop.
  static double NormalizeMag(double mag, const FloatCheckRule& rule) {
    return std::max(mag * rule.scale - rule.beta, 0.0);
  }
};

template <>
struct BatchTraits<Float32Datapath> {
  using UInt = std::uint32_t;
  using Index = float;
  static UInt SignMask(float v) { return v < 0.0f ? ~UInt{0} : UInt{0}; }
  static float ApplySign(float mag, UInt mask) {
    return std::bit_cast<float>(std::bit_cast<UInt>(mag) ^
                                (mask & (UInt{1} << 31)));
  }
  static float NormalizeMag(float mag, const Float32CheckRule& rule) {
    return std::max(mag * rule.scale - rule.beta, 0.0f);
  }
};

template <>
struct BatchTraits<FixedI8Datapath> {
  using UInt = std::uint8_t;
  using Index = std::int8_t;  // positions are < 64, exact in int8
  static UInt SignMask(std::int8_t v) {
    return v < 0 ? UInt{0xff} : UInt{0};
  }
  static std::int8_t ApplySign(std::int8_t mag, UInt mask) {
    const std::int8_t m = static_cast<std::int8_t>(mask);
    return static_cast<std::int8_t>((mag ^ m) - m);
  }
  /// DyadicFraction::Apply on an int8 magnitude (mag >= 0, so the
  /// sign select drops out), computed in int16: the i8 decoder's
  /// contract bounds shift <= 8 and num <= 2^shift, so mag * num +
  /// round <= 127 * 256 + 128 fits int16 exactly and the int16
  /// truncation of the int-promoted product is value-identical to the
  /// int32 normalizer.
  /// Staying narrow keeps the Store loop in 16-bit SIMD lanes instead
  /// of widening every lane to int32.
  static std::int8_t NormalizeMag(std::int8_t mag,
                                  const DyadicFraction& rule) {
    const auto num = static_cast<std::int16_t>(rule.num);
    const auto round = static_cast<std::int16_t>(
        rule.shift == 0 ? 0 : (1 << (rule.shift - 1)));
    return static_cast<std::int8_t>(
        static_cast<std::int16_t>(mag * num + round) >> rule.shift);
  }
};

// The portable (baseline-ISA) copy of the lane kernels. The per-ISA
// copies compiled by the dispatch TUs live in their own namespaces;
// see lane_kernels.inc for why the duplication is load-bearing.
#include "ldpc/core/lane_kernels.inc"

}  // namespace cldpc::ldpc::core
