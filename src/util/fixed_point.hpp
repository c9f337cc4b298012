// Saturating fixed-point helpers shared by the bit-accurate decoder
// reference and the architecture datapath model.
//
// Hardware LDPC datapaths use sign-magnitude-friendly *symmetric*
// saturation: a W-bit message lives in [-(2^(W-1)-1), +(2^(W-1)-1)],
// so that |x| always fits in W-1 magnitude bits and negation never
// overflows. All arithmetic here is integer and exactly reproducible.
#pragma once

#include <cstdint>

#include "util/contracts.hpp"

namespace cldpc {

/// Message/accumulator values travel as 32-bit signed integers in the
/// model; the *width* of the modelled hardware word is carried
/// separately and enforced by saturation.
using Fixed = std::int32_t;

/// Largest representable magnitude of a W-bit symmetric word.
constexpr Fixed SymmetricMax(int width_bits) {
  return (Fixed{1} << (width_bits - 1)) - 1;
}

/// Clamp v into the symmetric W-bit range.
constexpr Fixed SaturateSymmetric(Fixed v, int width_bits) {
  const Fixed m = SymmetricMax(width_bits);
  if (v > m) return m;
  if (v < -m) return -m;
  return v;
}

/// A dyadic fraction num / 2^shift — the only multiplier shape a
/// shift-add hardware normalizer implements. Used for the min-sum
/// correction factor 1/alpha.
struct DyadicFraction {
  std::int32_t num = 1;
  int shift = 0;

  constexpr double ToDouble() const {
    return static_cast<double>(num) / static_cast<double>(1 << shift);
  }

  /// Multiply with round-to-nearest (ties away from zero), exactly as
  /// a hardware rounding stage would: (|v|*num + 2^(shift-1)) >> shift.
  constexpr Fixed Apply(Fixed v) const {
    const Fixed mag = v < 0 ? -v : v;
    const Fixed rounded =
        shift == 0 ? mag * num
                   : (mag * num + (Fixed{1} << (shift - 1))) >> shift;
    return v < 0 ? -rounded : rounded;
  }
};

/// Find the dyadic fraction with the given shift closest to `value`.
DyadicFraction NearestDyadic(double value, int shift);

/// round(llr * scale) to nearest, ties away from zero, saturated to
/// [-max, +max] — computed so that every input has a defined result:
/// the product is clamped in double *before* any integer conversion
/// (huge LLRs saturate instead of wrapping, ±inf give ±max) and NaN
/// gives 0. After the clamp |s| <= max < 2^31, so s - trunc(s) is
/// exact and comparing it with ±0.5 rounds exactly like std::lround;
/// and since max is an integer, clamping before rounding equals
/// rounding before clamping. Branch-free, so a loop over a frame
/// vectorizes.
inline Fixed QuantizeLlr(double llr, double scale, Fixed max) {
  const double bound = static_cast<double>(max);
  double s = llr * scale;
  s = s == s ? s : 0.0;
  s = s > bound ? bound : s;
  s = s < -bound ? -bound : s;
  const auto t = static_cast<Fixed>(s);  // truncates toward zero
  const double rem = s - static_cast<double>(t);
  return t + static_cast<Fixed>(rem >= 0.5) - static_cast<Fixed>(rem <= -0.5);
}

/// Uniform mid-tread quantizer mapping a real LLR to a W-bit symmetric
/// fixed-point word: q = round(llr * scale), saturated (QuantizeLlr).
///
/// `scale` plays the role of the analog front-end gain; the default in
/// the decoders is chosen so that the typical channel LLR range at the
/// waterfall SNR fills the word without saturating too often.
class LlrQuantizer {
 public:
  LlrQuantizer(int width_bits, double scale);

  Fixed Quantize(double llr) const { return QuantizeLlr(llr, scale_, max_); }
  /// Midpoint reconstruction (for analysis / plotting only).
  double Dequantize(Fixed q) const { return static_cast<double>(q) / scale_; }

  int width_bits() const { return width_bits_; }
  double scale() const { return scale_; }
  Fixed max_value() const { return max_; }

 private:
  int width_bits_;
  double scale_;
  Fixed max_;
};

}  // namespace cldpc
