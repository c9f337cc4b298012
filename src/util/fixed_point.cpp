#include "util/fixed_point.hpp"

#include <cmath>

namespace cldpc {

DyadicFraction NearestDyadic(double value, int shift) {
  CLDPC_EXPECTS(shift >= 0 && shift < 31, "dyadic shift out of range");
  CLDPC_EXPECTS(value >= 0.0, "dyadic fractions here are non-negative");
  const double scaled = value * static_cast<double>(1 << shift);
  return DyadicFraction{static_cast<std::int32_t>(std::lround(scaled)), shift};
}

LlrQuantizer::LlrQuantizer(int width_bits, double scale)
    : width_bits_(width_bits), scale_(scale), max_(SymmetricMax(width_bits)) {
  CLDPC_EXPECTS(width_bits >= 2 && width_bits <= 16,
                "quantizer width must be in [2, 16]");
  CLDPC_EXPECTS(scale > 0.0, "quantizer scale must be positive");
}

}  // namespace cldpc
