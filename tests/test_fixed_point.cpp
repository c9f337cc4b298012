#include "util/fixed_point.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/contracts.hpp"

namespace cldpc {
namespace {

TEST(SymmetricMax, Widths) {
  EXPECT_EQ(SymmetricMax(2), 1);
  EXPECT_EQ(SymmetricMax(6), 31);
  EXPECT_EQ(SymmetricMax(8), 127);
  EXPECT_EQ(SymmetricMax(9), 255);
}

TEST(SaturateSymmetric, PassesThroughInRange) {
  for (Fixed v = -31; v <= 31; ++v) EXPECT_EQ(SaturateSymmetric(v, 6), v);
}

TEST(SaturateSymmetric, ClampsBothSides) {
  EXPECT_EQ(SaturateSymmetric(32, 6), 31);
  EXPECT_EQ(SaturateSymmetric(-32, 6), -31);
  EXPECT_EQ(SaturateSymmetric(1000, 6), 31);
  EXPECT_EQ(SaturateSymmetric(-1000, 6), -31);
}

TEST(SaturateSymmetric, NegationNeverOverflows) {
  // The reason for symmetric saturation: -x of any saturated x is
  // still representable.
  for (Fixed v = -100; v <= 100; ++v) {
    const Fixed s = SaturateSymmetric(v, 5);
    EXPECT_EQ(SaturateSymmetric(-s, 5), -s);
  }
}

TEST(DyadicFraction, ToDouble) {
  EXPECT_DOUBLE_EQ((DyadicFraction{13, 4}).ToDouble(), 0.8125);
  EXPECT_DOUBLE_EQ((DyadicFraction{1, 0}).ToDouble(), 1.0);
  EXPECT_DOUBLE_EQ((DyadicFraction{3, 2}).ToDouble(), 0.75);
}

TEST(DyadicFraction, ApplyRoundsToNearest) {
  const DyadicFraction f{13, 4};  // x * 13/16 rounded
  EXPECT_EQ(f.Apply(16), 13);
  EXPECT_EQ(f.Apply(1), 1);   // 0.8125 -> 1
  EXPECT_EQ(f.Apply(2), 2);   // 1.625 -> 2
  EXPECT_EQ(f.Apply(3), 2);   // 2.4375 -> 2
  EXPECT_EQ(f.Apply(0), 0);
}

TEST(DyadicFraction, ApplyIsOddSymmetric) {
  const DyadicFraction f{13, 4};
  for (Fixed v = 0; v <= 64; ++v) EXPECT_EQ(f.Apply(-v), -f.Apply(v));
}

TEST(DyadicFraction, IdentityFraction) {
  const DyadicFraction one{1, 0};
  for (Fixed v = -31; v <= 31; ++v) EXPECT_EQ(one.Apply(v), v);
}

TEST(DyadicFraction, ShiftWithoutNumeratorScalesDown) {
  const DyadicFraction half{1, 1};
  EXPECT_EQ(half.Apply(10), 5);
  EXPECT_EQ(half.Apply(11), 6);   // 5.5 rounds away from zero -> 6
  EXPECT_EQ(half.Apply(-11), -6);
}

TEST(NearestDyadic, FindsClosest) {
  const auto f = NearestDyadic(1.0 / 1.23, 4);  // 0.813 -> 13/16
  EXPECT_EQ(f.num, 13);
  EXPECT_EQ(f.shift, 4);
  const auto g = NearestDyadic(0.75, 4);
  EXPECT_EQ(g.num, 12);
}

TEST(NearestDyadic, RejectsBadArgs) {
  EXPECT_THROW(NearestDyadic(-0.5, 4), ContractViolation);
  EXPECT_THROW(NearestDyadic(0.5, 40), ContractViolation);
}

TEST(LlrQuantizer, RoundsAndSaturates) {
  const LlrQuantizer q(6, 2.0);
  EXPECT_EQ(q.Quantize(0.0), 0);
  EXPECT_EQ(q.Quantize(1.0), 2);
  EXPECT_EQ(q.Quantize(1.24), 2);   // 2.48 -> 2
  EXPECT_EQ(q.Quantize(1.26), 3);   // 2.52 -> 3
  EXPECT_EQ(q.Quantize(100.0), 31);
  EXPECT_EQ(q.Quantize(-100.0), -31);
  EXPECT_EQ(q.max_value(), 31);
}

TEST(LlrQuantizer, SignSymmetry) {
  const LlrQuantizer q(5, 1.7);
  for (double x = 0.0; x < 20.0; x += 0.37) {
    EXPECT_EQ(q.Quantize(-x), -q.Quantize(x));
  }
}

TEST(LlrQuantizer, DequantizeInvertsScaling) {
  const LlrQuantizer q(8, 4.0);
  EXPECT_DOUBLE_EQ(q.Dequantize(q.Quantize(3.0)), 3.0);
  EXPECT_NEAR(q.Dequantize(q.Quantize(3.1)), 3.1, 1.0 / 8.0);
}

TEST(LlrQuantizer, RejectsBadConfig) {
  EXPECT_THROW(LlrQuantizer(1, 1.0), ContractViolation);
  EXPECT_THROW(LlrQuantizer(6, 0.0), ContractViolation);
  EXPECT_THROW(LlrQuantizer(6, -1.0), ContractViolation);
}

// The quantizer as it used to be written: std::lround, then saturate.
// Exact wherever |llr * scale| < 2^31, where lround's result fits.
Fixed LroundOracle(const LlrQuantizer& q, double llr) {
  return SaturateSymmetric(static_cast<Fixed>(std::lround(llr * q.scale())),
                           q.width_bits());
}

TEST(LlrQuantizer, TiesRoundAwayFromZero) {
  const LlrQuantizer q(6, 2.0);
  for (int k = -80; k <= 80; ++k) {
    const double llr = k * 0.5 / 2.0;  // scaled: exactly k / 2
    const int sign = k < 0 ? -1 : 1;
    const Fixed want = SaturateSymmetric(k % 2 == 0 ? k / 2 : (k + sign) / 2, 6);
    EXPECT_EQ(q.Quantize(llr), want) << "k " << k;
    EXPECT_EQ(q.Quantize(llr), LroundOracle(q, llr)) << "k " << k;
  }
  // The largest double below 0.5: a floor(x + 0.5) rounding would
  // give 1.
  const LlrQuantizer unit(6, 1.0);
  EXPECT_EQ(unit.Quantize(0.49999999999999994), 0);
  EXPECT_EQ(unit.Quantize(-0.49999999999999994), 0);
  EXPECT_EQ(unit.Quantize(std::nextafter(0.5, 1.0)), 1);
  EXPECT_EQ(unit.Quantize(std::nextafter(-0.5, -1.0)), -1);
}

TEST(LlrQuantizer, SymmetricMaxBoundaries) {
  const LlrQuantizer q(6, 2.0);
  for (const double scaled : {30.0, 30.49, 30.5, 31.0, 31.49, 31.5, 32.0}) {
    EXPECT_EQ(q.Quantize(scaled / 2.0), LroundOracle(q, scaled / 2.0))
        << scaled;
    EXPECT_EQ(q.Quantize(-scaled / 2.0), LroundOracle(q, -scaled / 2.0))
        << scaled;
  }
  EXPECT_EQ(q.Quantize(30.5 / 2.0), 31);
  EXPECT_EQ(q.Quantize(-31.5 / 2.0), -31);
}

// Huge LLRs saturate: the product is clamped before it is converted,
// so it can never wrap through the int32 range (lround then a cast
// turned 1073741829 * 2 into -31).
TEST(LlrQuantizer, HugeValuesSaturateInsteadOfWrapping) {
  const LlrQuantizer q(6, 2.0);
  EXPECT_EQ(q.Quantize(1073741829.0), 31);
  EXPECT_EQ(q.Quantize(-1073741829.0), -31);
  EXPECT_EQ(q.Quantize(1e10), 31);
  EXPECT_EQ(q.Quantize(-1e10), -31);
  EXPECT_EQ(q.Quantize(std::numeric_limits<double>::max()), 31);
  EXPECT_EQ(q.Quantize(-std::numeric_limits<double>::max()), -31);
}

TEST(LlrQuantizer, InfinitiesSaturateAndNanIsZero) {
  const LlrQuantizer q(6, 2.0);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(q.Quantize(inf), 31);
  EXPECT_EQ(q.Quantize(-inf), -31);
  EXPECT_EQ(q.Quantize(std::numeric_limits<double>::quiet_NaN()), 0);
  EXPECT_EQ(q.Quantize(-std::numeric_limits<double>::quiet_NaN()), 0);
}

TEST(LlrQuantizer, MatchesLroundOracleOnFiniteInputs) {
  for (const int width : {2, 6, 8, 16}) {
    const LlrQuantizer q(width, 1.7);
    for (double x = -40000.0; x <= 40000.0; x += 0.731)
      ASSERT_EQ(q.Quantize(x), LroundOracle(q, x)) << width << " " << x;
    for (int k = -1000; k <= 1000; ++k) {
      const double tie = (k + 0.5) / 1.7;  // ties up to the product's rounding
      ASSERT_EQ(q.Quantize(tie), LroundOracle(q, tie)) << width << " " << k;
    }
  }
}

// Parameterized property sweep: quantizer output is always within the
// symmetric range and monotone in its input.
class QuantizerWidths : public ::testing::TestWithParam<int> {};

TEST_P(QuantizerWidths, OutputInRangeAndMonotone) {
  const int width = GetParam();
  const LlrQuantizer q(width, 3.0);
  Fixed prev = -q.max_value();
  for (double x = -30.0; x <= 30.0; x += 0.05) {
    const Fixed v = q.Quantize(x);
    EXPECT_LE(std::abs(v), q.max_value());
    EXPECT_GE(v, prev);
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, QuantizerWidths,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 10, 12, 16));

}  // namespace
}  // namespace cldpc
