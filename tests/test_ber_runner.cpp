// Sweep-level checks of the BER/PER measurement: the sim/ types, run
// through engine::SimEngine, and the curve table.
#include "sim/ber_runner.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "engine/sim_engine.hpp"
#include "ldpc/minsum_decoder.hpp"
#include "qc/small_codes.hpp"

namespace cldpc::sim {
namespace {

struct Fixture {
  ldpc::LdpcCode code{qc::MakeSmallQcCode().Expand()};
  ldpc::Encoder encoder{code};
};

Fixture& Shared() {
  static Fixture f;
  return f;
}

ldpc::MinSumOptions DecOpts(int iters = 25) {
  ldpc::MinSumOptions o;
  o.iter.max_iterations = iters;
  o.variant = ldpc::MinSumVariant::kNormalized;
  o.alpha = 1.23;
  return o;
}

/// One sweep of the normalized min-sum decoder through the engine.
BerCurve RunMinSum(const BerConfig& config, int iters = 25,
                   const FrameCallback& on_frame = {}) {
  auto& f = Shared();
  engine::SimEngine sim(f.code, f.encoder, config);
  return sim.Run(
      [&f, iters] {
        return std::make_unique<ldpc::MinSumDecoder>(f.code, DecOpts(iters));
      },
      on_frame);
}

TEST(BerRunner, ProducesOnePointPerSnr) {
  auto& f = Shared();
  BerConfig config;
  config.ebn0_db = {3.0, 4.0, 5.0};
  config.max_frames = 20;
  config.min_frame_errors = 100;  // never reached -> fixed frame count
  const auto curve = RunMinSum(config);
  ASSERT_EQ(curve.points.size(), 3u);
  for (const auto& p : curve.points) {
    EXPECT_EQ(p.frames, 20u);
    EXPECT_EQ(p.bit_errors.trials(), 20u * f.code.k());
  }
  EXPECT_EQ(curve.decoder_name, ldpc::MinSumDecoder(f.code, DecOpts()).Name());
}

TEST(BerRunner, BerDecreasesWithSnr) {
  BerConfig config;
  config.ebn0_db = {2.0, 6.0};
  config.max_frames = 40;
  const auto curve = RunMinSum(config);
  EXPECT_GT(curve.points[0].bit_errors.Rate(),
            curve.points[1].bit_errors.Rate());
  EXPECT_GT(curve.points[0].frame_errors.Rate(), 0.5);  // far below waterfall
  EXPECT_LT(curve.points[1].frame_errors.Rate(), 0.2);
}

TEST(BerRunner, Reproducible) {
  auto& f = Shared();
  BerConfig config;
  config.ebn0_db = {3.5};
  config.max_frames = 15;
  config.base_seed = 42;
  engine::SimEngine sim(f.code, f.encoder, config);
  const auto factory = [&f] {
    return std::make_unique<ldpc::MinSumDecoder>(f.code, DecOpts());
  };
  const auto a = sim.Run(factory);
  const auto b = sim.Run(factory);
  EXPECT_EQ(a.points[0].bit_errors.errors(), b.points[0].bit_errors.errors());
  EXPECT_EQ(a.points[0].frame_errors.errors(),
            b.points[0].frame_errors.errors());
}

TEST(BerRunner, SeedChangesResults) {
  BerConfig config;
  config.ebn0_db = {3.0};
  config.max_frames = 25;
  config.base_seed = 1;
  const auto a = RunMinSum(config);
  config.base_seed = 2;
  const auto b = RunMinSum(config);
  EXPECT_NE(a.points[0].bit_errors.errors(), b.points[0].bit_errors.errors());
}

TEST(BerRunner, EarlyStopAtMinErrors) {
  BerConfig config;
  config.ebn0_db = {1.0};  // far below the waterfall: every frame errors
  config.max_frames = 1000;
  config.min_frame_errors = 5;
  const auto curve = RunMinSum(config, 5);
  EXPECT_EQ(curve.points[0].frame_errors.errors(), 5u);
  EXPECT_LT(curve.points[0].frames, 20u);
}

TEST(BerRunner, AllZeroCodewordModeMatchesStatistics) {
  // For a linear code on a symmetric channel the all-zero frame is
  // statistically equivalent; at a fixed seed the two modes must both
  // show a working decoder (not bit-identical, just sane).
  BerConfig config;
  config.ebn0_db = {5.5};
  config.max_frames = 30;
  config.all_zero_codeword = true;
  const auto curve = RunMinSum(config);
  EXPECT_LT(curve.points[0].frame_errors.Rate(), 0.2);
}

TEST(BerRunner, CallbackSeesEveryFrame) {
  BerConfig config;
  config.ebn0_db = {4.0, 5.0};
  config.max_frames = 10;
  std::size_t calls = 0;
  RunMinSum(config, 25, [&](std::size_t, std::uint64_t, bool) { ++calls; });
  EXPECT_EQ(calls, 20u);
}

TEST(BerRunner, AverageIterationsTracked) {
  BerConfig config;
  config.ebn0_db = {6.0};
  config.max_frames = 10;
  const auto curve = RunMinSum(config, 30);
  // With early termination, the average at high SNR is far below max.
  EXPECT_GT(curve.points[0].avg_iterations, 0.0);
  EXPECT_LT(curve.points[0].avg_iterations, 10.0);
}

TEST(BerRunner, RejectsEmptyConfig) {
  auto& f = Shared();
  BerConfig config;
  config.ebn0_db = {};
  EXPECT_THROW(engine::SimEngine(f.code, f.encoder, config),
               ContractViolation);
}

TEST(RenderCurvesTest, AlignsCurvesWithDifferentGrids) {
  // Curves measured over different (overlapping) sweeps must still
  // render: rows are the sorted union, missing cells show "-".
  BerPoint p30, p40a, p40b, p50;
  p30.ebn0_db = 3.0;
  p30.frames = 12;
  p40a.ebn0_db = 4.0;
  p40a.frames = 200;
  p40b.ebn0_db = 4.0;
  p40b.frames = 7;  // early-stopped: actual count, not max_frames
  p50.ebn0_db = 5.0;
  p50.frames = 200;
  const BerCurve a{"A", /*has_frame_check=*/false, {p30, p40a}};
  const BerCurve b{"B", /*has_frame_check=*/false, {p40b, p50}};
  const auto text = RenderCurves({a, b});
  EXPECT_NE(text.find("3.00"), std::string::npos);
  EXPECT_NE(text.find("4.00"), std::string::npos);
  EXPECT_NE(text.find("5.00"), std::string::npos);
  EXPECT_NE(text.find("A frames"), std::string::npos);
  EXPECT_NE(text.find("| -"), std::string::npos);  // padding-gap cells
  EXPECT_NE(text.find("7"), std::string::npos);    // B's early-stop count
}

TEST(RenderCurvesTest, ContainsHeadersAndValues) {
  BerConfig config;
  config.ebn0_db = {4.0};
  config.max_frames = 5;
  const auto curve = RunMinSum(config);
  const auto text = RenderCurves({curve});
  EXPECT_NE(text.find("Eb/N0 (dB)"), std::string::npos);
  EXPECT_NE(text.find("4.00"), std::string::npos);
  EXPECT_NE(text.find("BER"), std::string::npos);
  EXPECT_NE(text.find("PER"), std::string::npos);
}

}  // namespace
}  // namespace cldpc::sim
