// Frame-lane frontend (ldpc/core/frame_lanes.inc): every dispatch
// tier's draw_info_bits / transmit_llrs must reproduce the per-frame
// scalar API byte for byte, and the engine built on them must produce
// the same curves on every tier and at any thread count.
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "channel/awgn.hpp"
#include "codes/catalog.hpp"
#include "engine/sim_engine.hpp"
#include "ldpc/core/dispatch.hpp"
#include "ldpc/core/registry.hpp"
#include "util/rng.hpp"

namespace cldpc {
namespace {

using ldpc::core::Isa;

const std::size_t kFrameCounts[] = {1, 7, 8, 9, 31, 32, 33};

std::vector<Isa> UsableTiers() {
  std::vector<Isa> tiers;
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512})
    if (ldpc::core::IsaAvailable(isa)) tiers.push_back(isa);
  return tiers;
}

std::vector<std::uint64_t> Seeds(std::size_t frames, std::uint64_t stream) {
  std::vector<std::uint64_t> seeds(frames);
  for (std::size_t f = 0; f < frames; ++f)
    seeds[f] = DeriveSeed(99, 3, f, stream);
  return seeds;
}

/// The oracle: the per-frame loop over the scalar API.
std::vector<std::uint8_t> OracleInfo(const std::vector<std::uint64_t>& seeds,
                                     std::size_t k) {
  std::vector<std::uint8_t> info(seeds.size() * k);
  for (std::size_t f = 0; f < seeds.size(); ++f) {
    Xoshiro256pp rng(seeds[f]);
    for (std::size_t i = 0; i < k; ++i) info[f * k + i] = rng.NextBit() ? 1 : 0;
  }
  return info;
}

std::vector<double> OracleLlrs(const std::vector<std::uint64_t>& seeds,
                               const std::vector<std::uint8_t>& codewords,
                               std::size_t n, double sigma) {
  std::vector<double> llrs(seeds.size() * n), symbols(n);
  for (std::size_t f = 0; f < seeds.size(); ++f) {
    channel::AwgnChannel ch(sigma, seeds[f]);
    channel::BpskModulateInto({codewords.data() + f * n, n}, symbols);
    ch.TransmitLlrsInto(symbols, {llrs.data() + f * n, n});
  }
  return llrs;
}

TEST(FrameLanes, InfoBitsMatchPerFrameStreamsOnEveryTier) {
  for (const Isa isa : UsableTiers()) {
    const auto& kernels = *ldpc::core::LaneKernelsFor(isa);
    for (const std::size_t frames : kFrameCounts) {
      // k below, at and around the 64-draw word, and C2's k.
      for (const std::size_t k : {0u, 1u, 63u, 64u, 65u, 91u, 7156u}) {
        const auto seeds = Seeds(frames, 1);
        std::vector<std::uint8_t> info(frames * k, 0xAA);
        kernels.draw_info_bits({seeds.data(), frames, k, info.data()});
        EXPECT_EQ(info, OracleInfo(seeds, k))
            << ldpc::core::IsaName(isa) << " frames " << frames << " k " << k;
      }
    }
  }
}

TEST(FrameLanes, LlrsMatchPerFrameChannelOnEveryTier) {
  for (const Isa isa : UsableTiers()) {
    const auto& kernels = *ldpc::core::LaneKernelsFor(isa);
    for (const std::size_t frames : kFrameCounts) {
      // Odd n leaves the last pair half-used; 1 is a lone half pair.
      for (const std::size_t n : {1u, 2u, 3u, 129u, 174u, 175u}) {
        const auto seeds = Seeds(frames, 2);
        std::vector<std::uint8_t> codewords(frames * n);
        Xoshiro256pp bits(frames * 1000 + n);
        for (auto& b : codewords) b = bits.NextBit() ? 1 : 0;
        const double sigma = 0.8;
        std::vector<double> llrs(frames * n, -7.0), symbols(n);
        kernels.transmit_llrs({seeds.data(), frames, n, codewords.data(),
                               sigma, llrs.data(), symbols.data()});
        const auto want = OracleLlrs(seeds, codewords, n, sigma);
        EXPECT_EQ(std::memcmp(llrs.data(), want.data(),
                              llrs.size() * sizeof(double)),
                  0)
            << ldpc::core::IsaName(isa) << " frames " << frames << " n " << n;
      }
    }
  }
}

/// Field-by-field equality, exact doubles included.
void ExpectIdentical(const sim::BerCurve& a, const sim::BerCurve& b,
                     const std::string& what) {
  ASSERT_EQ(a.points.size(), b.points.size()) << what;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const auto& pa = a.points[i];
    const auto& pb = b.points[i];
    EXPECT_EQ(pa.bit_errors.errors(), pb.bit_errors.errors()) << what;
    EXPECT_EQ(pa.bit_errors.trials(), pb.bit_errors.trials()) << what;
    EXPECT_EQ(pa.frame_errors.errors(), pb.frame_errors.errors()) << what;
    EXPECT_EQ(pa.undetected_errors.errors(), pb.undetected_errors.errors())
        << what;
    EXPECT_EQ(pa.frames, pb.frames) << what;
    EXPECT_EQ(pa.iterations_total, pb.iterations_total) << what;
  }
}

/// One sweep per frame path, run on every tier at 1, 2 and 4 threads:
/// all equal the scalar tier's single-thread curve.
void ExpectSameCurvesOnEveryTier(const codes::CatalogCode& system,
                                 sim::BerConfig config,
                                 const std::string& what) {
  const auto original = ldpc::core::DetectIsa();
  const auto spec = ldpc::DecoderSpec::Parse("fixed-layered-nms-i8:batch=32");
  const engine::DecoderFactory factory = [&] {
    return ldpc::MakeDecoder(*system.code, spec);
  };
  config.batch_frames = 32;
  config.threads = 1;
  ldpc::core::ForceIsaForTesting(Isa::kScalar);
  const auto reference =
      engine::SimEngine(*system.code, *system.encoder, config).Run(factory);
  ASSERT_GT(reference.points.front().bit_errors.errors(), 0u) << what;
  for (const Isa isa : UsableTiers()) {
    ldpc::core::ForceIsaForTesting(isa);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      config.threads = threads;
      ExpectIdentical(
          engine::SimEngine(*system.code, *system.encoder, config)
              .Run(factory),
          reference,
          what + " on " + ldpc::core::IsaName(isa) + " at " +
              std::to_string(threads) + " threads");
    }
  }
  ldpc::core::ForceIsaForTesting(original);
}

sim::BerConfig SweepConfig() {
  sim::BerConfig config;
  config.ebn0_db = {1.0, 2.5};
  config.base_seed = 17;
  config.max_frames = 70;  // two full 32-frame batches and a partial one
  config.min_frame_errors = 1000;
  return config;
}

TEST(FrameLanes, EngineCurvesMatchAcrossTiersAndThreads) {
  const auto system = codes::LoadCode("medium");
  ExpectSameCurvesOnEveryTier(system, SweepConfig(), "random data");
  auto all_zero = SweepConfig();
  all_zero.all_zero_codeword = true;
  ExpectSameCurvesOnEveryTier(system, all_zero, "all-zero codeword");
  auto whole = SweepConfig();
  whole.info_bits_only = false;
  ExpectSameCurvesOnEveryTier(system, whole, "whole-codeword BER");
}

TEST(FrameLanes, FrameSourcePathMatchesAcrossTiersAndThreads) {
  const auto system = codes::LoadCode("ft8");
  auto config = SweepConfig();
  config.frame_source = system.frame_source;
  config.frame_check = system.frame_check;
  ExpectSameCurvesOnEveryTier(system, config, "ft8 frame source");
}

/// The engine's run-based bit-error count against a per-frame replay
/// that counts over the InfoCols index list (or every position).
TEST(FrameLanes, EngineBitErrorsMatchIndexListCount) {
  const auto system = codes::LoadCode("medium");
  const auto& code = *system.code;
  const std::size_t n = code.n();
  const auto factory = ldpc::MakeDecoderFactory(code, "layered-nms");
  const auto decoder = factory();
  for (const bool info_only : {true, false}) {
    auto config = SweepConfig();
    config.ebn0_db = {1.0};
    config.info_bits_only = info_only;
    const auto curve =
        engine::SimEngine(code, *system.encoder, config).Run(factory);

    std::vector<std::size_t> counted = code.InfoCols();
    if (!info_only) {
      counted.resize(n);
      for (std::size_t i = 0; i < n; ++i) counted[i] = i;
    }
    const double sigma = channel::SigmaForEbN0(1.0, code.Rate());
    std::uint64_t errors = 0;
    std::vector<std::uint8_t> info(code.k());
    for (std::uint64_t f = 0; f < config.max_frames; ++f) {
      Xoshiro256pp rng(DeriveSeed(config.base_seed, 0, f, 1));
      for (auto& b : info) b = rng.NextBit() ? 1 : 0;
      const auto codeword = system.encoder->Encode(info);
      const auto llrs = OracleLlrs({DeriveSeed(config.base_seed, 0, f, 2)},
                                   codeword, n, sigma);
      const auto bits = decoder->Decode(llrs).bits;
      for (const std::size_t pos : counted)
        errors += bits[pos] != codeword[pos];
    }
    EXPECT_GT(errors, 0u);
    EXPECT_EQ(curve.points.front().bit_errors.errors(), errors) << info_only;
    EXPECT_EQ(curve.points.front().bit_errors.trials(),
              config.max_frames * counted.size());
  }
}

}  // namespace
}  // namespace cldpc
