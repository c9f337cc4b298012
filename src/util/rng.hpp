// Deterministic, platform-independent random number generation.
//
// Monte-Carlo experiments must be reproducible from a single 64-bit
// seed regardless of standard-library implementation, so we ship our
// own generators: SplitMix64 (seeding / hashing) and xoshiro256++
// (bulk generation), plus a polar-method Gaussian sampler.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>

namespace cldpc {

/// SplitMix64: tiny, high-quality 64-bit mixer. Used to expand one
/// seed into many independent stream seeds and as a hash combiner.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Derive an independent stream seed from a base seed and a sequence
/// of stream indices (e.g. {snr_index, frame_index}).
std::uint64_t DeriveSeed(std::uint64_t base, std::uint64_t a,
                         std::uint64_t b = 0, std::uint64_t c = 0);

/// xoshiro256++ 1.0 — fast all-purpose generator (Blackman & Vigna).
/// Satisfies UniformRandomBitGenerator.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256pp(std::uint64_t seed = 0xC1D2C3D4E5F60718ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return Next(); }
  // Inline: the frame generators draw one word per information bit
  // and two per noise pair, so a call per draw costs as much as the
  // generator itself.
  result_type Next() {
    const std::uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). Unbiased (rejection sampling).
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Fair coin.
  bool NextBit() { return (Next() >> 63) != 0; }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
};

/// Standard-normal sampler (Marsaglia polar method) on top of any
/// Xoshiro256pp stream. Caches the second variate of each pair.
class GaussianSampler {
 public:
  explicit GaussianSampler(std::uint64_t seed) : rng_(seed) {}
  explicit GaussianSampler(Xoshiro256pp rng) : rng_(rng) {}

  /// One N(0,1) sample.
  double Next();

  /// One N(mean, stddev^2) sample.
  double Next(double mean, double stddev) { return mean + stddev * Next(); }

  /// Fill `out` with N(0,1) samples. Bit-exact drop-in for out.size()
  /// sequential Next() calls: the underlying stream is consumed in
  /// the identical order (the polar rejection loop runs pair by
  /// pair), every sample is computed with the identical operations,
  /// and the pair cache hands over identically — so scalar and
  /// batched draws can be mixed freely on one sampler. Batching
  /// exists for throughput: accepted pairs are staged in chunks so
  /// the sqrt/log multiplier evaluation runs as a tight independent
  /// loop instead of being interleaved with rejection control flow.
  void NextBatch(std::span<double> out);

  /// Batched N(mean, stddev^2): per element exactly
  /// mean + stddev * z, matching Next(mean, stddev).
  void NextBatch(std::span<double> out, double mean, double stddev);

  Xoshiro256pp& rng() { return rng_; }

 private:
  Xoshiro256pp rng_;
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace cldpc
