#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

namespace cldpc {

std::uint64_t DeriveSeed(std::uint64_t base, std::uint64_t a, std::uint64_t b,
                         std::uint64_t c) {
  // Feed each index through the mixer so that nearby indices yield
  // statistically independent streams.
  SplitMix64 mix(base);
  std::uint64_t h = mix.Next();
  h ^= SplitMix64(a ^ 0x6A09E667F3BCC908ULL).Next() + 0x9E3779B97F4A7C15ULL +
       (h << 6) + (h >> 2);
  h ^= SplitMix64(b ^ 0xBB67AE8584CAA73BULL).Next() + 0x9E3779B97F4A7C15ULL +
       (h << 6) + (h >> 2);
  h ^= SplitMix64(c ^ 0x3C6EF372FE94F82BULL).Next() + 0x9E3779B97F4A7C15ULL +
       (h << 6) + (h >> 2);
  return h;
}

Xoshiro256pp::Xoshiro256pp(std::uint64_t seed) {
  // Seed the four state words from SplitMix64 as recommended by the
  // xoshiro authors; avoids the all-zero state by construction.
  SplitMix64 mix(seed);
  for (auto& word : s_) word = mix.Next();
}

std::uint64_t Xoshiro256pp::NextBounded(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

double GaussianSampler::Next() {
  if (has_cached_) {
    has_cached_ = false;
    return cached_;
  }
  double u, v, s;
  do {
    u = 2.0 * rng_.NextDouble() - 1.0;
    v = 2.0 * rng_.NextDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_ = v * factor;
  has_cached_ = true;
  return u * factor;
}

void GaussianSampler::NextBatch(std::span<double> out) {
  std::size_t i = 0;
  if (has_cached_ && i < out.size()) {
    has_cached_ = false;
    out[i++] = cached_;
  }
  // Chunked polar method: stage accepted (u, v, s) triples, then run
  // the expensive sqrt(-2 ln s / s) multipliers as one tight loop.
  // The rejection loop below draws the stream pair by pair exactly
  // like Next(), and u * factor / v * factor are the identical
  // expressions — every emitted sample is bit-identical to the
  // scalar path's.
  constexpr std::size_t kChunk = 64;
  double us[kChunk], vs[kChunk], fs[kChunk];
  while (i < out.size()) {
    const std::size_t pairs =
        std::min(kChunk, (out.size() - i + 1) / 2);  // last may be half-used
    for (std::size_t k = 0; k < pairs; ++k) {
      double u, v, s;
      do {
        u = 2.0 * rng_.NextDouble() - 1.0;
        v = 2.0 * rng_.NextDouble() - 1.0;
        s = u * u + v * v;
      } while (s >= 1.0 || s == 0.0);
      us[k] = u;
      vs[k] = v;
      fs[k] = s;
    }
    for (std::size_t k = 0; k < pairs; ++k)
      fs[k] = std::sqrt(-2.0 * std::log(fs[k]) / fs[k]);
    for (std::size_t k = 0; k < pairs; ++k) {
      out[i++] = us[k] * fs[k];
      if (i < out.size()) {
        out[i++] = vs[k] * fs[k];
      } else {
        // Odd batch length: the pair's second variate is cached for
        // the next draw, exactly like Next() would have.
        cached_ = vs[k] * fs[k];
        has_cached_ = true;
      }
    }
  }
}

void GaussianSampler::NextBatch(std::span<double> out, double mean,
                                double stddev) {
  NextBatch(out);
  for (auto& z : out) z = mean + stddev * z;
}

}  // namespace cldpc
