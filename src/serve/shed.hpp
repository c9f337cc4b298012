// Load-shedding policy for the decode service: the documented
// degradation curve that turns queue pressure into graceful quality
// loss instead of latency collapse.
//
// ## The shedding curve
//
// Let o = queue occupancy fraction (admission-ring size / capacity),
// sampled by a worker whenever it pops frames. The service
// degrades in tiers:
//
//   tier 0 (normal)    o <  elevated_watermark (default 0.50)
//                      full iteration budget (the decoder spec's
//                      iters, default 18)
//   tier 1 (elevated)  elevated_watermark <= o < high_watermark
//                      iteration budget >> elevated_shift
//                      (default: halved)
//   tier 2 (high)      o >= high_watermark (default 0.75)
//                      iteration budget >> high_shift
//                      (default: quartered)
//
// Budgets never drop below 1 iteration. Independent of the tier:
//
//   - a frame whose deadline has already expired when a worker pops
//     it is dropped before decode (status kShedExpired) — work
//     the client can no longer use is never done;
//   - a frame that cannot even be enqueued is rejected at admission
//     (status kRejectedFull) — the ring is bounded, so queueing delay
//     is bounded by capacity / service rate.
//
// Rationale: an LDPC decode's useful work is front-loaded (most
// frames converge in the first few iterations; the long tail buys the
// waterfall's last fraction of a dB), so halving the budget under
// pressure roughly halves service time while only slightly raising
// BER — the cheapest quality currency the service can spend before it
// must start dropping frames outright.
//
// TierFor is a pure function of (policy, size, capacity) so tests can
// pin the watermark engagement points exactly.
#pragma once

#include <cstddef>

#include "util/contracts.hpp"

namespace cldpc::serve {

struct ShedPolicy {
  double elevated_watermark = 0.50;
  double high_watermark = 0.75;
  /// Right-shift applied to the base iteration budget per tier.
  int elevated_shift = 1;
  int high_shift = 2;

  void Validate() const {
    CLDPC_EXPECTS(elevated_watermark > 0.0 && elevated_watermark <= 1.0,
                  "elevated_watermark must be in (0, 1]");
    CLDPC_EXPECTS(high_watermark >= elevated_watermark &&
                      high_watermark <= 1.0,
                  "high_watermark must be in [elevated_watermark, 1]");
    CLDPC_EXPECTS(elevated_shift >= 0 && elevated_shift <= 30,
                  "elevated_shift must be in [0, 30]");
    CLDPC_EXPECTS(high_shift >= elevated_shift && high_shift <= 30,
                  "high_shift must be in [elevated_shift, 30]");
  }
};

inline constexpr int kNumShedTiers = 3;

/// Shedding tier for an occupancy snapshot: 0 (normal), 1 (elevated)
/// or 2 (high). Watermarks compare against size/capacity; a watermark
/// of exactly 1.0 engages only when the ring is full.
inline int TierFor(const ShedPolicy& policy, std::size_t size,
                   std::size_t capacity) {
  const double o = capacity == 0
                       ? 1.0
                       : static_cast<double>(size) /
                             static_cast<double>(capacity);
  if (o >= policy.high_watermark) return 2;
  if (o >= policy.elevated_watermark) return 1;
  return 0;
}

/// Iteration budget of `tier` given the decoder spec's base budget.
/// Never below 1: a decoder that runs zero iterations returns channel
/// hard decisions, which would silently zero the coding gain.
inline int BudgetForTier(const ShedPolicy& policy, int base_iterations,
                         int tier) {
  CLDPC_EXPECTS(base_iterations >= 1, "base iteration budget must be >= 1");
  CLDPC_EXPECTS(tier >= 0 && tier < kNumShedTiers, "tier must be 0..2");
  const int shift = tier == 0   ? 0
                    : tier == 1 ? policy.elevated_shift
                                : policy.high_shift;
  const int budget = base_iterations >> shift;
  return budget < 1 ? 1 : budget;
}

}  // namespace cldpc::serve
