// Incremental syndrome tracking for layered decoders.
//
// A layered decoder knows exactly when a bit's APP sign flips — at
// the moment it writes the APP back. Re-deriving the whole syndrome
// from scratch every iteration (LdpcCode::IsCodeword, O(edges) XORs
// plus a dense bit-vector build) throws that knowledge away. These
// trackers instead keep a live parity bit per check and touch only
// the checks adjacent to a bit whose hard decision actually changed —
// a handful of toggles per flip, and sign flips die out quickly as
// decoding converges. The convergence query is then a flat OR-scan
// over the per-check parities (O(num_checks), trivially vectorized),
// roughly 4x cheaper than a syndrome recompute on a (4, 32)-regular
// code even before counting the flip sparsity.
//
// Contract: after Reset(hard) followed by Flip(n) for every bit whose
// hard decision changed since, the parity state equals the syndrome
// of the current hard-decision vector — AllSatisfied() agrees exactly
// with IsCodeword() (tests/test_batched_decoder.cpp locks this).
//
// BatchSyndromeTracker is the lane-parallel variant for the batched
// decoders: one parity *mask* per check (bit l = lane l), flips
// applied per lane mask, and the OR-scan returns the mask of lanes
// with at least one unsatisfied check.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ldpc/core/layer_schedule.hpp"

namespace cldpc::ldpc::core {

class SyndromeTracker {
 public:
  /// The schedule must outlive the tracker.
  explicit SyndromeTracker(const LayerSchedule& sched)
      : sched_(&sched), parity_(sched.num_checks(), 0) {}

  /// Rebuild the parity state from a full hard-decision vector
  /// (length num_bits, 0/1 bytes).
  void Reset(std::span<const std::uint8_t> hard);

  /// Bit n's hard decision flipped: toggle its checks' parities.
  void Flip(std::size_t n) {
    for (const auto m : sched_->BitChecks(n)) parity_[m] ^= 1u;
  }

  /// True iff every check parity is even (== IsCodeword of the hard
  /// decisions the tracker has been kept in sync with).
  bool AllSatisfied() const;

 private:
  const LayerSchedule* sched_;
  std::vector<std::uint8_t> parity_;  // one parity bit per check
};

class BatchSyndromeTracker {
 public:
  /// The schedule must outlive the tracker. Supports up to 32 lanes.
  explicit BatchSyndromeTracker(const LayerSchedule& sched)
      : sched_(&sched), parity_(sched.num_checks(), 0) {}

  /// Rebuild the parity masks from lane-major hard decisions
  /// (hard[n * lanes + l] = lane l's decision for bit n).
  void Reset(std::span<const std::uint8_t> hard, std::size_t lanes);

  /// The parity masks of all-zero hard decisions (every check
  /// satisfied in every lane) — where the batched decoders start,
  /// their packed per-bit lane masks zeroed to match.
  void Clear();

  /// Bit n's hard decision flipped in the lanes of `lane_mask`.
  void Flip(std::size_t n, std::uint32_t lane_mask) {
    for (const auto m : sched_->BitChecks(n)) parity_[m] ^= lane_mask;
  }

  /// Mask of lanes with at least one unsatisfied check; a zero bit
  /// means that lane's hard decisions form a codeword.
  std::uint32_t UnsatisfiedLanes() const;

 private:
  const LayerSchedule* sched_;
  std::vector<std::uint32_t> parity_;  // per check, one parity bit per lane
};

}  // namespace cldpc::ldpc::core
