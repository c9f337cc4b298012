// Deterministic fault-injection harness for the decode service.
//
// Robustness claims are only as good as the failure modes they were
// tested against, so the service (and its load generator) can inject:
//
//   - worker stalls        a worker sleeps after pulling frames,
//                          building real queue pressure (exercises
//                          watermark shedding and admission rejects);
//   - malformed frames     the load generator corrupts a request
//                          (wrong LLR count, or non-finite LLRs) that
//                          the service must reject, not decode;
//   - decoder exceptions   the decode step throws; the service must
//                          contain the failure to the affected frames
//                          and keep serving;
//   - slow consumers       a client delays draining its response
//                          queue; the service must drop-and-count,
//                          never block on a client.
//
// ## Determinism
//
// Every decision is a pure function of (plan.seed, fault kind,
// event id) via DeriveSeed — the same derivation discipline as the
// Monte-Carlo engine's per-frame streams (util/rng.hpp), so a failing
// soak run is reproducible from its printed seed: replay with the
// same seed and the same frame ids and the harness injects the
// identical faults, regardless of thread scheduling or wall-clock
// timing. tests/test_serve_fault.cpp locks this with a replay test.
//
// Probabilities are expressed in permille (0..1000) so CLI flags and
// replay logs stay exact integers.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace cldpc::serve {

struct FaultPlan {
  /// Base seed for all fault streams. Injection is armed iff a
  /// permille knob is non-zero; the seed only selects *which* events
  /// fault, so seed=0 with knobs set is a valid (and reproducible)
  /// plan.
  std::uint64_t seed = 0;

  std::uint32_t stall_permille = 0;          // per non-empty pull
  std::uint32_t stall_us = 2000;             // stall length
  std::uint32_t malformed_permille = 0;      // per generated frame
  std::uint32_t decode_throw_permille = 0;   // per frame
  std::uint32_t slow_consumer_permille = 0;  // per client drain cycle
  std::uint32_t slow_consumer_us = 1000;     // drain delay length

  bool any() const {
    return stall_permille != 0 || malformed_permille != 0 ||
           decode_throw_permille != 0 || slow_consumer_permille != 0;
  }
};

/// Stateless decision oracle over a FaultPlan. Copyable and
/// thread-safe: decisions depend only on the arguments, never on call
/// order or calling thread.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(const FaultPlan& plan);

  const FaultPlan& plan() const { return plan_; }
  bool armed() const { return plan_.any(); }

  /// Should the worker stall on its pull `batch_id` (the service
  /// numbers its non-empty pulls)?
  bool StallBatch(std::uint64_t batch_id) const;
  /// Should the generator emit frame `frame_id` malformed?
  bool MalformFrame(std::uint64_t frame_id) const;
  /// Should the decode of frame `frame_id` throw?
  bool ThrowInDecode(std::uint64_t frame_id) const;
  /// Should client `client_id` delay its drain cycle `cycle`?
  bool SlowConsume(std::uint64_t client_id, std::uint64_t cycle) const;

 private:
  FaultPlan plan_;
};

/// Exception type thrown by injected decoder faults, so tests (and
/// logs) can tell an injected failure from a genuine decoder bug.
class InjectedDecodeError : public std::runtime_error {
 public:
  explicit InjectedDecodeError(std::uint64_t frame_id)
      : std::runtime_error("injected decoder fault on frame " +
                           std::to_string(frame_id)) {}
};

}  // namespace cldpc::serve
