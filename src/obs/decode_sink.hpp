// Thread-local metrics sink for decoder-internal instrumentation.
//
// Decoders are constructed through the registry by spec string and
// know nothing about the engine or a metrics registry; handing every
// decoder a shard pointer would thread obs through every constructor
// and the whole registry grammar. Instead the engine (around each
// worker's decode stream) or a bench (around a decode call) installs
// a DecodeSink for the current thread; decoder hot paths read one
// thread-local pointer and branch on null — the entire cost of
// disabled metrics.
//
// The decode.* metrics recorded through the sink count *work
// actually executed* on this worker, including frames the engine
// later discards as speculation past an early-stopped point; they are
// therefore registered as Determinism::kScheduling (totals vary with
// thread count), unlike the engine's commit-side engine.* facts.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"

namespace cldpc::obs {

/// Well-known decoder-internal metrics, registered once per registry
/// (registration deduplicates by name, so every engine/bench that
/// calls this against the same registry gets the same ids).
struct DecodeMetricIds {
  /// Lane groups executed by the batched decoders, and how full they
  /// were: occupancy = lanes_filled / lane_capacity.
  CounterId lane_groups, lanes_filled, lane_capacity;
  HistogramId lane_occupancy;  // group width per lane group
  /// Lane utilisation of the lane engine: lane_iterations_run counts
  /// group width x group-iterations executed, lane_iterations_used
  /// the lane-iterations that carried a frame; used / run is the
  /// share of SIMD lane work that decoded something.
  CounterId lane_iterations_run, lane_iterations_used;
  /// Incremental syndrome tracker economics: bit positions scanned
  /// per iteration vs hard-decision flips actually folded. Hit rate
  /// (scans the tracker skipped work for) = 1 - flips / scans.
  CounterId syndrome_bit_scans, syndrome_bit_flips;
  /// Int8-datapath saturation events, one count per (position, lane)
  /// value an int8 clamp actually changed: msg_clamp_events counts
  /// CN-input narrowing clamps (extr -> int8 message), bn_sat_events
  /// counts saturating BN accumulations (APP update hit the app_bits
  /// rail). Recorded only by the i8 decoder while a sink is
  /// installed; the uninstrumented hot path carries no counting code.
  CounterId msg_clamp_events, bn_sat_events;
};

DecodeMetricIds RegisterDecodeMetrics(MetricsRegistry& registry);

/// A shard plus the ids to record into; what the thread-local slot
/// points at while a sink is installed.
struct DecodeSink {
  Shard* shard = nullptr;
  DecodeMetricIds ids;
};

namespace detail {
inline thread_local DecodeSink* t_decode_sink = nullptr;
}

/// The installed sink for this thread, or null when metrics are
/// disabled — one inline TLS load, the decoders' only obligation.
inline DecodeSink* CurrentDecodeSink() { return detail::t_decode_sink; }

/// RAII installer. A null shard (or null ids) installs nothing, so
/// callers can construct it unconditionally.
class ScopedDecodeSink {
 public:
  ScopedDecodeSink(Shard* shard, const DecodeMetricIds* ids) {
    if (shard != nullptr && ids != nullptr) {
      sink_.shard = shard;
      sink_.ids = *ids;
      prev_ = detail::t_decode_sink;
      detail::t_decode_sink = &sink_;
      installed_ = true;
    }
  }
  ~ScopedDecodeSink() {
    if (installed_) detail::t_decode_sink = prev_;
  }
  ScopedDecodeSink(const ScopedDecodeSink&) = delete;
  ScopedDecodeSink& operator=(const ScopedDecodeSink&) = delete;

 private:
  DecodeSink sink_;
  DecodeSink* prev_ = nullptr;
  bool installed_ = false;
};

}  // namespace cldpc::obs
