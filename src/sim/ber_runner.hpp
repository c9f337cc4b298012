// Monte-Carlo BER/PER measurement types (Figure 4 of the paper).
//
// Per Eb/N0 point: encode random frames, push them through BPSK/AWGN,
// decode, and count bit and frame errors until either a target error
// count or a frame cap is reached. Every frame's noise stream is
// seeded as f(base_seed, snr_index, frame_index), so any point of any
// curve can be reproduced in isolation, and different decoders see
// the *same* noisy frames (paired comparison — much lower variance
// for "A beats B" conclusions, the form of the paper's claims).
//
// This header holds the sweep's configuration and results, plus the
// curve table. The measurement itself is engine::SimEngine::Run (see
// engine/sim_engine.hpp for the determinism contract).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace cldpc::obs {
class MetricsRegistry;
}

namespace cldpc::sim {

/// Draws one pseudo-random codeword for a derived per-frame seed,
/// writing n bits as 0/1 bytes. Codes with in-band structure (e.g.
/// FT8's CRC-14 payload field) install one so that every simulated
/// frame is a *valid* frame of the protocol, not just a codeword;
/// the default (null) path encodes k random information bits. Must be
/// a pure function of the seed — the engine calls it from any worker.
using FrameSource =
    std::function<void(std::uint64_t seed, std::span<std::uint8_t> codeword)>;

/// Post-decode frame acceptance (a real receiver's CRC check) on the
/// decoder's hard decisions. When installed, every point additionally
/// tracks the undetected-error rate: frames the check *accepts* whose
/// bits are wrong — the errors a deployed receiver would not see.
/// Must be a pure function of the bits.
using FrameCheck = std::function<bool(std::span<const std::uint8_t> bits)>;

struct BerConfig {
  std::vector<double> ebn0_db;      // sweep points
  std::uint64_t base_seed = 1;
  std::uint64_t max_frames = 200;   // per point
  std::uint64_t min_frame_errors = 20;  // stop a point early once reached
  /// Measure info-bit BER only (as link budgets do) or whole-codeword.
  bool info_bits_only = true;
  /// Use all-zero frames instead of random data (valid for linear
  /// codes over a symmetric channel; halves the runtime).
  bool all_zero_codeword = false;
  /// Engine worker threads (0 = hardware threads). Never changes
  /// results — see the engine's determinism contract.
  std::size_t threads = 1;
  /// Frames per engine work item.
  std::uint64_t batch_frames = 16;
  /// Absolute index of the first frame of every point. Frame f of the
  /// run draws its seeds from (base_seed, snr_index, start_frame + f),
  /// so a run of frames [start_frame, start_frame + max_frames) is
  /// byte-identical to the corresponding slice of one big run — the
  /// foundation of the dist layer's sharded/resumable simulations.
  /// Leave 0 for ordinary sweeps.
  std::uint64_t start_frame = 0;
  /// Absolute SNR index of ebn0_db[0] for seed derivation. A sharded
  /// or resumed run that simulates a *subset* of a sweep's points must
  /// pass each point's index in the full sweep here, or its frames
  /// would draw different noise than the whole-sweep run. Leave 0 for
  /// ordinary sweeps. Only seeds are affected; FrameCallback and
  /// trace indices stay run-local.
  std::uint64_t snr_index_base = 0;
  /// Optional protocol-aware frame generation and acceptance (see the
  /// typedefs above); both usually come from one codes::CatalogCode.
  /// Null members select the default behaviour. Neither affects the
  /// engine's determinism contract: both are pure functions of their
  /// inputs, so curves stay byte-identical across thread counts.
  FrameSource frame_source;
  FrameCheck frame_check;
  /// Optional decode telemetry (borrowed; must outlive the run). The
  /// engine shards it per worker, records decoder/engine metrics and
  /// — when the registry has tracing enabled — per-worker batch
  /// spans. Null disables all instrumentation at the cost of one
  /// branch per probe site. Metrics are observation-only: enabling
  /// them never changes decode results or the determinism contract
  /// (see obs/metrics.hpp for which metrics are themselves
  /// thread-count-invariant).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional cooperative cancellation (borrowed; e.g. the flag set
  /// by util::InstallShutdownHandler). Polled by the in-order commit
  /// before each batch and between points: once it reads true, no
  /// further batch is committed, workers stop claiming new work,
  /// frames still in flight (staged batches, decoder lanes) are
  /// abandoned, and the run returns the points measured so far, at
  /// any thread count. Cancellation never corrupts results — every
  /// point in the returned curve is made of exactly the frames its
  /// estimators counted; only the sweep is shorter. Granularity
  /// (locked by tests/test_shutdown.cpp): a point cut short by cancel
  /// holds a whole number of batches — a batch mid-commit when the
  /// flag is raised is kept whole, no later one is — and that is what
  /// dist/ checkpoints on interruption.
  const std::atomic<bool>* cancel = nullptr;
};

struct BerPoint {
  double ebn0_db = 0.0;
  RateEstimator bit_errors;
  RateEstimator frame_errors;
  /// Frames the frame check accepted despite bit errors (tracked only
  /// when BerConfig::frame_check is set; trials == frames).
  RateEstimator undetected_errors;
  std::uint64_t frames = 0;
  /// Exact sum of decode iterations over the point's frames. This is
  /// the mergeable sufficient statistic: summing two shards' totals
  /// and dividing by the summed frames reproduces avg_iterations
  /// bit-identically (integer sums have one representation; a merge
  /// of double averages would not).
  std::uint64_t iterations_total = 0;
  double avg_iterations = 0.0;
};

struct BerCurve {
  std::string decoder_name;
  /// True when the curve was measured with a frame check installed —
  /// RenderCurves then shows the undetected-error-rate (UER) column.
  bool has_frame_check = false;
  std::vector<BerPoint> points;
};

/// Per-frame hook (e.g. progress output). Arguments: snr index, frame
/// index, frame errored. Called in frame order regardless of threads,
/// one call at a time (from the engine thread that commits the
/// frame's batch).
using FrameCallback =
    std::function<void(std::size_t, std::uint64_t, bool)>;

/// Render curves as an aligned table (rows: Eb/N0; columns: BER/PER/
/// frames per decoder). Curves may have different point counts or
/// even different Eb/N0 grids: rows are the sorted union of all
/// sweep points and a curve without a given point shows "-". The
/// frames column reports how many frames the point actually consumed
/// (early-stopped points show their real count, not max_frames).
std::string RenderCurves(const std::vector<BerCurve>& curves);

}  // namespace cldpc::sim
