// Parallel Monte-Carlo BER/PER simulation engine.
//
// SimEngine shards each Eb/N0 point of a sweep into fixed-size frame
// batches and streams them through one decoder per worker (cloned
// from a factory, see DecoderPool). Each worker runs one
// Decoder::DecodeStream per point over a feed that claims batches,
// stages their channel output, and scores every frame against its
// codeword as soon as the decoder delivers it. A lane-batched SIMD
// decoder (spec param batch=N) therefore keeps its lane group full
// across batch boundaries, reloading each lane whose frame finished
// with the next frame; scalar decoders take a batch per DecodeBatch
// call. Completed batches are committed to the point's totals in
// frame-index order. One run loop serves every thread count: the
// calling thread is worker 0 and a ThreadPool runs the others, so a
// single-threaded run is the same loop with no pool.
//
// ## Determinism contract
//
// The engine's output is a pure function of (BerConfig, decoder): it
// does NOT depend on the thread count, the batch size, or scheduling.
//
//  1. Every frame's randomness comes only from seeds derived as
//     DeriveSeed(base_seed, snr_index, frame_index, stream) — one
//     per-frame stream contract at every thread count (data
//     stream = 1, noise stream = 2; golden values locked by
//     tests/test_rng.cpp). A frame's result is therefore independent
//     of which worker decodes it and of every other frame.
//  2. Aggregation consumes frame results strictly in frame-index
//     order (batch 0 first, frames in order inside each batch; a
//     batch is committed by whichever worker completes the batch the
//     point waits for, one committer at a time), so
//     RateEstimator totals and the integer iteration sum see the
//     exact sequence the threads=1 run produces. (All per-point
//     totals are exact integers — see BerPoint::iterations_total —
//     which is also what makes sharded runs mergeable: dist/ sums
//     shard statistics and provably reproduces the single-run curve.)
//     BerConfig::start_frame / snr_index_base shift only the seed
//     derivation in (1): a run over an absolute frame range or point
//     subset produces exactly the corresponding slice of the full
//     run.
//  3. Early stopping is decided only by the in-order commit: a
//     point ends with the first frame whose cumulative frame-error
//     count reaches min_frame_errors (that frame included), exactly
//     as in the threads=1 run. Workers race ahead speculatively;
//     results past the stop frame are discarded, and a bounded
//     speculation window plus a cooperative stop flag keep the waste
//     under ~4 * threads * batch_frames frames (the window is 4
//     batches per worker, see Run). Early-stop and cancel
//     decisions are taken between whole batches, and frames still in
//     a decoder's lanes when the point is decided are dropped.
//  4. A worker exception surfaces only if the point did not complete
//     first, and the lowest-batch failure is the one rethrown (a
//     failing stream is charged to the lowest batch it still held) —
//     so even error behavior is a function of frame content, not of
//     scheduling.
//
// Consequences: for a fixed seed the BerCurve is byte-identical across
// thread counts and batch sizes — every run equals the threads=1 run;
// only wall-clock time changes. The FrameCallback also fires in frame
// order with identical arguments, one call at a time, from whichever
// thread commits the frame's batch.
// ## Telemetry (obs/) and the contract
//
// With BerConfig::metrics set, the engine records decode telemetry
// through per-worker metric shards (worker w owns shard w; the
// in-order commit owns one extra shard). Commit-side facts —
// consumed frames, errors, convergence, the iterations-to-converge
// histogram — see exactly the sequential frame stream, so their
// merged totals are thread-count-invariant (Determinism::kStable).
// Worker-side facts (batch timers, lane occupancy and utilisation,
// frames decoded including discarded speculation) legitimately vary
// and are tagged so. Metrics never feed back into decoding: the BerCurve stays
// byte-identical with metrics on, off, or traced.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "engine/decoder_pool.hpp"
#include "gf2/bitvec.hpp"
#include "ldpc/encoder.hpp"
#include "sim/ber_runner.hpp"

namespace cldpc::obs {
class Shard;
}

namespace cldpc::engine {

/// Resolve a BerConfig::threads value (0 -> hardware threads).
std::size_t ResolveThreads(std::size_t requested);

class SimEngine {
 public:
  /// Code and encoder must outlive the engine. The worker count and
  /// batch size come from config.threads / config.batch_frames.
  SimEngine(const ldpc::LdpcCode& code, const ldpc::Encoder& encoder,
            sim::BerConfig config);
  ~SimEngine();

  /// Run the sweep with config().threads workers (the calling thread
  /// is worker 0), each owning a decoder cloned from `factory`. The
  /// curve is named after the decoders' Name(). A spec string runs
  /// through ldpc::MakeDecoderFactory (ldpc/core/registry.hpp).
  sim::BerCurve Run(const DecoderFactory& factory,
                    const sim::FrameCallback& on_frame = {});

  const sim::BerConfig& config() const { return config_; }

 private:
  struct FrameResult {
    std::uint64_t bit_errors = 0;
    std::int32_t iterations = 0;
    /// Decoder reported a zero syndrome (metrics: convergence /
    /// early-termination rate).
    bool converged = false;
    /// Verdict of config.frame_check on the decoded bits (always
    /// false when no check is configured).
    bool accepted = false;
  };
  struct PointAccumulator;
  /// Registered metric ids + registry pointer; non-null exactly when
  /// config.metrics is set (definition local to sim_engine.cpp).
  struct MetricsHook;
  /// One point's batch dispatch and in-order commit, shared by its
  /// workers.
  struct PointState;
  /// One worker's FrameFeed over a point's batches.
  class BatchFeed;

  /// Reusable per-worker buffers for the channel frontend and the
  /// frames in flight: they grow to their steady-state size during
  /// the first batches and are reused after, so seeding, info bits,
  /// encode, channel staging and the compare perform zero heap
  /// allocations in steady state.
  struct FrameScratch {
    std::vector<std::uint64_t> data_seeds;   // count
    std::vector<std::uint64_t> noise_seeds;  // count
    std::vector<std::uint8_t> info;          // count * k, frame-major
    std::vector<std::uint8_t> codewords;     // count * n, frame-major
    std::vector<double> symbols;  // n, the scalar tier's BPSK staging
    std::vector<double> llrs;                // count * n, frame-major
    gf2::BitVec parity;                      // encoder scratch
    /// Codewords of the frames handed to the decoder and not yet
    /// compared, one n-byte slot per frame in flight: at most a lane
    /// group, or one batch for decoders that take whole chunks.
    std::vector<std::uint8_t> slots;
    std::vector<std::size_t> free_slots;
  };

  /// Stage frames [first, first+count) of point `snr_index` in
  /// `scratch`: their codewords and channel LLRs. `metrics_shard` is
  /// the calling worker's shard (null when metrics are disabled).
  void StageBatch(std::size_t snr_index, std::uint64_t first_frame,
                  std::uint64_t count, double sigma, FrameScratch& scratch,
                  obs::Shard* metrics_shard) const;

  /// A decoded frame scored against the codeword it was sent as.
  FrameResult Compare(const ldpc::DecodeResult& decoded,
                      const std::uint8_t* sent) const;

  /// Cooperative cancellation (BerConfig::cancel): polled at batch
  /// and point boundaries.
  bool Cancelled() const {
    return config_.cancel != nullptr &&
           config_.cancel->load(std::memory_order_acquire);
  }

  const ldpc::LdpcCode& code_;
  const ldpc::Encoder& encoder_;
  sim::BerConfig config_;
  /// Codeword positions counted towards BER (info bits or all), as
  /// maximal runs [begin, end) of consecutive positions, and their
  /// total.
  std::vector<std::pair<std::size_t, std::size_t>> counted_runs_;
  std::uint64_t counted_bits_ = 0;
  std::unique_ptr<MetricsHook> hook_;  // null = metrics disabled
};

}  // namespace cldpc::engine
