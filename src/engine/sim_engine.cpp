#include "engine/sim_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <span>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "channel/awgn.hpp"
#include "engine/thread_pool.hpp"
#include "ldpc/core/dispatch.hpp"
#include "obs/decode_sink.hpp"
#include "obs/metrics.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace cldpc::engine {

// Metric ids the engine records, registered once per registry (names
// deduplicate, so several engines — e.g. one per curve of a
// multi-curve binary — share ids and accumulate into the same
// totals). The kStable set is recorded exclusively by the in-order
// commit; see the header's telemetry note.
struct SimEngine::MetricsHook {
  obs::MetricsRegistry* reg;
  obs::DecodeMetricIds decode;
  obs::CounterId frames, frame_errors, bit_errors, frames_converged,
      frames_accepted, undetected_errors, points, frames_decoded;
  obs::HistogramId iterations, batch_latency_us, worker_wait_us;

  explicit MetricsHook(obs::MetricsRegistry& r) : reg(&r) {
    using D = obs::Determinism;
    decode = obs::RegisterDecodeMetrics(r);
    frames = r.Counter("engine.frames", D::kStable);
    frame_errors = r.Counter("engine.frame_errors", D::kStable);
    bit_errors = r.Counter("engine.bit_errors", D::kStable);
    frames_converged = r.Counter("engine.frames_converged", D::kStable);
    frames_accepted = r.Counter("engine.frames_accepted", D::kStable);
    undetected_errors = r.Counter("engine.undetected_errors", D::kStable);
    points = r.Counter("engine.points", D::kStable);
    frames_decoded = r.Counter("engine.frames_decoded", D::kScheduling);
    iterations =
        r.Hist("decode.iterations", D::kStable, "iterations");
    batch_latency_us =
        r.Hist("time.batch_decode_us", D::kWallClock, "us");
    worker_wait_us = r.Hist("time.worker_wait_us", D::kWallClock, "us");
  }

  /// Shard layout for a run at `threads` workers: worker w records
  /// into shard w, the in-order commit (and every kStable metric)
  /// into the extra shard behind them.
  obs::Shard* PrepareShards(std::size_t threads) {
    reg->SetShardCount(threads + 1);
    return &reg->shard(threads);
  }

  /// Post-run derived gauge: frames decoded beyond what the in-order
  /// commit consumed — the cost of speculating past early stops.
  void PublishSpeculationWaste() {
    const std::uint64_t decoded = reg->MergedCounter(frames_decoded);
    const std::uint64_t consumed = reg->MergedCounter(frames);
    reg->SetGauge("engine.speculation_waste_frames",
                  static_cast<double>(decoded - consumed));
  }
};

std::size_t ResolveThreads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

SimEngine::SimEngine(const ldpc::LdpcCode& code, const ldpc::Encoder& encoder,
                     sim::BerConfig config)
    : code_(code), encoder_(encoder), config_(std::move(config)) {
  CLDPC_EXPECTS(!config_.ebn0_db.empty(), "need at least one Eb/N0 point");
  CLDPC_EXPECTS(config_.max_frames > 0, "need at least one frame");
  CLDPC_EXPECTS(config_.batch_frames > 0, "need at least one frame per batch");
  // The frame frontend runs the lane-kernel table: resolve it now, so
  // a bad CLDPC_ISA fails here rather than inside a worker.
  ldpc::core::ActiveLaneKernels();
  if (config_.info_bits_only) {
    // InfoCols is ascending; merge it into maximal runs.
    for (const std::size_t pos : code_.InfoCols()) {
      if (!counted_runs_.empty() && counted_runs_.back().second == pos) {
        ++counted_runs_.back().second;
      } else {
        counted_runs_.emplace_back(pos, pos + 1);
      }
    }
    counted_bits_ = code_.InfoCols().size();
  } else {
    counted_runs_.emplace_back(0, code_.n());
    counted_bits_ = code_.n();
  }
  if (config_.metrics != nullptr)
    hook_ = std::make_unique<MetricsHook>(*config_.metrics);
}

SimEngine::~SimEngine() = default;

// In-order consumer of frame results; the single place where
// estimator totals, the iteration sum and the early-stop decision are
// produced. Whichever worker publishes the batch the point waits for
// runs it (one committer at a time, strictly in frame order), so the
// output cannot depend on the worker count.
struct SimEngine::PointAccumulator {
  sim::BerPoint point;
  std::uint64_t next_frame = 0;
  /// Aggregator-side metrics (null = disabled). This is the ONLY
  /// place the kStable engine metrics are recorded: the consumer
  /// sees exactly the sequential frame stream, so the totals cannot
  /// depend on threads or scheduling.
  obs::Shard* metrics = nullptr;
  const MetricsHook* hook = nullptr;

  /// Returns true once the point has reached min_frame_errors (the
  /// frame that reaches it is included).
  bool Consume(const FrameResult& result, std::size_t snr_index,
               std::uint64_t counted_bits, std::uint64_t min_frame_errors,
               bool has_frame_check, const sim::FrameCallback& on_frame) {
    point.bit_errors.Add(result.bit_errors, counted_bits);
    const bool frame_err = result.bit_errors != 0;
    point.frame_errors.AddTrial(frame_err);
    // An undetected error is the receiver's worst case: the frame
    // check accepted a frame whose bits are wrong.
    if (has_frame_check)
      point.undetected_errors.AddTrial(result.accepted && frame_err);
    // Exact integer sufficient statistic (see BerPoint): summing in
    // uint64 instead of double changes nothing below 2^53 iterations
    // total, and makes shard merges bit-identical by construction.
    point.iterations_total += static_cast<std::uint64_t>(result.iterations);
    ++point.frames;
    if (metrics) {
      metrics->Add(hook->frames);
      metrics->Add(hook->bit_errors, result.bit_errors);
      if (frame_err) metrics->Add(hook->frame_errors);
      if (result.converged) metrics->Add(hook->frames_converged);
      if (has_frame_check && result.accepted) {
        metrics->Add(hook->frames_accepted);
        if (frame_err) metrics->Add(hook->undetected_errors);
      }
      metrics->Record(hook->iterations, result.iterations);
    }
    if (on_frame) on_frame(snr_index, next_frame, frame_err);
    ++next_frame;
    return point.frame_errors.errors() >= min_frame_errors;
  }

  sim::BerPoint Finish() {
    point.avg_iterations =
        point.frames > 0 ? static_cast<double>(point.iterations_total) /
                               static_cast<double>(point.frames)
                         : 0.0;
    return std::move(point);
  }
};

// One point's batch dispatch and in-order commit. Workers claim batch
// indices inside the speculation window and publish each batch once
// its last frame is scored; whichever worker publishes the batch the
// point waits for commits it — and every batch already waiting behind
// it — to the accumulator, strictly in index order and one committer
// at a time. Memory and queue depth are O(threads), never
// O(max_frames).
struct SimEngine::PointState {
  const SimEngine* engine = nullptr;
  std::size_t snr_index = 0;
  double sigma = 1.0;
  std::uint64_t batch = 1;        // frames per batch
  std::uint64_t max_frames = 0;   // frames in the point
  std::uint64_t num_batches = 0;
  std::uint64_t window = 1;  // batches workers may claim ahead of the commit
  const sim::FrameCallback* on_frame = nullptr;
  bool has_frame_check = false;
  PointAccumulator acc;  // touched only by the committer

  std::mutex mutex;
  std::condition_variable producer_cv;  // idle workers: window space / stop
  std::map<std::uint64_t, std::vector<FrameResult>> ready;
  std::uint64_t next_claim = 0;
  std::uint64_t next_consume = 0;
  bool committing = false;
  // Lowest-batch-index failure; keyed by batch, not arrival time, so
  // which exception surfaces does not depend on scheduling.
  std::exception_ptr error;
  std::uint64_t error_batch = 0;
  std::exception_ptr callback_error;  // a throwing FrameCallback
  bool stop = false;     // no new claims
  bool decided = false;  // early stop or cancel: the point is done
  /// Set with `decided`: frames still in flight are discarded
  /// speculation, so streams end at their next delivery instead of
  /// draining their lanes.
  std::atomic<bool> abandon{false};

  /// Claim the next batch into `b`. Only an idle worker — one with no
  /// frame in flight — may wait for window space: the batch the window
  /// waits on may be one a busy worker still holds in its lanes.
  bool Claim(bool idle, obs::Shard* shard, obs::HistogramId wait_us,
             std::uint64_t* b) {
    std::unique_lock<std::mutex> lock(mutex);
    const auto claimable = [this] {
      return next_claim < num_batches && next_claim < next_consume + window;
    };
    if (idle) {
      // Queue economics: how long an idle worker sat waiting for
      // window space (or work) before claiming a batch.
      obs::ScopedTimer wait(shard, wait_us);
      producer_cv.wait(lock, [&] {
        return stop || next_claim >= num_batches || claimable();
      });
    }
    if (stop || !claimable()) return false;
    *b = next_claim++;
    return true;
  }

  /// Frames not yet claimed by any worker.
  std::uint64_t UnclaimedFrames() {
    std::lock_guard<std::mutex> lock(mutex);
    return max_frames - std::min(max_frames, next_claim * batch);
  }

  /// Park batch `b`, then commit every batch that is now next in line
  /// unless another worker is already committing (it picks `b` up
  /// before it lets go).
  void Publish(std::uint64_t b, std::vector<FrameResult> results) {
    std::unique_lock<std::mutex> lock(mutex);
    ready.emplace(b, std::move(results));
    if (committing) return;
    committing = true;
    bool advanced = false;
    while (!decided) {
      const auto it = ready.find(next_consume);
      if (it == ready.end()) break;
      // Cooperative cancel is polled between batches: the point keeps
      // the frames already committed.
      if (engine->Cancelled()) {
        Decide();
        break;
      }
      std::vector<FrameResult> batch_results = std::move(it->second);
      ready.erase(it);
      ++next_consume;
      advanced = true;
      lock.unlock();
      bool reached = false;
      try {
        for (const FrameResult& r : batch_results) {
          if (acc.Consume(r, snr_index, engine->counted_bits_,
                          engine->config_.min_frame_errors, has_frame_check,
                          *on_frame)) {
            reached = true;
            break;
          }
        }
      } catch (...) {
        lock.lock();
        callback_error = std::current_exception();
        Decide();
        break;
      }
      lock.lock();
      if (reached) Decide();
    }
    committing = false;
    lock.unlock();
    if (advanced) producer_cv.notify_all();  // the window moved
  }

  void Fail(std::uint64_t b, std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!error || b < error_batch) {
        error = std::move(e);
        error_batch = b;
      }
      // No new claims; the frames in flight elsewhere still drain, so
      // every batch below the failed one commits like it would
      // without the error.
      stop = true;
    }
    producer_cv.notify_all();
  }

 private:
  /// The point is done (lock held): no new claims, and in-flight
  /// frames are dropped.
  void Decide() {
    decided = true;
    stop = true;
    abandon.store(true, std::memory_order_relaxed);
    producer_cv.notify_all();
  }
};

// One worker's feed over a point: claims batches, stages each one's
// channel output in the worker's FrameScratch, keeps a codeword slot
// per frame in flight, scores each frame as the decoder delivers it,
// and publishes a batch to the in-order commit once its last frame is
// in.
class SimEngine::BatchFeed final : public ldpc::FrameFeed {
 public:
  BatchFeed(const SimEngine& engine, PointState& point, FrameScratch& scratch,
            obs::Shard* shard)
      : engine_(engine), point_(point), scratch_(scratch), shard_(shard) {}
  BatchFeed(const BatchFeed&) = delete;
  BatchFeed& operator=(const BatchFeed&) = delete;

  ~BatchFeed() override {
    // Frames dropped by an abandoned or failed stream give their
    // codeword slots back.
    for (const Batch& batch : batches_)
      for (const std::size_t slot : batch.slots)
        if (slot != kNoSlot) scratch_.free_slots.push_back(slot);
  }

  ldpc::FrameChunk Pull(std::size_t max_frames, bool idle) override {
    if (cursor_ == staged_) {
      std::uint64_t b = 0;
      if (!point_.Claim(idle, shard_,
                        engine_.hook_ ? engine_.hook_->worker_wait_us
                                      : obs::HistogramId{},
                        &b))
        return {};
      Stage(b);
    }
    const std::size_t n = engine_.code_.n();
    const std::size_t count =
        std::min<std::size_t>(max_frames, staged_ - cursor_);
    Batch& batch = batches_.back();
    for (std::size_t i = cursor_; i < cursor_ + count; ++i) {
      const std::size_t slot = AcquireSlot();
      std::copy_n(scratch_.codewords.data() + i * n, n,
                  scratch_.slots.data() + slot * n);
      batch.slots[i] = slot;
    }
    const ldpc::FrameChunk chunk{
        {scratch_.llrs.data() + cursor_ * n, count * n}, count};
    cursor_ += count;
    return chunk;
  }

  bool Deliver(std::uint64_t seq, const ldpc::DecodeResult& result) override {
    const auto it = std::find_if(
        batches_.begin(), batches_.end(),
        [seq](const Batch& b) { return seq - b.first_seq < b.count; });
    CLDPC_EXPECTS(it != batches_.end(), "delivered a frame never pulled");
    const std::uint64_t i = seq - it->first_seq;
    std::size_t& slot = it->slots[i];
    const std::size_t n = engine_.code_.n();
    it->results[i] = engine_.Compare(result, scratch_.slots.data() + slot * n);
    scratch_.free_slots.push_back(slot);
    slot = kNoSlot;
    if (--it->pending == 0) {
      if (shard_ != nullptr) {
        const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - it->staged_at);
        shard_->Record(engine_.hook_->batch_latency_us,
                       static_cast<std::int64_t>(us.count()));
      }
      point_.Publish(it->index, std::move(it->results));
      batches_.erase(it);
    }
    return !point_.abandon.load(std::memory_order_relaxed);
  }

  std::uint64_t Remaining() const override {
    return (staged_ - cursor_) + point_.UnclaimedFrames();
  }

  /// The batch an exception out of the stream is charged to: the
  /// lowest claimed batch not yet published (its frames are lost with
  /// the stream), or past the last batch when there is none.
  std::uint64_t FailedBatch() const {
    return batches_.empty() ? point_.num_batches : batches_.front().index;
  }

 private:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// A claimed batch with frames still to score.
  struct Batch {
    std::uint64_t index = 0;
    std::uint64_t first_seq = 0;  // stream number of its first frame
    std::uint64_t count = 0;
    std::uint64_t pending = 0;  // frames not yet delivered
    std::vector<FrameResult> results;
    std::vector<std::size_t> slots;  // codeword slot per pulled frame
    std::chrono::steady_clock::time_point staged_at;
  };

  void Stage(std::uint64_t b) {
    const std::uint64_t first = b * point_.batch;
    const std::uint64_t count =
        std::min<std::uint64_t>(point_.batch, point_.max_frames - first);
    Batch& batch = batches_.emplace_back();
    batch.index = b;
    batch.first_seq = next_seq_;
    batch.count = count;
    batch.pending = count;
    batch.results.resize(count);
    batch.slots.assign(count, kNoSlot);
    if (shard_ != nullptr) batch.staged_at = std::chrono::steady_clock::now();
    next_seq_ += count;
    staged_ = count;
    cursor_ = 0;
    engine_.StageBatch(point_.snr_index, first, count, point_.sigma, scratch_,
                       shard_);
  }

  std::size_t AcquireSlot() {
    if (scratch_.free_slots.empty()) {
      const std::size_t n = engine_.code_.n();
      const std::size_t slot = scratch_.slots.size() / n;
      scratch_.slots.resize(scratch_.slots.size() + n);
      return slot;
    }
    const std::size_t slot = scratch_.free_slots.back();
    scratch_.free_slots.pop_back();
    return slot;
  }

  const SimEngine& engine_;
  PointState& point_;
  FrameScratch& scratch_;
  obs::Shard* shard_;
  std::vector<Batch> batches_;  // claimed, unpublished, in index order
  std::uint64_t next_seq_ = 0;
  std::size_t staged_ = 0;  // frames of the staged batch (the last one)
  std::size_t cursor_ = 0;  // of those, frames already pulled
};

void SimEngine::StageBatch(std::size_t snr_index, std::uint64_t first_frame,
                           std::uint64_t count, double sigma,
                           FrameScratch& scratch,
                           obs::Shard* metrics_shard) const {
  const std::size_t n = code_.n();
  const std::size_t n_info = code_.k();

  // A per-worker trace span per staged batch (inert when
  // metrics_shard is null or tracing is off).
  obs::ScopedTrace span(metrics_shard, "batch");
  span.Arg("snr_index", static_cast<std::int64_t>(snr_index));
  span.Arg("first_frame", static_cast<std::int64_t>(first_frame));
  span.Arg("frames", static_cast<std::int64_t>(count));
  if (metrics_shard) metrics_shard->Add(hook_->frames_decoded, count);

  // The frontend runs in three passes over the batch — info bits,
  // encode, channel — and the two random passes draw several frames
  // per SIMD register (the dispatched frame-lane kernels,
  // ldpc/core/frame_lanes.inc), each frame from its own streams, so
  // every frame is the one the per-frame loop would produce. All
  // staging goes through the worker's FrameScratch, so the frontend
  // touches the heap only while the buffers first grow.
  scratch.data_seeds.resize(count);
  scratch.noise_seeds.resize(count);
  scratch.info.resize(count * n_info);
  scratch.codewords.resize(count * n);
  scratch.symbols.resize(n);
  scratch.llrs.resize(count * n);
  // Seed derivation uses ABSOLUTE indices: run-local (snr_index,
  // frame) offset by the config's (snr_index_base, start_frame). For
  // ordinary sweeps the offsets are zero; a sharded or resumed run
  // sets them so its frames draw exactly the seeds the whole-sweep
  // run would. Independent, reproducible streams for data and noise:
  // every frame is a pure function of (base_seed, snr_index,
  // frame_index).
  const std::uint64_t abs_snr = config_.snr_index_base + snr_index;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t f = config_.start_frame + first_frame + i;
    scratch.data_seeds[i] = DeriveSeed(config_.base_seed, abs_snr, f, 1);
    scratch.noise_seeds[i] = DeriveSeed(config_.base_seed, abs_snr, f, 2);
  }

  const auto& kernels = ldpc::core::ActiveLaneKernels();
  if (config_.all_zero_codeword) {
    std::fill(scratch.codewords.begin(), scratch.codewords.end(), 0);
  } else if (config_.frame_source) {
    // Protocol-aware generation (e.g. payload + CRC): a pure function
    // of the derived seed, so the determinism contract is untouched.
    for (std::uint64_t i = 0; i < count; ++i)
      config_.frame_source(scratch.data_seeds[i],
                           {scratch.codewords.data() + i * n, n});
  } else {
    kernels.draw_info_bits({scratch.data_seeds.data(), count, n_info,
                            scratch.info.data()});
    for (std::uint64_t i = 0; i < count; ++i)
      encoder_.EncodeInto({scratch.info.data() + i * n_info, n_info},
                          {scratch.codewords.data() + i * n, n},
                          scratch.parity);
  }
  kernels.transmit_llrs({scratch.noise_seeds.data(), count, n,
                         scratch.codewords.data(), sigma,
                         scratch.llrs.data(), scratch.symbols.data()});
}

SimEngine::FrameResult SimEngine::Compare(const ldpc::DecodeResult& decoded,
                                          const std::uint8_t* sent) const {
  FrameResult result;
  result.iterations = decoded.iterations_run;
  result.converged = decoded.converged;
  // Contiguous byte ranges, so the compare vectorizes.
  const std::uint8_t* bits = decoded.bits.data();
  for (const auto& [begin, end] : counted_runs_) {
    std::uint64_t errors = 0;
    for (std::size_t pos = begin; pos < end; ++pos)
      errors += bits[pos] != sent[pos];
    result.bit_errors += errors;
  }
  if (config_.frame_check) result.accepted = config_.frame_check(decoded.bits);
  return result;
}

sim::BerCurve SimEngine::Run(const DecoderFactory& factory,
                             const sim::FrameCallback& on_frame) {
  const std::size_t threads = ResolveThreads(config_.threads);
  DecoderPool decoders(factory, threads);
  sim::BerCurve curve;
  curve.decoder_name = decoders.name();
  curve.has_frame_check = static_cast<bool>(config_.frame_check);
  // The calling thread is worker 0; a pool runs the other workers.
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads - 1);
  const double rate = code_.Rate();
  // Worker w records into shard w with no synchronization; the
  // committer owns the shard behind them (kStable metrics only).
  obs::Shard* agg = hook_ ? hook_->PrepareShards(threads) : nullptr;
  // One FrameScratch per worker, owned across all points of the
  // sweep: the staging buffers and codeword slots allocate once and
  // are reused by every batch the worker stages.
  std::vector<FrameScratch> scratches(threads);
  // Codeword slots cover a lane group (32 frames) or one batch,
  // whichever is larger; reserved once so they never reallocate.
  const std::uint64_t slots = std::min<std::uint64_t>(
      config_.max_frames, std::max<std::uint64_t>(config_.batch_frames, 32));
  for (FrameScratch& scratch : scratches) {
    scratch.slots.reserve(slots * code_.n());
    scratch.free_slots.reserve(slots);
  }

  for (std::size_t s = 0; s < config_.ebn0_db.size(); ++s) {
    if (Cancelled()) break;  // partial sweep: keep completed points
    PointState point;
    point.engine = this;
    point.snr_index = s;
    point.sigma = channel::SigmaForEbN0(config_.ebn0_db[s], rate);
    point.batch = config_.batch_frames;
    point.max_frames = config_.max_frames;
    point.num_batches = (config_.max_frames + point.batch - 1) / point.batch;
    // Keep speculation (and result memory) bounded: workers may run
    // at most this many batches ahead of the in-order commit.
    point.window = 4 * static_cast<std::uint64_t>(threads);
    point.on_frame = &on_frame;
    point.has_frame_check = curve.has_frame_check;
    point.acc.point.ebn0_db = config_.ebn0_db[s];
    point.acc.metrics = agg;
    point.acc.hook = hook_.get();
    obs::ScopedTrace point_span(agg, "point");
    point_span.Arg("snr_index", static_cast<std::int64_t>(s));
    if (agg) agg->Add(hook_->points);

    const auto run_worker = [this, &point, &decoders,
                             &scratches](std::size_t worker) {
      obs::Shard* wshard = hook_ ? &hook_->reg->shard(worker) : nullptr;
      // The thread-local sink the decoders' internal probes report
      // through, for the whole stream (inert when wshard is null).
      obs::ScopedDecodeSink sink(wshard, hook_ ? &hook_->decode : nullptr);
      BatchFeed feed(*this, point, scratches[worker], wshard);
      try {
        decoders.Get(worker).DecodeStream(feed);
      } catch (...) {
        point.Fail(feed.FailedBatch(), std::current_exception());
      }
    };
    for (std::size_t w = 1; w < threads; ++w)
      pool->Submit([&run_worker, w] { run_worker(w); });
    run_worker(0);
    // Drain the point's workers before `point` leaves scope.
    if (pool) pool->WaitIdle();

    if (point.callback_error) std::rethrow_exception(point.callback_error);
    // A decided point never rethrows: if early stop was reached, a
    // worker error can only have come from speculative frames past
    // the stopping frame, which the same config at other thread
    // counts would never decode. Otherwise the commit stopped at the
    // first batch that never arrived — the failed one.
    if (!point.decided && point.error) std::rethrow_exception(point.error);
    curve.points.push_back(point.acc.Finish());
  }
  if (hook_) hook_->PublishSpeculationWaste();
  return curve;
}

}  // namespace cldpc::engine
