#include "engine/sim_engine.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <map>
#include <span>
#include <mutex>
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
// deduplicate, so several engines — e.g. one per RunSpec call of a
// multi-curve binary — share ids and accumulate into the same
// totals). The kStable set is recorded exclusively by the in-order
// aggregator; see the header's telemetry note.
struct SimEngine::MetricsHook {
  obs::MetricsRegistry* reg;
  obs::DecodeMetricIds decode;
  obs::CounterId frames, frame_errors, bit_errors, frames_converged,
      frames_accepted, undetected_errors, points, frames_decoded;
  obs::HistogramId iterations, batch_decode_us, worker_wait_us;

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
    batch_decode_us =
        r.Hist("time.batch_decode_us", D::kWallClock, "us");
    worker_wait_us = r.Hist("time.worker_wait_us", D::kWallClock, "us");
  }

  /// Shard layout for a run at `threads` workers: worker w records
  /// into shard w, the aggregator (and every kStable metric) into the
  /// extra shard behind them.
  obs::Shard* PrepareShards(std::size_t threads) {
    reg->SetShardCount(threads + 1);
    return &reg->shard(threads);
  }

  /// Post-run derived gauge: frames decoded beyond what the in-order
  /// aggregator consumed — the cost of speculating past early stops.
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
// produced, shared by the sequential and parallel paths so their
// output cannot diverge.
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
  /// frame that reaches it is included, like the sequential runner).
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

std::vector<SimEngine::FrameResult> SimEngine::SimulateBatch(
    ldpc::Decoder& decoder, std::size_t snr_index, std::uint64_t first_frame,
    std::uint64_t count, double sigma, FrameScratch& scratch,
    obs::Shard* metrics_shard) const {
  const std::size_t n = code_.n();
  const std::size_t n_info = code_.k();

  // Telemetry scope for the whole batch (staging + decode): a batch
  // latency sample, a per-worker trace span, and the thread-local
  // sink the decoders' internal probes report through. All four
  // constructions are inert no-ops when metrics_shard is null.
  obs::ScopedDecodeSink sink(metrics_shard, hook_ ? &hook_->decode : nullptr);
  obs::ScopedTimer timer(metrics_shard,
                         hook_ ? hook_->batch_decode_us : obs::HistogramId{});
  obs::ScopedTrace span(metrics_shard, "batch");
  span.Arg("snr_index", static_cast<std::int64_t>(snr_index));
  span.Arg("first_frame", static_cast<std::int64_t>(first_frame));
  span.Arg("frames", static_cast<std::int64_t>(count));
  if (metrics_shard) metrics_shard->Add(hook_->frames_decoded, count);

  // Stage the whole batch's channel output, then decode it in one
  // DecodeBatch call: batched decoders run the frames in SIMD lanes,
  // scalar decoders fall back to a frame loop — either way the
  // per-frame results are identical (the batching contract in
  // ldpc/decoder.hpp). The frontend runs in three passes over the
  // batch — info bits, encode, channel — and the two random passes
  // draw several frames per SIMD register (the dispatched frame-lane
  // kernels, ldpc/core/frame_lanes.inc), each frame from its own
  // streams, so every frame is the one the per-frame loop would
  // produce. All staging goes through the worker's FrameScratch, so
  // the frontend touches the heap only while the buffers first grow.
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

  const auto decoded = decoder.DecodeBatch(scratch.llrs, count);

  std::vector<FrameResult> results;
  results.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    FrameResult result;
    result.iterations = decoded[i].iterations_run;
    result.converged = decoded[i].converged;
    // Contiguous byte ranges, so the compare vectorizes.
    const std::uint8_t* bits = decoded[i].bits.data();
    const std::uint8_t* sent = scratch.codewords.data() + i * n;
    for (const auto& [begin, end] : counted_runs_) {
      std::uint64_t errors = 0;
      for (std::size_t pos = begin; pos < end; ++pos)
        errors += bits[pos] != sent[pos];
      result.bit_errors += errors;
    }
    if (config_.frame_check) result.accepted = config_.frame_check(decoded[i].bits);
    results.push_back(result);
  }
  return results;
}

sim::BerCurve SimEngine::Run(const DecoderFactory& factory,
                             const sim::FrameCallback& on_frame) {
  const std::size_t threads = ResolveThreads(config_.threads);
  if (threads == 1) {
    DecoderPool decoders(factory, 1);
    return RunSequential(decoders.Get(0), on_frame);
  }
  return RunParallel(factory, threads, on_frame);
}

sim::BerCurve SimEngine::Run(ldpc::Decoder& decoder,
                             const sim::FrameCallback& on_frame) {
  return RunSequential(decoder, on_frame);
}

sim::BerCurve SimEngine::RunSequential(ldpc::Decoder& decoder,
                                       const sim::FrameCallback& on_frame) {
  sim::BerCurve curve;
  curve.decoder_name = decoder.Name();
  curve.has_frame_check = static_cast<bool>(config_.frame_check);
  const double rate = code_.Rate();
  FrameScratch scratch;  // reused by every batch of the sweep

  // Sequential shard layout: the calling thread is both worker 0 and
  // the aggregator, but the roles keep their separate shards so the
  // kStable metrics stay aggregator-only like in the parallel path.
  obs::Shard* wshard = nullptr;
  obs::Shard* agg = nullptr;
  if (hook_) {
    agg = hook_->PrepareShards(1);
    wshard = &hook_->reg->shard(0);
  }

  for (std::size_t s = 0; s < config_.ebn0_db.size(); ++s) {
    if (Cancelled()) break;  // partial sweep: keep completed points
    const double sigma = channel::SigmaForEbN0(config_.ebn0_db[s], rate);
    PointAccumulator acc;
    acc.point.ebn0_db = config_.ebn0_db[s];
    acc.metrics = agg;
    acc.hook = hook_.get();
    obs::ScopedTrace point_span(agg, "point");
    point_span.Arg("snr_index", static_cast<std::int64_t>(s));
    if (agg) agg->Add(hook_->points);

    // batch_frames at a time, exactly like one parallel worker, so
    // batched decoders get their SIMD lane groups filled here too.
    // The stop check still runs per frame inside the batch; frames
    // decoded past the stopping frame are discarded speculation (the
    // parallel path does the same), so aggregation — and therefore
    // the output — is unchanged for any batch size.
    bool stopped = false;
    for (std::uint64_t first = 0; first < config_.max_frames && !stopped;
         first += config_.batch_frames) {
      if (Cancelled()) break;  // the point keeps its aggregated frames
      const std::uint64_t count = std::min<std::uint64_t>(
          config_.batch_frames, config_.max_frames - first);
      const auto results = SimulateBatch(decoder, s, first, count, sigma,
                                         scratch, wshard);
      for (const auto& r : results) {
        if (acc.Consume(r, s, counted_bits_, config_.min_frame_errors,
                        curve.has_frame_check, on_frame)) {
          stopped = true;
          break;
        }
      }
    }
    curve.points.push_back(acc.Finish());
  }
  if (hook_) hook_->PublishSpeculationWaste();
  return curve;
}

sim::BerCurve SimEngine::RunParallel(const DecoderFactory& factory,
                                     std::size_t threads,
                                     const sim::FrameCallback& on_frame) {
  DecoderPool decoders(factory, threads);
  ThreadPool pool(threads);

  sim::BerCurve curve;
  curve.decoder_name = decoders.name();
  curve.has_frame_check = static_cast<bool>(config_.frame_check);
  const double rate = code_.Rate();
  const std::uint64_t batch = config_.batch_frames;
  // Worker w records into shard w with no synchronization; the
  // aggregator owns the shard behind them (kStable metrics only).
  obs::Shard* agg = hook_ ? hook_->PrepareShards(threads) : nullptr;
  // One FrameScratch per worker, owned across all points of the
  // sweep: the channel staging buffers allocate once and are reused
  // by every batch the worker simulates.
  std::vector<FrameScratch> scratches(threads);

  // Keep speculation (and result memory) bounded: workers may run at
  // most this many batches ahead of the in-order aggregator.
  const std::uint64_t window = 4 * static_cast<std::uint64_t>(threads);

  for (std::size_t s = 0; s < config_.ebn0_db.size(); ++s) {
    if (Cancelled()) break;  // partial sweep: keep completed points
    const double sigma = channel::SigmaForEbN0(config_.ebn0_db[s], rate);
    const std::uint64_t num_batches =
        (config_.max_frames + batch - 1) / batch;

    // Workers self-dispatch batch indices inside the speculation
    // window and park finished batches in `ready`; the aggregator
    // below consumes them strictly in index order. Memory and queue
    // depth are O(threads), never O(max_frames).
    struct Shared {
      std::mutex mutex;
      std::condition_variable producer_cv;  // workers: window space / stop
      std::condition_variable consumer_cv;  // aggregator: next batch ready
      std::map<std::uint64_t, std::vector<FrameResult>> ready;
      std::uint64_t next_claim = 0;
      std::uint64_t next_consume = 0;
      // Lowest-batch-index failure; keyed by batch, not arrival time,
      // so which exception surfaces does not depend on scheduling.
      std::exception_ptr error;
      std::uint64_t error_batch = 0;
      bool stop = false;
    } shared;

    for (std::size_t w = 0; w < threads; ++w) {
      pool.Submit([this, &shared, &decoders, &scratches, s, batch,
                   num_batches, window, sigma] {
        const auto worker =
            static_cast<std::size_t>(ThreadPool::CurrentWorkerIndex());
        obs::Shard* wshard = hook_ ? &hook_->reg->shard(worker) : nullptr;
        for (;;) {
          std::uint64_t b;
          {
            // Queue economics: how long this worker sat waiting for
            // window space (or work) before claiming a batch.
            obs::ScopedTimer wait(
                wshard, hook_ ? hook_->worker_wait_us : obs::HistogramId{});
            std::unique_lock<std::mutex> lock(shared.mutex);
            shared.producer_cv.wait(lock, [&shared, num_batches, window] {
              return shared.stop || shared.next_claim >= num_batches ||
                     shared.next_claim < shared.next_consume + window;
            });
            // Cooperative early stop: no new batches once the
            // aggregator has decided the point is done.
            if (shared.stop || shared.next_claim >= num_batches) return;
            b = shared.next_claim++;
          }
          const std::uint64_t first = b * batch;
          const std::uint64_t count =
              std::min<std::uint64_t>(batch, config_.max_frames - first);
          try {
            auto results = SimulateBatch(decoders.Get(worker), s, first,
                                         count, sigma, scratches[worker],
                                         wshard);
            {
              std::lock_guard<std::mutex> lock(shared.mutex);
              shared.ready.emplace(b, std::move(results));
            }
            shared.consumer_cv.notify_one();
          } catch (...) {
            {
              std::lock_guard<std::mutex> lock(shared.mutex);
              if (!shared.error || b < shared.error_batch) {
                shared.error = std::current_exception();
                shared.error_batch = b;
              }
              shared.stop = true;
            }
            shared.consumer_cv.notify_one();
            shared.producer_cv.notify_all();
            return;
          }
        }
      });
    }

    PointAccumulator acc;
    acc.point.ebn0_db = config_.ebn0_db[s];
    acc.metrics = agg;
    acc.hook = hook_.get();
    obs::ScopedTrace point_span(agg, "point");
    point_span.Arg("snr_index", static_cast<std::int64_t>(s));
    if (agg) agg->Add(hook_->points);
    bool stopped = false;
    // The guard exists for the user FrameCallback: if it throws, the
    // workers must be stopped and drained BEFORE `shared` unwinds out
    // of scope under them.
    try {
      for (std::uint64_t b = 0; b < num_batches && !stopped; ++b) {
        // Cooperative cancel rides the early-stop machinery: stop
        // claiming, wake parked workers, drain below. The point keeps
        // the frames already consumed in order.
        if (Cancelled()) {
          stopped = true;
          {
            std::lock_guard<std::mutex> lock(shared.mutex);
            shared.stop = true;
          }
          shared.producer_cv.notify_all();
          break;
        }
        std::vector<FrameResult> results;
        {
          std::unique_lock<std::mutex> lock(shared.mutex);
          shared.consumer_cv.wait(lock, [&shared, b] {
            return shared.ready.count(b) != 0 || shared.error != nullptr;
          });
          // A worker error must not make throw-vs-success depend on
          // scheduling: batches are claimed in index order, so after
          // draining, every batch below the failing one has arrived.
          // Keep consuming that prefix — the point may still reach
          // its early stop inside it, in which case the error was in
          // discarded speculation.
          if (shared.ready.count(b) == 0) {
            lock.unlock();
            pool.WaitIdle();
            lock.lock();
            if (shared.ready.count(b) == 0) break;  // b is the failed batch
          }
          auto node = shared.ready.extract(b);
          results = std::move(node.mapped());
          ++shared.next_consume;  // window advances: wake waiting workers
        }
        shared.producer_cv.notify_all();
        for (const auto& r : results) {
          if (acc.Consume(r, s, counted_bits_, config_.min_frame_errors,
                          curve.has_frame_check, on_frame)) {
            stopped = true;
            {
              std::lock_guard<std::mutex> lock(shared.mutex);
              shared.stop = true;
            }
            shared.producer_cv.notify_all();
            break;
          }
        }
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(shared.mutex);
        shared.stop = true;
      }
      shared.producer_cv.notify_all();
      pool.WaitIdle();
      throw;
    }

    // Drain the point's runner jobs before `shared` leaves scope.
    pool.WaitIdle();
    // A completed point never rethrows: if early stop was reached, a
    // worker error can only have come from speculative frames past
    // the stopping frame, which the sequential runner — and the same
    // config at other thread counts — would never decode.
    if (!stopped && shared.error) std::rethrow_exception(shared.error);
    curve.points.push_back(acc.Finish());
  }
  if (hook_) hook_->PublishSpeculationWaste();
  return curve;
}

}  // namespace cldpc::engine
