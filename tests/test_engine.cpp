#include "engine/sim_engine.hpp"

#include <gtest/gtest.h>

#include "engine/thread_pool.hpp"
#include "obs/metrics.hpp"

#include <atomic>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "ldpc/core/registry.hpp"
#include "ldpc/minsum_decoder.hpp"
#include "qc/small_codes.hpp"
#include "util/contracts.hpp"

namespace cldpc::engine {
namespace {

struct Fixture {
  ldpc::LdpcCode code{qc::MakeSmallQcCode().Expand()};
  ldpc::Encoder encoder{code};
};

Fixture& Shared() {
  static Fixture f;
  return f;
}

ldpc::MinSumOptions DecOpts(int iters = 25) {
  ldpc::MinSumOptions o;
  o.iter.max_iterations = iters;
  o.variant = ldpc::MinSumVariant::kNormalized;
  o.alpha = 1.23;
  return o;
}

DecoderFactory Factory(int iters = 25) {
  auto& f = Shared();
  return [&f, iters] {
    return std::make_unique<ldpc::MinSumDecoder>(f.code, DecOpts(iters));
  };
}

/// Field-by-field equality, exact doubles included: the engine
/// promises *byte-identical* curves, not statistically similar ones.
void ExpectIdentical(const sim::BerCurve& a, const sim::BerCurve& b) {
  EXPECT_EQ(a.decoder_name, b.decoder_name);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const auto& pa = a.points[i];
    const auto& pb = b.points[i];
    EXPECT_EQ(pa.ebn0_db, pb.ebn0_db);
    EXPECT_EQ(pa.bit_errors.errors(), pb.bit_errors.errors());
    EXPECT_EQ(pa.bit_errors.trials(), pb.bit_errors.trials());
    EXPECT_EQ(pa.frame_errors.errors(), pb.frame_errors.errors());
    EXPECT_EQ(pa.frame_errors.trials(), pb.frame_errors.trials());
    EXPECT_EQ(pa.frames, pb.frames);
    EXPECT_EQ(pa.avg_iterations, pb.avg_iterations);
  }
}

TEST(SimEngine, MatchesSequentialRunnerForAnyThreadCount) {
  auto& f = Shared();
  sim::BerConfig config;
  config.ebn0_db = {3.0, 4.5};
  config.max_frames = 48;
  config.min_frame_errors = 1000;  // never reached
  config.base_seed = 7;

  // threads = 1 at the default batch size.
  const auto reference = SimEngine(f.code, f.encoder, config).Run(Factory());

  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    for (const std::uint64_t batch : {1u, 5u, 16u, 64u}) {
      config.threads = threads;
      config.batch_frames = batch;
      SimEngine sim(f.code, f.encoder, config);
      const auto curve = sim.Run(Factory());
      ExpectIdentical(curve, reference);
    }
  }
}

TEST(SimEngine, EarlyStopIsIdenticalToSequentialRunner) {
  auto& f = Shared();
  sim::BerConfig config;
  config.ebn0_db = {1.0};  // far below the waterfall: frames error often
  config.max_frames = 500;
  config.min_frame_errors = 5;
  config.base_seed = 11;

  const auto reference = SimEngine(f.code, f.encoder, config).Run(Factory(5));
  ASSERT_EQ(reference.points[0].frame_errors.errors(), 5u);
  ASSERT_LT(reference.points[0].frames, config.max_frames);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    config.threads = threads;
    config.batch_frames = 4;
    SimEngine sim(f.code, f.encoder, config);
    const auto curve = sim.Run(Factory(5));
    // The speculative workers must not leak extra frames into the
    // result: the consumed prefix ends at the exact stopping frame.
    ExpectIdentical(curve, reference);
  }
}

TEST(SimEngine, CallbackFiresInSequentialOrder) {
  auto& f = Shared();
  sim::BerConfig config;
  config.ebn0_db = {2.0, 5.0};
  config.max_frames = 20;
  config.min_frame_errors = 1000;
  using Event = std::tuple<std::size_t, std::uint64_t, bool>;

  std::vector<Event> sequential;
  {
    SimEngine sim(f.code, f.encoder, config);
    sim.Run(Factory(), [&sequential](std::size_t s, std::uint64_t fr, bool e) {
      sequential.emplace_back(s, fr, e);
    });
  }
  ASSERT_EQ(sequential.size(), 40u);

  std::vector<Event> parallel;
  config.threads = 4;
  config.batch_frames = 3;
  SimEngine sim(f.code, f.encoder, config);
  sim.Run(Factory(), [&parallel](std::size_t s, std::uint64_t fr, bool e) {
    parallel.emplace_back(s, fr, e);
  });
  EXPECT_EQ(parallel, sequential);
}

TEST(SimEngine, BerRunnerFactoryOverloadUsesConfiguredThreads) {
  auto& f = Shared();
  sim::BerConfig config;
  config.ebn0_db = {3.5};
  config.max_frames = 30;
  config.base_seed = 42;

  const auto reference = SimEngine(f.code, f.encoder, config).Run(Factory());

  config.threads = 3;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  ExpectIdentical(SimEngine(f.code, f.encoder, config).Run(Factory()),
                  reference);
  // One metric shard per worker, plus the in-order commit's.
  EXPECT_EQ(metrics.shard_count(), 4u);
}

TEST(SimEngine, AllZeroCodewordModeIsThreadCountInvariant) {
  auto& f = Shared();
  sim::BerConfig config;
  config.ebn0_db = {4.0};
  config.max_frames = 40;
  config.all_zero_codeword = true;

  SimEngine seq(f.code, f.encoder, config);
  const auto reference = seq.Run(Factory());

  config.threads = 4;
  SimEngine par(f.code, f.encoder, config);
  ExpectIdentical(par.Run(Factory()), reference);
}

TEST(SimEngine, RejectsBadConfig) {
  auto& f = Shared();
  sim::BerConfig config;  // no Eb/N0 points
  EXPECT_THROW(SimEngine(f.code, f.encoder, config), ContractViolation);

  config.ebn0_db = {3.0};
  config.batch_frames = 0;
  EXPECT_THROW(SimEngine(f.code, f.encoder, config), ContractViolation);
}

struct ThrowingDecoder final : ldpc::Decoder {
  ldpc::DecodeResult Decode(std::span<const double>) override {
    throw std::runtime_error("decoder exploded");
  }
  std::string Name() const override { return "throwing"; }
};

TEST(SimEngine, WorkerExceptionPropagatesToCaller) {
  auto& f = Shared();
  sim::BerConfig config;
  config.ebn0_db = {3.0};
  config.max_frames = 50;

  config.threads = 4;
  config.batch_frames = 4;
  SimEngine sim(f.code, f.encoder, config);
  EXPECT_THROW(sim.Run([] { return std::make_unique<ThrowingDecoder>(); }),
               std::runtime_error);
}

TEST(SimEngine, ThrowingFrameCallbackPropagatesCleanly) {
  // The aggregator must stop and drain the workers before unwinding;
  // a crash or hang here means `shared` was destroyed under them.
  auto& f = Shared();
  sim::BerConfig config;
  config.ebn0_db = {3.0};
  config.max_frames = 200;

  config.threads = 4;
  config.batch_frames = 2;
  SimEngine sim(f.code, f.encoder, config);
  int calls = 0;
  EXPECT_THROW(
      sim.Run(Factory(5),
              [&calls](std::size_t, std::uint64_t, bool) {
                if (++calls == 7) throw std::runtime_error("callback abort");
              }),
      std::runtime_error);
  EXPECT_EQ(calls, 7);
}

// --- Refilled lane streams through the engine ----------------------
//
// A 32-lane int8 decoder keeps its lane group full across batch
// boundaries; the engine must still commit exactly the frames, in
// exactly the order, that the scalar fixed decoder produces one frame
// at a time.

constexpr const char* kLaneSpec = "fixed-layered-nms-i8:iters=12,batch=32";
constexpr const char* kOracleSpec = "fixed-layered-nms:iters=12";

DecoderFactory SpecFactory(const char* spec) {
  auto& f = Shared();
  return [&f, spec] { return ldpc::MakeDecoder(f.code, spec); };
}

/// The scalar oracle's curve: one frame per batch on the calling
/// thread.
sim::BerCurve OracleCurve(sim::BerConfig config) {
  auto& f = Shared();
  config.threads = 1;
  config.batch_frames = 1;
  return SimEngine(f.code, f.encoder, config).Run(SpecFactory(kOracleSpec));
}

/// ExpectIdentical minus the decoder name (the i8 and int32 decoders
/// name their datapaths differently).
void ExpectSamePoints(const sim::BerCurve& a, const sim::BerCurve& b,
                      const std::string& what) {
  ASSERT_EQ(a.points.size(), b.points.size()) << what;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const auto& pa = a.points[i];
    const auto& pb = b.points[i];
    EXPECT_EQ(pa.ebn0_db, pb.ebn0_db) << what;
    EXPECT_EQ(pa.bit_errors.errors(), pb.bit_errors.errors()) << what;
    EXPECT_EQ(pa.bit_errors.trials(), pb.bit_errors.trials()) << what;
    EXPECT_EQ(pa.frame_errors.errors(), pb.frame_errors.errors()) << what;
    EXPECT_EQ(pa.frames, pb.frames) << what;
    EXPECT_EQ(pa.iterations_total, pb.iterations_total) << what;
  }
}

TEST(SimEngineStreams, CurvesMatchOracleAcrossThreadsAndBatches) {
  sim::BerConfig config;
  config.ebn0_db = {2.0, 3.5};
  config.max_frames = 70;
  config.min_frame_errors = std::numeric_limits<std::uint64_t>::max();
  config.base_seed = 21;
  const auto reference = OracleCurve(config);
  ASSERT_GT(reference.points[0].frame_errors.errors(), 0u);
  auto& f = Shared();
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    for (const std::uint64_t batch : {1u, 5u, 16u, 32u, 33u}) {
      config.threads = threads;
      config.batch_frames = batch;
      ExpectSamePoints(
          SimEngine(f.code, f.encoder, config).Run(SpecFactory(kLaneSpec)),
          reference,
          std::to_string(threads) + " threads, batch " +
              std::to_string(batch));
    }
  }
}

TEST(SimEngineStreams, EarlyStopDiscardsRefilledSpeculation) {
  sim::BerConfig config;
  config.ebn0_db = {1.0, 1.5};  // frames fail often: early stop
  config.max_frames = 500;
  config.min_frame_errors = 5;
  config.base_seed = 11;
  const auto reference = OracleCurve(config);
  ASSERT_EQ(reference.points[0].frame_errors.errors(), 5u);
  ASSERT_LT(reference.points[0].frames, config.max_frames);
  auto& f = Shared();
  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (const std::uint64_t batch : {1u, 7u, 32u}) {
      config.threads = threads;
      config.batch_frames = batch;
      obs::MetricsRegistry registry;
      config.metrics = &registry;
      ExpectSamePoints(
          SimEngine(f.code, f.encoder, config).Run(SpecFactory(kLaneSpec)),
          reference,
          std::to_string(threads) + " threads, batch " +
              std::to_string(batch));
      // Speculation past each point's stop stays inside the
      // 4-batch-per-worker window, plus the batch a worker may be
      // staging.
      double waste = -1.0;
      for (const auto& g : registry.Snapshot().gauges)
        if (g.name == "engine.speculation_waste_frames") waste = g.value;
      EXPECT_GE(waste, 0.0);
      EXPECT_LE(waste, static_cast<double>(config.ebn0_db.size() * 5 *
                                           threads * batch));
    }
  }
}

TEST(SimEngineStreams, CancelStopsAtTheNextBatchBoundary) {
  // The flag goes up while frame 40 is committed: its batch (frames
  // 32-47 at 16 per batch) is committed whole, nothing after it.
  auto& f = Shared();
  sim::BerConfig config;
  config.ebn0_db = {2.0, 3.0};
  config.max_frames = 200;
  config.min_frame_errors = std::numeric_limits<std::uint64_t>::max();
  config.base_seed = 5;
  config.batch_frames = 16;
  auto prefix = config;
  prefix.ebn0_db = {2.0};
  prefix.max_frames = 48;
  const auto reference = OracleCurve(prefix);
  for (const std::size_t threads : {1u, 3u}) {
    std::atomic<bool> cancel{false};
    config.cancel = &cancel;
    config.threads = threads;
    std::uint64_t calls = 0;
    const auto curve = SimEngine(f.code, f.encoder, config)
                           .Run(SpecFactory(kLaneSpec),
                                [&](std::size_t, std::uint64_t frame, bool) {
                                  ++calls;
                                  if (frame == 40) cancel.store(true);
                                });
    ExpectSamePoints(curve, reference, std::to_string(threads) + " threads");
    EXPECT_EQ(calls, 48u);
  }
}

TEST(SimEngineStreams, OffsetsSliceTheWholeRun) {
  // Two chunks of point 1 (absolute frames 0-24 and 25-59, selected by
  // start_frame and snr_index_base) add up to the whole run's point 1.
  auto& f = Shared();
  sim::BerConfig whole;
  whole.ebn0_db = {2.0, 2.5};
  whole.max_frames = 60;
  whole.min_frame_errors = std::numeric_limits<std::uint64_t>::max();
  whole.base_seed = 13;
  whole.threads = 3;
  whole.batch_frames = 5;
  const auto full =
      SimEngine(f.code, f.encoder, whole).Run(SpecFactory(kLaneSpec));
  ASSERT_GT(full.points[1].frame_errors.errors(), 0u);

  std::uint64_t frames = 0, frame_errors = 0, bit_errors = 0, iterations = 0;
  for (const auto& [start, count] :
       {std::pair<std::uint64_t, std::uint64_t>{0, 25}, {25, 35}}) {
    auto chunk = whole;
    chunk.ebn0_db = {2.5};
    chunk.snr_index_base = 1;
    chunk.start_frame = start;
    chunk.max_frames = count;
    const auto part =
        SimEngine(f.code, f.encoder, chunk).Run(SpecFactory(kLaneSpec));
    frames += part.points[0].frames;
    frame_errors += part.points[0].frame_errors.errors();
    bit_errors += part.points[0].bit_errors.errors();
    iterations += part.points[0].iterations_total;
  }
  EXPECT_EQ(frames, full.points[1].frames);
  EXPECT_EQ(frame_errors, full.points[1].frame_errors.errors());
  EXPECT_EQ(bit_errors, full.points[1].bit_errors.errors());
  EXPECT_EQ(iterations, full.points[1].iterations_total);
}

TEST(SimEngineStreams, NoDeadlockWhenTheWindowHoldsLessThanALaneGroup) {
  // 4 workers x 4 one-frame batches: the 16-frame speculation window
  // is smaller than one worker's 32-lane group, so workers keep
  // running into a full window while their lanes still hold frames.
  // Only an idle worker may wait for window space; a busy one decodes
  // on, so the batch the window waits on always completes.
  sim::BerConfig config;
  config.ebn0_db = {2.0, 3.5};
  config.max_frames = 100;
  config.min_frame_errors = std::numeric_limits<std::uint64_t>::max();
  config.base_seed = 3;
  const auto reference = OracleCurve(config);
  config.threads = 4;
  config.batch_frames = 1;
  auto& f = Shared();
  ExpectSamePoints(
      SimEngine(f.code, f.encoder, config).Run(SpecFactory(kLaneSpec)),
      reference, "4 threads, batch 1");
}

TEST(ResolveThreadsTest, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(ResolveThreads(0), 1u);
  EXPECT_EQ(ResolveThreads(1), 1u);
  EXPECT_EQ(ResolveThreads(6), 6u);
}

TEST(DecoderPoolTest, ClonesIndependentInstances) {
  DecoderPool pool(Factory(), 3);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.name(), pool.Get(0).Name());
  EXPECT_NE(&pool.Get(0), &pool.Get(1));
  EXPECT_NE(&pool.Get(1), &pool.Get(2));
  EXPECT_THROW(pool.Get(3), ContractViolation);
}

TEST(DecoderPoolTest, ConstructsLazilyPerSlot) {
  // A pool prepares slots only: no factory call until a worker (or
  // name()) first asks for its decoder, and each slot is built at
  // most once. Short runs with a huge --threads therefore never pay
  // O(threads * decoder state) setup.
  int calls = 0;
  auto& f = Shared();
  DecoderPool pool(
      [&f, &calls] {
        ++calls;
        return std::make_unique<ldpc::MinSumDecoder>(f.code, DecOpts());
      },
      64);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(pool.size(), 64u);
  auto& d2 = pool.Get(2);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(&pool.Get(2), &d2);  // cached, not re-cloned
  EXPECT_EQ(calls, 1);
  pool.name();  // materializes slot 0
  EXPECT_EQ(calls, 2);
  pool.Get(63);
  EXPECT_EQ(calls, 3);
}

TEST(DecoderPoolTest, RejectsEmptyFactoryAndZeroCount) {
  EXPECT_THROW(DecoderPool(DecoderFactory{}, 2), ContractViolation);
  EXPECT_THROW(DecoderPool(Factory(), 0), ContractViolation);
}

TEST(DecoderPoolTest, RejectsWrappedNegativeThreadCount) {
  // static_cast<std::size_t>(-1) from a CLI flag must fail loudly
  // instead of trying to allocate 2^64 decoders or threads.
  const auto wrapped = static_cast<std::size_t>(std::int64_t{-1});
  EXPECT_THROW(DecoderPool(Factory(), wrapped), ContractViolation);
  EXPECT_THROW(ThreadPool pool(wrapped), ContractViolation);
}

}  // namespace
}  // namespace cldpc::engine
