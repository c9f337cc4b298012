// Cooperative-cancel seam: the shutdown flag, the test hook that arms
// it without a signal, and the Monte-Carlo engine honouring
// BerConfig::cancel at its point/batch boundaries with partial
// results kept.
#include "util/shutdown.hpp"

#include <atomic>
#include <string>

#include <gtest/gtest.h>

#include "codes/catalog.hpp"
#include "engine/sim_engine.hpp"
#include "ldpc/core/registry.hpp"

namespace cldpc {
namespace {

class ShutdownFlagTest : public ::testing::Test {
 protected:
  // Every test leaves the process-wide flag clear for the next one.
  void TearDown() override { util::RequestShutdownForTest(false); }
};

TEST_F(ShutdownFlagTest, TestHookArmsAndClearsTheFlag) {
  EXPECT_FALSE(util::ShutdownRequested().load());
  util::RequestShutdownForTest(true);
  EXPECT_TRUE(util::ShutdownRequested().load());
  util::RequestShutdownForTest(false);
  EXPECT_FALSE(util::ShutdownRequested().load());
}

TEST_F(ShutdownFlagTest, InstallHandlerIsIdempotent) {
  util::InstallShutdownHandler();
  util::InstallShutdownHandler();  // second install must be harmless
  EXPECT_FALSE(util::ShutdownRequested().load());
}

class EngineCancelTest : public ::testing::Test {
 protected:
  EngineCancelTest() : system_(codes::LoadCode("small")) {}

  sim::BerConfig BaseConfig() const {
    sim::BerConfig config;
    config.ebn0_db = {2.0, 3.0, 4.0};
    config.max_frames = 40;
    config.min_frame_errors = 1000;  // frame cap terminates points
    return config;
  }

  /// One sweep of `spec` through the engine.
  sim::BerCurve Run(const sim::BerConfig& config, const std::string& spec,
                    const sim::FrameCallback& on_frame = {}) const {
    return engine::SimEngine(*system_.code, *system_.encoder, config)
        .Run(ldpc::MakeDecoderFactory(*system_.code, spec), on_frame);
  }

  codes::CatalogCode system_;
};

TEST_F(EngineCancelTest, PreArmedCancelStopsBeforeAnyWork) {
  std::atomic<bool> cancel{true};
  auto config = BaseConfig();
  config.cancel = &cancel;
  const auto curve = Run(config, "nms:iters=4");
  // Cancelled before the first point: nothing measured, no crash.
  std::uint64_t frames = 0;
  for (const auto& point : curve.points) frames += point.frames;
  EXPECT_EQ(frames, 0u);
}

TEST_F(EngineCancelTest, NullCancelRunsToCompletion) {
  auto config = BaseConfig();
  ASSERT_EQ(config.cancel, nullptr);  // default: no cancel wiring
  const auto curve = Run(config, "nms:iters=4");
  ASSERT_EQ(curve.points.size(), 3u);
  for (const auto& point : curve.points) EXPECT_EQ(point.frames, 40u);
}

TEST_F(EngineCancelTest, MidRunCancelKeepsPartialResults) {
  // Cancel via a frame hook once the first point has measured a few
  // frames: the engine must keep those frames and skip the remaining
  // points — the ^C-mid-sweep story, deterministically.
  std::atomic<bool> cancel{false};
  auto config = BaseConfig();
  config.cancel = &cancel;
  const auto curve = Run(
      config, "nms:iters=4", [&cancel](std::size_t, std::uint64_t, bool) {
        cancel.store(true, std::memory_order_release);
      });
  std::uint64_t frames = 0;
  for (const auto& point : curve.points) frames += point.frames;
  EXPECT_GE(frames, 1u);   // partial work kept
  EXPECT_LT(frames, 120u); // but the sweep did stop early
}

TEST_F(EngineCancelTest, SequentialCancelStopsAtBatchBoundary) {
  // Granularity lock, shown on a threads=1 run: a cancel armed while a
  // batch is being consumed takes effect at the NEXT batch boundary —
  // the point keeps exactly the batch in flight, never runs to the
  // point cap. dist/ checkpoint-on-cancel (shard_runner, sweep) sizes
  // its "at most one batch of re-simulation" promise on this.
  std::atomic<bool> cancel{false};
  auto config = BaseConfig();
  config.ebn0_db = {3.0};
  config.max_frames = 60;
  config.batch_frames = 10;
  config.cancel = &cancel;
  const auto curve = Run(
      config, "nms:iters=4", [&cancel](std::size_t, std::uint64_t frame, bool) {
        if (frame == 0) cancel.store(true, std::memory_order_release);
      });
  ASSERT_EQ(curve.points.size(), 1u);
  EXPECT_EQ(curve.points[0].frames, 10u);
}

TEST_F(EngineCancelTest, ParallelEngineHonoursCancelIdentically) {
  std::atomic<bool> cancel{true};
  auto config = BaseConfig();
  config.cancel = &cancel;
  config.threads = 2;
  const auto curve = Run(config, "nms:iters=4");
  std::uint64_t frames = 0;
  for (const auto& point : curve.points) frames += point.frames;
  EXPECT_EQ(frames, 0u);
}

}  // namespace
}  // namespace cldpc
